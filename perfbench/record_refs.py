"""Record the reference outputs every workload variant is checked against.

    python3 perfbench/record_refs.py

Run from the root of a checkout whose outputs are known to be right.  Each
distinct CLI invocation of every workload runs once; its stdout and output
CSV go to perfbench/refs.json.  The baa history is not stored: the check
only requires it to be non-decreasing.
"""

from __future__ import annotations

import json
import os
import sys

import bench


def main() -> int:
    root = os.getcwd()
    workdir = os.path.join(root, ".perfbench_work")
    os.makedirs(workdir, exist_ok=True)
    templates = {}
    for workload in bench.WORKLOADS.values():
        for variant in workload.variants:
            for template in variant:
                templates[bench.ref_key(template)] = template
    refs = bench.record(root, workdir, list(templates.values()))
    with open(bench.REFS, "w", encoding="ascii") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(refs)} references in {os.path.relpath(bench.REFS, root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
