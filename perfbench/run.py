"""Run one delcap benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ml-curve --seed 1 --seconds 24 --trace 0

Run from the root of a checkout: the passes import `delcap` from its `src`.
The run repeats passes of the workload for `--seconds`, checks every CLI
invocation against the references in `refs.json`, and prints a readable
report followed by one JSON line with `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 0` the metrics are the end-to-end ones (medians
over passes); with `--trace 1` plain and traced passes alternate and the
metrics are the per-layer ones, and the spans go to
`.perfbench_out/trace-<workload>-<seed>.json` once, at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import bench

ROOT = os.getcwd()


def report(workload, seed, templates, passes, result, env) -> list[str]:
    lines = [
        "env " + json.dumps(env, sort_keys=True),
        f"workload {workload.name} seed {seed}: {workload.why}",
    ]
    lines += [f"op {' '.join(t)}" for t in templates]
    plain = [p for p in passes if p["timed"] and not p["traced"]]
    walls = [p["wall_s"] for p in plain]
    lines.append(
        f"passes {len(passes)} ({len(plain)} untraced), ops attempted {result['attempted']}, "
        f"failed {result['failed']}, fail_ratio {result['failed'] / result['attempted']:.6f}"
    )
    if walls:
        lines.append(
            f"measured: wall median {statistics.median(p['wall_raw_s'] for p in plain):.4f} s, "
            f"set-up median {statistics.median(p['setup_raw_s'] for p in plain):.4f} s, "
            f"machine speed median {statistics.median(p['speed'] for p in plain):.3f} of the reference"
        )
        line = f"wall_s median {statistics.median(walls):.4f} s, max {max(walls):.4f} s over {len(walls)} samples"
        top = bench.tail(walls)
        if top:
            line += f", p{top[0]:.0f} {top[1]:.4f} s"
        else:
            line += ", too few samples for a tail percentile with 10 beyond it"
        lines.append(line)
    differ = bench.counters_repeat(passes)
    lines.append("work counters repeat: " + ("yes" if not differ else "NO, differ: " + ", ".join(differ)))
    for p in passes:
        lines += [f"FAILED {problem}" for problem in p["problems"]]
    moves = {name: f" (moves {target})" for name, _, _, target in bench.PER_LAYER}
    for name, metric in result["metrics"].items():
        lines.append(f"metric {name} = {metric['value']} {metric['unit']}{moves.get(name, '')}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "delcap", "cli.py")):
        print(f"error: no delcap sources under {ROOT}/src; run from a checkout root", file=sys.stderr)
        return 2
    with open(bench.REFS, "r", encoding="ascii") as fh:
        refs = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    workload = bench.WORKLOADS[args.workload]
    templates = workload.ops(args.seed)
    workdir = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(workdir, exist_ok=True)
    passes = bench.measure(ROOT, workdir, templates, args.seconds, bool(args.trace), refs)
    result = bench.summarize(passes, bool(args.trace))
    env = bench.environment(passes)
    print("\n".join(report(workload, args.seed, templates, passes, result, env)))
    if args.trace:
        outdir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(outdir, exist_ok=True)
        trace = {
            "env": env,
            "workload": workload.name,
            "seed": args.seed,
            "span_fields": ["name", "layer", "start", "end", "parent", "op", "attrs"],
            "passes": [
                {"pass": i, "wall_s": p.get("wall_s"), "layer": p["layer"], "spans": p["spans"]}
                for i, p in enumerate(passes)
                if p["timed"] and p["traced"]
            ],
        }
        path = os.path.join(outdir, f"trace-{workload.name}-{args.seed}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(trace, fh)
        print(f"trace written to {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
