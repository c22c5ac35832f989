"""Tests of the package surface: the export list and the names the
benchmark tracer wraps."""

import importlib
import subprocess
import sys
from pathlib import Path

import delcap

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert len(set(delcap.__all__)) == len(delcap.__all__)
    assert set(delcap.__all__) <= set(dir(delcap))
    for name in delcap.__all__:
        obj = getattr(delcap, name)
        # the name's owner: where a class or function was defined, else the
        # one submodule that binds it (a constant)
        owner = getattr(obj, "__module__", None)
        if owner is None:
            [owner] = [
                f"delcap.{module}"
                for module in ("baa", "bitseq", "bounds", "dupsum", "mdm", "patcount")
                if getattr(importlib.import_module(f"delcap.{module}"), name, None) is obj
            ]
        assert getattr(importlib.import_module(owner), name) is obj, name
    namespace: dict = {}
    exec("from delcap import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(delcap.__all__)


def test_bare_import_leaves_numpy_out():
    # the exports load on first use, so `import delcap` alone imports no
    # submodule, and the duplication sums and sequences need no numpy
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}]; import delcap; "
        "bare = 'numpy' in sys.modules; "
        "assert delcap.dupsum.dup_sum is delcap.dup_sum and delcap.BinarySequence; "
        "sys.exit(bare or 'numpy' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_benchmark_tracer_installs():
    # perfbench/tracer.py wraps library functions by the names their callers
    # bind; deleting one of those names makes install raise
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    code = f"import sys; sys.path[:0] = {paths!r}; import tracer; tracer.install(tracer.Tracer())"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
