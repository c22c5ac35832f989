"""Tests of the package surface: the export list and the names the
benchmark tracer wraps."""

import subprocess
import sys
from pathlib import Path

import delcap

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert [name for name in delcap.__all__ if not hasattr(delcap, name)] == []
    assert len(set(delcap.__all__)) == len(delcap.__all__)


def test_benchmark_tracer_installs():
    # perfbench/tracer.py wraps library functions by the names their callers
    # bind; deleting one of those names makes install raise
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    code = f"import sys; sys.path[:0] = {paths!r}; import tracer; tracer.install(tracer.Tracer())"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
