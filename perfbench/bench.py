"""Workloads, correctness checks and aggregation for the delcap benchmark.

A workload is a small set of variants; the seed picks one.  A variant is
the list of CLI invocations (ops) of one pass, as argv templates in which
`{tmp}` stands for the op's own scratch directory.  Variants of a workload
do the same work and differ only in inputs that change the bytes written
(kind order, duplication approach, invocation order), so every seed is
checked exactly against a reference recorded for that variant.

Each pass runs in a fresh process (`child.py`), so set-up time and peak
RSS are per pass.  The loop is closed: one pass at a time, the next one
starting when the previous one has been checked.

`wall_s` and `setup_s` are seconds at a reference machine speed: each
phase's measured time, less the time its speed samples took, times the
mean speed sampled during it (`rescale`; the sampling is in child.py).  On
a shared host this takes out the minutes-long swings in how fast the vCPU
runs, which otherwise move the median of a run by a quarter or more.  The
measured times and the speed stay in each pass's record and in the report.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
REFS = os.path.join(HERE, "refs.json")

# A pass that runs this long is stuck; it is killed and its ops fail.
PASS_TIMEOUT_S = 60.0
# No new pass starts after this long, whatever the minimum pass count.
RUN_CAP_S = 100.0
# One BLAS thread: on two vCPUs a second thread gains nothing on these
# matrices but doubles the CPU time and makes pass times spread widely.
PASS_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    variants: tuple

    def ops(self, seed: int) -> tuple:
        return self.variants[random.Random(seed).randrange(len(self.variants))]


def _bounds(n: int, grid: str, kinds: str) -> tuple:
    return ("bounds", "--channel", "bdc", "--n", str(n), "--d-grid", grid,
            "--kinds", kinds, "--output", "{tmp}/out.csv")


def _table(approach: str) -> tuple:
    return ("mdm-table", "--n", "18", "--m", "7", "--approach", approach,
            "--checkpoint", "{tmp}/checkpoint", "--output", "{tmp}/out.csv")


_BAA_ITERATION_BOUND = ("baa", "--n", "6", "--d", "0.7")
_BAA_MATRIX_BOUND = ("baa", "--n", "9", "--d", "0.2", "--history", "{tmp}/history.csv")
_DUP_KINDS = ("dup-last", "dup-length", "dup-gamma")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ml-curve",
            "Exact ML search at n=14 over five d: ~470 kernel calls on 2^14 lanes with "
            "state inside L2, so per-call overhead and class enumeration show.",
            tuple((_bounds(14, "0.3:0.7:0.1", k),) for k in ("raw,adjusted", "adjusted,raw")),
        ),
        Workload(
            "wide-table",
            "mdm-table n=18 m=7: few kernel calls on 2^18 lanes with 16 MiB of state, "
            "plus argmax tie-breaks, fractional dup counts and checkpoint writes.",
            tuple((_table(a),) for a in ("assign-to-last", "assign-by-length")),
        ),
        Workload(
            "dup-curve",
            "Duplication-sum recurrences at n=50 over nine d, mostly assign-by-length; "
            "no kernel call, so kernel and search changes should not move it.",
            tuple(
                (_bounds(50, "0.1:0.9:0.1", ",".join(_DUP_KINDS[i] for i in order)),)
                for order in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
            ),
        ),
        Workload(
            "baa-converge",
            "Blahut-Arimoto to tol 1e-10: n=6 d=0.7 is bound by its ~13,000 iterations, "
            "n=9 d=0.2 by its 512x1023 matrix build and products.",
            ((_BAA_ITERATION_BOUND, _BAA_MATRIX_BOUND), (_BAA_MATRIX_BOUND, _BAA_ITERATION_BOUND)),
        ),
    )
}

# (name, unit, better); their bounds are in BENCHMARK.json.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

# (name, unit, better, what it should move); "computed" marks a value
# derived from call arguments rather than measured.
PER_LAYER = (
    ("patcount.kernel_calls", "count", "lower", "wall_s on ml-curve, wide-table"),
    ("patcount.kernel_s", "s", "lower", "wall_s on ml-curve, wide-table"),
    ("patcount.lane_updates", "count", "lower", "wall_s on ml-curve, wide-table; computed"),
    ("patcount.lane_updates_per_s", "1/s", "higher", "wall_s on ml-curve, wide-table"),
    ("patcount.state_peak_mb", "MiB", "lower", "peak_rss_mb on wide-table; computed"),
    ("patcount.scalar_calls", "count", "lower", "wall_s on wide-table"),
    ("patcount.scalar_s", "s", "lower", "wall_s on wide-table"),
    ("bitseq.canonical_calls", "count", "lower", "wall_s on ml-curve"),
    ("bitseq.canonical_s", "s", "lower", "wall_s on ml-curve"),
    ("bitseq.from_numeral_calls", "count", "lower", "wall_s on ml-curve, baa-converge"),
    ("bitseq.from_numeral_s", "s", "lower", "wall_s on ml-curve, baa-converge"),
    ("mdm.classes_solved", "count", "lower", "wall_s on wide-table, ml-curve"),
    ("mdm.outputs", "count", "higher", "wall_s on wide-table, ml-curve"),
    ("mdm.sweep_s", "s", "lower", "wall_s on wide-table, ml-curve"),
    ("mdm.self_s", "s", "lower", "wall_s on wide-table, ml-curve"),
    ("mdm.checkpoint_bytes", "B", "lower", "wall_s on wide-table"),
    ("bounds.ml_s", "s", "lower", "wall_s on ml-curve"),
    ("bounds.dup_calls", "count", "lower", "wall_s on dup-curve"),
    ("bounds.dup_last_s", "s", "lower", "wall_s on dup-curve"),
    ("bounds.dup_length_s", "s", "lower", "wall_s on dup-curve"),
    ("bounds.dup_gamma_s", "s", "lower", "wall_s on dup-curve"),
    ("baa.build_s", "s", "lower", "wall_s on baa-converge"),
    ("baa.matrix_mb", "MiB", "lower", "peak_rss_mb on baa-converge; computed"),
    ("baa.iterations", "count", "lower", "wall_s on baa-converge"),
    ("baa.iter_ms", "ms", "lower", "wall_s on baa-converge"),
    ("baa.kkt_s", "s", "lower", "wall_s on baa-converge"),
    ("baa.kkt_residual", "bit", "lower", "correctness of baa-converge, not time"),
    ("cli.self_s", "s", "lower", "wall_s on every workload"),
    ("cli.bytes_written", "B", "lower", "wall_s on every workload"),
    ("trace.overhead_s", "s", "lower", "nothing; traced minus untraced wall_s"),
)

# Work counters that must read the same on every traced pass of a run.
REPEATING = ("patcount.kernel_calls", "patcount.lane_updates", "mdm.classes_solved", "baa.iterations")


def ref_key(template) -> str:
    return " ".join(template)


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _size(path) -> int:
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _stdout_fields(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def check_op(argv, rc: int, stdout: str, ref) -> list[str]:
    """Problems with one finished invocation; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    if ref is None:
        return ["no reference recorded for this invocation"]
    try:
        return _compare(argv, stdout, ref)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _compare(argv, stdout: str, ref) -> list[str]:
    problems = []
    output = _option(argv, "--output")
    if output is not None:
        with open(output, "rb") as fh:
            data = fh.read()
        if data != ref["output"].encode("ascii"):
            problems.append(f"{os.path.basename(output)} differs from the reference")
        if argv[0] == "mdm-table":
            problems += _recount(data.decode("ascii"))
    if argv[0] == "baa":
        got, want = _stdout_fields(stdout), _stdout_fields(ref["stdout"])
        if got.get("converged") != "yes":
            problems.append("baa did not converge")
        for key in ("capacity_proxy", "sandwich_lower", "sandwich_upper"):
            if got.get(key) != want.get(key):
                problems.append(f"{key}={got.get(key)} differs from reference {want.get(key)}")
        history = _option(argv, "--history")
        if history is not None:
            with open(history, "r", encoding="ascii") as fh:
                values = [float(line.split(",")[1]) for line in fh.readlines()[1:]]
            if not values or any(b < a for a, b in zip(values, values[1:])):
                problems.append("mutual information history decreases")
    return problems


def _recount(csv_text: str) -> list[str]:
    """Recount every row's x_star with the scalar DP, not the vector kernel."""
    from delcap.bitseq import BinarySequence
    from delcap.patcount import count_deletion_patterns

    problems = []
    for line in csv_text.splitlines()[1:]:
        y, x_star, max_count = line.split(",")[:3]
        count = count_deletion_patterns(BinarySequence.from_string(x_star), BinarySequence.from_string(y))
        if count != int(max_count):
            problems.append(f"y={y}: max_count {max_count} but x_star {x_star} has {count}")
    return problems


def spawn(root: str, argvs, trace: bool):
    """Run one pass in a fresh process; (result dict or None, stderr, spawn mark)."""
    spec = json.dumps({"root": root, "ops": argvs, "trace": trace})
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, spec],
            cwd=root, env=PASS_ENV, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        return None, f"pass killed after {exc.timeout} s", started
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr, started
    try:
        return json.loads(lines[-1]), proc.stderr, started
    except ValueError:
        return None, proc.stderr + proc.stdout[-400:], started


def rescale(seconds: float, phase: dict, pass_speed: float) -> float:
    """A phase's time at the reference machine speed (see child.py).

    The time the speed samples took is taken out; the rest is multiplied by
    the phase's mean speed, or the whole pass's when the phase was too
    short to be sampled.
    """
    speed = phase["speed_sum"] / phase["samples"] if phase["samples"] else pass_speed
    return (seconds - phase["sampling_s"]) * speed


def run_pass(root: str, workdir: str, templates, trace: bool, refs: dict) -> dict:
    """One checked pass of a workload variant."""
    tmp = tempfile.mkdtemp(prefix="pass-", dir=workdir)
    try:
        argvs = []
        for index, template in enumerate(templates):
            opdir = os.path.join(tmp, str(index))
            os.mkdir(opdir)
            argvs.append([a.replace("{tmp}", opdir) for a in template])
        child, stderr, started = spawn(root, argvs, trace)
        out = {"traced": trace, "attempted": len(argvs), "failed": 0, "problems": [], "timed": child is not None}
        if child is None:
            out["failed"] = len(argvs)
            out["problems"].append(f"pass process failed: {stderr.strip()[-400:]}")
            return out
        checkpoint_bytes = cli_bytes = 0
        iterations = []
        for template, argv, op in zip(templates, argvs, child["ops"]):
            problems = check_op(argv, op["rc"], op["stdout"], refs.get(ref_key(template)))
            if problems:
                out["failed"] += 1
                out["problems"] += [f"{argv[0]}: {p}" for p in problems]
            checkpoint_bytes += _size(_option(argv, "--checkpoint"))
            output = _option(argv, "--output")
            cli_bytes += len(op["stdout"]) + _size(output) + _size(_option(argv, "--history"))
            if argv[0] == "baa":
                iterations.append(_stdout_fields(op["stdout"]).get("iterations"))
        if out["failed"] and stderr.strip():
            out["problems"].append(f"stderr: {stderr.strip()[-400:]}")
        phases = [child["setup_speed"]] + [op["speed"] for op in child["ops"]]
        samples = sum(ph["samples"] for ph in phases)
        out["speed"] = sum(ph["speed_sum"] for ph in phases) / samples if samples else 1.0
        out["setup_raw_s"] = child["imported_at"] - started
        out["setup_s"] = rescale(out["setup_raw_s"], child["setup_speed"], out["speed"])
        out["wall_raw_s"] = sum(op["wall_s"] for op in child["ops"])
        out["wall_s"] = sum(rescale(op["wall_s"], op["speed"], out["speed"]) for op in child["ops"])
        out["peak_rss_mb"] = child["peak_rss_mb"]
        out["blas_threads"] = child["blas_threads"]
        out["counters"] = {"baa.iterations": iterations}
        if trace:
            out["spans"] = child["spans"]
            out["layer"] = tracer.layer_metrics(child["spans"], checkpoint_bytes, cli_bytes)
            out["counters"] = {k: out["layer"][k] for k in REPEATING}
        return out
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(root: str, workdir: str, templates, seconds: float, trace: bool, refs: dict) -> list[dict]:
    """Passes back to back for `seconds`; a traced run alternates plain and traced passes."""
    min_passes = 4 if trace else 3
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(root, workdir, templates, trace and len(passes) % 2 == 1, refs))
        elapsed = time.monotonic() - start
        if elapsed >= RUN_CAP_S or (elapsed >= seconds and len(passes) >= min_passes):
            return passes


def counters_repeat(passes: list[dict]) -> list[str]:
    """Names of work counters that differ between comparable passes."""
    differ = []
    for traced in (False, True):
        seen = [p["counters"] for p in passes if p["timed"] and p["traced"] == traced]
        for name in seen[0] if seen else ():
            if any(c[name] != seen[0][name] for c in seen):
                differ.append(name)
    return sorted(set(differ))


def tail(values: list[float]):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return None
    rank = len(ordered) - 10
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def summarize(passes: list[dict], trace: bool) -> dict:
    """The final result object: correctness counts plus the run's metrics."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if p["timed"] and not p["traced"]]
    metrics = {}
    if trace:
        traced = [p for p in passes if p["timed"] and p["traced"]]
        for name, unit, _, _ in PER_LAYER:
            if name == "trace.overhead_s":
                value = _median(traced, "wall_s") - _median(plain, "wall_s")
            else:
                values = [p["layer"][name] for p in traced] or [0]
                pick = statistics.median_low if isinstance(values[0], int) else statistics.median
                value = pick(values)
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, unit, _ in END_TO_END:
            metrics[name] = {"value": _median(plain, name), "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _median(passes, key) -> float:
    return statistics.median(p[key] for p in passes) if passes else 0.0


def record(root: str, workdir: str, templates) -> dict:
    """Reference output and stdout of each distinct invocation, run once."""
    refs = {}
    for template in templates:
        tmp = tempfile.mkdtemp(prefix="record-", dir=workdir)
        try:
            argv = [a.replace("{tmp}", tmp) for a in template]
            child, stderr, _ = spawn(root, [argv], False)
            if child is None or child["ops"][0]["rc"] != 0:
                raise RuntimeError(f"{' '.join(argv)} failed: {stderr}")
            entry = {"stdout": child["ops"][0]["stdout"]}
            output = _option(argv, "--output")
            if output is not None:
                with open(output, "r", encoding="ascii", newline="") as fh:
                    entry["output"] = fh.read()
            refs[ref_key(template)] = entry
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return refs


def environment(passes: list[dict]) -> dict:
    """Interpreter, numpy, CPU and BLAS facts needed to compare runs like with like."""
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": "unknown",
        "blas_threads": next((p["blas_threads"] for p in passes if p["timed"]), None),
    }
    try:
        with open("/proc/cpuinfo", "r", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level"), encoding="ascii") as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "size"), encoding="ascii") as fh:
                env[f"l{level}"] = fh.read().strip()
        except OSError:
            continue
    env.pop("l1", None)
    return env
