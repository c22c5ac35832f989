"""One benchmark pass: a fresh process that runs CLI invocations in order.

Usage: python3 child.py SPEC_JSON, where the spec holds the checkout root,
the argv list of each invocation and whether to trace.  The process imports
`delcap.cli` from the checkout's `src`, notes the monotonic clock (the
parent subtracts its spawn time to get the set-up time), then calls
`main(argv)` once per invocation with stdout captured.  The last line of
its own stdout is one JSON object with the set-up mark, peak RSS, each
invocation's exit code, captured stdout and wall time, the machine-speed
samples of each phase, and the spans when traced.

Machine speed: the vCPUs of a shared host run the same code up to 1.5x
slower for seconds to minutes at a time, whatever runs on them.  So from
its first line to its last the pass samples how long two fixed pure-Python
loops take: a SIGALRM handler times one of them, in turn, every PERIOD_S
of wall time, between bytecodes of whatever runs, on the same vCPU and at
the same moments as the pass.  One loop is plain integer arithmetic; the
other enumerates integer partitions through nested generators and sums
big binomials, the kind of interpreter work that slows most when the host
is busy.  Each phase (the imports, each invocation) reports the sum of
reference time / sample time over its samples, their count, and the time
the samples took, so the parent can subtract that time and rescale the
rest to the reference speed.
"""

import math
import signal
import time

# A sample every 10 ms of wall time, each about 0.25 ms: about 2.5 % of a pass.
PERIOD_S = 0.01


def arithmetic_loop() -> int:
    total = 0
    for i in range(2500):
        total += i * i % 7
    return total


def _partitions(remaining: int, cap: int, stack: list):
    if remaining == 0:
        yield len(stack)
        return
    for part in range(min(cap, remaining), 0, -1):
        stack.append(part)
        yield from _partitions(remaining - part, part, stack)
        stack.pop()


def partition_loop() -> int:
    return sum(math.comb(3 * k + 1, k) for k in _partitions(12, 12, []))


# Each loop with its median time inside benchmark passes on the reference
# machine (2-vCPU Xeon KVM guest, CPython 3.11): one reference second is
# a second in which the loops run at these speeds.
LOOPS = ((arithmetic_loop, 0.00023), (partition_loop, 0.00027))


class SpeedSampler:
    """Machine-speed samples, summed per phase of the pass."""

    def __init__(self):
        self.taken = 0
        self.speed_sum = 0.0
        self.samples = 0
        self.busy_s = 0.0

    def _sample(self, _signum, _frame):
        loop, reference_s = LOOPS[self.taken % len(LOOPS)]
        self.taken += 1
        start = time.perf_counter()
        loop()
        took = time.perf_counter() - start
        self.speed_sum += reference_s / took
        self.samples += 1
        self.busy_s += took

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def phase(self) -> dict:
        """The samples since the last call, and a fresh start."""
        out = {"speed_sum": self.speed_sum, "samples": self.samples, "sampling_s": self.busy_s}
        self.speed_sum, self.samples, self.busy_s = 0.0, 0, 0.0
        return out


SAMPLER = SpeedSampler()
SAMPLER.start()

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None when unknown."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import delcap.cli

    imported_at = time.monotonic()
    setup_speed = SAMPLER.phase()
    if os.path.dirname(os.path.dirname(os.path.abspath(delcap.cli.__file__))) != os.path.abspath(src):
        print(f"error: delcap imported from {delcap.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ops = []
    for index, argv in enumerate(spec["ops"]):
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if tracer is None:
                    rc = delcap.cli.main(argv)
                else:
                    tracer.op = index
                    rc = tracer.call("main", "cli", delcap.cli.main, (argv,), {})
        except Exception:
            traceback.print_exc()
            rc = -1
        wall = time.perf_counter() - start
        ops.append({"rc": rc, "stdout": out.getvalue(), "wall_s": wall, "speed": SAMPLER.phase()})
    SAMPLER.stop()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "imported_at": imported_at,
        "setup_speed": setup_speed,
        "peak_rss_mb": peak_kib / 1024.0,
        "blas_threads": blas_threads(),
        "ops": ops,
        "spans": tracer.spans if tracer is not None else [],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
