"""Span tracer for the traced benchmark passes.

The tracer lives in the benchmark, not in the package: `install` replaces
each layer's public functions at the name the calling module binds them to
(for example `delcap.mdm.counts_for_all_inputs`, which is what the class
sweep looks up) with a wrapper that records one span per call.  A span is
`[name, layer, start, end, parent, op, attrs]`: perf_counter seconds,
the index of the enclosing span (-1 at top level), the index of the CLI
invocation it belongs to, and a small dict of sizes read from the call's
arguments or result.  Spans stay in memory; the caller writes them out.

`layer_metrics` turns one pass's spans into the per-layer metrics.  A
span's self time is its duration minus the part its child spans cover;
calls are single-threaded and nested, so that part is the sum of the
children's durations.
"""

from __future__ import annotations

import functools
import inspect
import time

MIB = float(1 << 20)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    def call(self, name, layer, fn, args, kwargs, attrs_fn=None):
        index = len(self.spans)
        record = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self.spans.append(record)
        self._stack.append(index)
        record[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()
        if attrs_fn is not None:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            record[6] = attrs_fn(bound.arguments, result)
        return result

    def wrap(self, owner, attr, name, layer, attrs_fn=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs, attrs_fn)

        setattr(owner, attr, traced)

    def wrap_classmethod(self, cls, attr, name, layer):
        fn = cls.__dict__[attr].__func__

        @functools.wraps(fn)
        def traced(klass, *args, **kwargs):
            return self.call(name, layer, fn, (klass,) + args, kwargs)

        setattr(cls, attr, classmethod(traced))


def _kernel_attrs(a, _result):
    n, m = a["n"], len(a["y"])
    lanes = (1 << n) * sum(min(j + 1, m) for j in range(n))
    return {"n": n, "m": m, "lane_updates": lanes, "state_bytes": (m + 1) * (1 << n) * 8}


def _sweep_attrs(a, _result):
    return {"n": a["n"], "m": a["m"], "outputs": 1 << a["m"]}


def _dup_attrs(a, _result):
    return {"n": a["n"], "approach": a["approach"].value}


def _build_attrs(a, _result):
    n = a["n"]
    return {"n": n, "matrix_bytes": (1 << n) * ((1 << (n + 1)) - 1) * 8}


def _capacity_attrs(_a, report):
    return {"iterations": report.iterations, "kkt_residual": report.kkt_residual}


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the six layers in this process."""
    import delcap.baa
    import delcap.bounds
    import delcap.cli
    import delcap.mdm
    from delcap.bitseq import BinarySequence

    for module in (delcap.mdm, delcap.baa):
        tracer.wrap(module, "counts_for_all_inputs", "kernel", "patcount", _kernel_attrs)
    tracer.wrap(delcap.mdm, "count_deletion_patterns", "scalar", "patcount")
    tracer.wrap(delcap.mdm, "canonical_form", "canonical_form", "bitseq")
    tracer.wrap_classmethod(BinarySequence, "from_numeral", "from_numeral", "bitseq")
    tracer.wrap(delcap.bounds, "sum_max_counts", "sweep", "mdm", _sweep_attrs)
    tracer.wrap(delcap.cli, "mdm_table", "sweep", "mdm", _sweep_attrs)
    tracer.wrap(delcap.mdm, "_solve_class", "class", "mdm")
    tracer.wrap(delcap.mdm, "_class_max", "class", "mdm")
    tracer.wrap(delcap.cli, "bdc_ml_bound_n", "ml", "bounds")
    tracer.wrap(delcap.cli, "bdc_dup_bound_n", "dup", "bounds", _dup_attrs)
    tracer.wrap(delcap.cli, "baa_capacity", "capacity", "baa", _capacity_attrs)
    tracer.wrap(delcap.baa, "build_channel_matrix", "build", "baa", _build_attrs)
    tracer.wrap(delcap.baa, "kkt_residual", "kkt", "baa")


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, _, start, end, _, _, _ in spans]
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list, checkpoint_bytes: int, cli_bytes: int) -> dict:
    """Per-layer metrics of one traced pass, by metric name."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    lanes = state = iterations = 0
    matrix = kkt = 0.0
    dup_s = {"assign-to-last": 0.0, "assign-by-length": 0.0, "gamma": 0.0}
    outputs = 0
    for (name, layer, start, end, _, _, attrs), mine in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + mine
        if name == "kernel":
            lanes += attrs["lane_updates"]
            state = max(state, attrs["state_bytes"])
        elif name == "sweep":
            outputs += attrs["outputs"]
        elif name == "dup":
            dup_s[attrs["approach"]] += end - start
        elif name == "build":
            matrix = max(matrix, attrs["matrix_bytes"])
        elif name == "capacity":
            iterations += attrs["iterations"]
            kkt = max(kkt, attrs["kkt_residual"])
    kernel_s = total.get("kernel", 0.0)
    in_iterations = total.get("capacity", 0.0) - total.get("build", 0.0) - total.get("kkt", 0.0)
    return {
        "patcount.kernel_calls": calls.get("kernel", 0),
        "patcount.kernel_s": kernel_s,
        "patcount.lane_updates": lanes,
        "patcount.lane_updates_per_s": lanes / kernel_s if kernel_s > 0.0 else 0.0,
        "patcount.state_peak_mb": state / MIB,
        "patcount.scalar_calls": calls.get("scalar", 0),
        "patcount.scalar_s": total.get("scalar", 0.0),
        "bitseq.canonical_calls": calls.get("canonical_form", 0),
        "bitseq.canonical_s": total.get("canonical_form", 0.0),
        "bitseq.from_numeral_calls": calls.get("from_numeral", 0),
        "bitseq.from_numeral_s": total.get("from_numeral", 0.0),
        "mdm.classes_solved": calls.get("class", 0),
        "mdm.outputs": outputs,
        "mdm.sweep_s": total.get("sweep", 0.0),
        "mdm.self_s": self_by_layer.get("mdm", 0.0),
        "mdm.checkpoint_bytes": checkpoint_bytes,
        "bounds.ml_s": total.get("ml", 0.0),
        "bounds.dup_calls": calls.get("dup", 0),
        "bounds.dup_last_s": dup_s["assign-to-last"],
        "bounds.dup_length_s": dup_s["assign-by-length"],
        "bounds.dup_gamma_s": dup_s["gamma"],
        "baa.build_s": total.get("build", 0.0),
        "baa.matrix_mb": matrix / MIB,
        "baa.iterations": iterations,
        "baa.iter_ms": 1e3 * in_iterations / iterations if iterations else 0.0,
        "baa.kkt_s": total.get("kkt", 0.0),
        "baa.kkt_residual": kkt,
        "cli.self_s": self_by_layer.get("cli", 0.0),
        "cli.bytes_written": cli_bytes,
    }
