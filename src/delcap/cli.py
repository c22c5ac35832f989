"""Command-line front end.

Subcommands: count (one pattern count), mdm-table (exhaustive table as CSV),
bounds (bound curves over a d-grid as CSV), baa (alternating-maximization
baseline report), hypotheses (minimal duplication ratio trend).

All CSV output is byte-deterministic for a fixed invocation: fixed row
order, ratios as %.5f, bound values as %.6f, LF line endings.  Exit codes:
0 success, 2 usage error, 3 cap exceeded, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from .baa import baa_capacity
from .bitseq import BinarySequence, CapExceededError
from .bounds import (
    DegenerateOutputError,
    bdc_dup_bound_n,
    bdc_ml_bound_n,
    bec_bound,
    bsc_bound,
    explicit_approx,
    reference_golden_bound,
    typical_output_length,
)
from .mdm import (
    DupApproach,
    duplication_ratio,
    flip_sequence,
    is_alternating,
    mdm_table,
    min_duplication_ratio,
    stirling_lower_bound,
)
from .patcount import count_deletion_patterns, count_deletion_patterns_oracle

_BDC_KIND_TOKENS = (
    "raw",
    "adjusted",
    "dup-last",
    "dup-length",
    "dup-gamma",
    "explicit",
    "trivial",
    "golden",
)

_DUP_TOKEN_TO_APPROACH = {
    "dup-last": DupApproach.ASSIGN_TO_LAST,
    "dup-length": DupApproach.ASSIGN_BY_LENGTH,
    "dup-gamma": DupApproach.GAMMA,
}


def _parse_grid(text: str) -> list[float]:
    """start:stop:step, inclusive of both ends up to grid granularity."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not (start < stop and step > 0.0):
        raise ValueError("grid needs start < stop and step > 0")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def _open_out(path: str):
    return open(path, "w", encoding="ascii", newline="")


def cmd_count(args) -> int:
    x = BinarySequence.from_string(args.x)
    y = BinarySequence.from_string(args.y)
    value = count_deletion_patterns(x, y)
    print(value)
    if args.verify:
        check = count_deletion_patterns_oracle(x, y)
        print(f"oracle {check}")
        if check != value:
            print("error: oracle disagrees with the dynamic program", file=sys.stderr)
            return 1
    return 0


def _format_dup(dup) -> str:
    if isinstance(dup, float):
        return f"{dup:.6f}"
    return str(dup)


def cmd_mdm_table(args) -> int:
    table = mdm_table(
        args.n,
        args.m,
        approach=DupApproach(args.approach),
        threads=args.threads,
        checkpoint_path=args.checkpoint,
    )
    with _open_out(args.output) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["y", "x_star", "max_count", "x_dup", "dup_count", "ratio"])
        for row in table.rows:
            writer.writerow(
                [
                    row.y.to_string(),
                    row.x_star.to_string(),
                    str(row.max_count),
                    "" if row.x_dup is None else row.x_dup.to_string(),
                    _format_dup(row.dup_count),
                    f"{row.ratio:.5f}",
                ]
            )
    return 0


def _bdc_point(token: str, d: float, args, ml_cache: dict):
    """(kind label, n column, value) for one bdc bound row."""
    if token in ("raw", "adjusted"):
        if args.n is None:
            raise ValueError("--n is required for raw/adjusted kinds")
        # both values depend on d only through m, so a search per distinct m
        m = typical_output_length(args.n, d)
        if m not in ml_cache:
            ml_cache[m] = bdc_ml_bound_n(args.n, d, threads=args.threads)
        raw, adjusted = ml_cache[m]
        if token == "raw":
            return "bdc_ml_raw", args.n, raw
        return "bdc_ml_adjusted", args.n, adjusted
    if token in _DUP_TOKEN_TO_APPROACH:
        if args.n is None:
            raise ValueError("--n is required for dup kinds")
        approach = _DUP_TOKEN_TO_APPROACH[token]
        value = bdc_dup_bound_n(args.n, d, approach)
        label = "bdc_dup_" + approach.value.replace("-", "_")
        return label, args.n, value
    if token == "explicit":
        return "explicit_approx", 0, explicit_approx(d)
    if token == "trivial":
        return "trivial_one_minus_d", 0, 1.0 - d
    if token == "golden":
        return "reference_golden", 0, reference_golden_bound(d)
    raise ValueError(f"unknown bound kind {token!r}")


def cmd_bounds(args) -> int:
    grid = _parse_grid(args.d_grid)
    rows = []
    if args.channel == "bec":
        for d in grid:
            rows.append((f"{d:.6f}", "bec_closed", "0", f"{bec_bound(d):.6f}"))
    elif args.channel == "bsc":
        for d in grid:
            rows.append((f"{d:.6f}", "bsc_closed", "0", f"{bsc_bound(d):.6f}"))
    else:
        kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
        for kind in kinds:
            if kind not in _BDC_KIND_TOKENS:
                raise ValueError(
                    f"unknown bound kind {kind!r}; pick from {', '.join(_BDC_KIND_TOKENS)}"
                )
        ml_cache: dict = {}
        for d in grid:
            for kind in kinds:
                try:
                    label, n_col, value = _bdc_point(kind, d, args, ml_cache)
                except DegenerateOutputError as exc:
                    print(f"warning: skipping d={d:.6f} {kind}: {exc}", file=sys.stderr)
                    continue
                rows.append((f"{d:.6f}", label, str(n_col), f"{value:.6f}"))
    with _open_out(args.output) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["d", "kind", "n", "value"])
        writer.writerows(rows)
    if args.gnuplot:
        labels = []
        for _, label, _, _ in rows:
            if label not in labels:
                labels.append(label)
        script = [
            f"# plot script for {args.output}",
            "set datafile separator ','",
            "set xlabel 'd'",
            "set ylabel 'bits per symbol'",
            "set key outside",
            "plot \\",
        ]
        plot_parts = [
            f"  '{args.output}' using 1:(strcol(2) eq '{label}' ? column(4) : NaN) "
            f"with lines title '{label}'"
            for label in labels
        ]
        script.append(", \\\n".join(plot_parts))
        with _open_out(args.output + ".gp") as fh:
            fh.write("\n".join(script) + "\n")
    return 0


def cmd_baa(args) -> int:
    report = baa_capacity(args.n, args.d, tol=args.tol, max_iter=args.max_iter)
    print(f"n={report.n} d={report.d:.6f}")
    print(f"capacity_proxy={report.capacity_proxy:.5f}")
    print(f"iterations={report.iterations}")
    print(f"converged={'yes' if report.converged else 'no'}")
    print(f"kkt_residual={report.kkt_residual:.3e}")
    lower, upper = report.sandwich
    print(f"sandwich_lower={lower:.6f}")
    print(f"sandwich_upper={upper:.6f}")
    if args.history:
        with _open_out(args.history) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["iteration", "mutual_info_bits"])
            for i, value in enumerate(report.history, start=1):
                writer.writerow([str(i), f"{value:.12g}"])
    return 0


def cmd_hypotheses(args) -> int:
    n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    rows = []
    for n in n_list:
        if n % args.factor:
            raise ValueError(f"factor {args.factor} does not divide n = {n}")
        y_min, gamma = min_duplication_ratio(n, args.factor)
        m = n // args.factor
        # exact comparison: the flip ratio can tie the minimum even when a
        # smaller-numeral minimizer is reported
        flip_gamma = duplication_ratio(flip_sequence(m), n)
        attains = flip_gamma == duplication_ratio(y_min, n)
        rows.append(
            (
                str(n),
                str(args.factor),
                y_min.to_string(),
                f"{gamma:.5f}",
                f"{math.log2(gamma) / n:.6f}",
                "true" if is_alternating(y_min) else "false",
                "true" if attains else "false",
                f"{stirling_lower_bound(n, args.factor):.5f}",
            )
        )
    with _open_out(args.output) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "n",
                "F",
                "y_min",
                "gamma",
                "log2_gamma_per_n",
                "minimizer_is_alternating",
                "alternating_attains_min",
                "stirling_lower_bound",
            ]
        )
        writer.writerows(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delcap",
        description="Maximum-likelihood capacity bounds for deletion-type channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count deletion patterns #(x, y)")
    p_count.add_argument("x", help="input sequence, e.g. 00101011")
    p_count.add_argument("y", help="output sequence, e.g. 0101")
    p_count.add_argument(
        "--verify", action="store_true", help="also run the brute-force oracle"
    )
    p_count.set_defaults(func=cmd_count)

    p_table = sub.add_parser("mdm-table", help="exhaustive max-count table as CSV")
    p_table.add_argument("--n", type=int, required=True, help="input length")
    p_table.add_argument("--m", type=int, required=True, help="output length")
    p_table.add_argument(
        "--approach",
        choices=[a.value for a in DupApproach],
        default=DupApproach.ASSIGN_TO_LAST.value,
        help="duplication estimate when m does not divide n",
    )
    p_table.add_argument("--threads", type=int, default=1)
    p_table.add_argument("--checkpoint", default=None, help="resumable progress file")
    p_table.add_argument("--output", required=True, help="CSV path")
    p_table.set_defaults(func=cmd_mdm_table)

    p_bounds = sub.add_parser("bounds", help="bound curves over a d-grid as CSV")
    p_bounds.add_argument("--channel", choices=["bec", "bsc", "bdc"], required=True)
    p_bounds.add_argument("--n", type=int, default=None, help="block length for ML/dup kinds")
    p_bounds.add_argument(
        "--d-grid", required=True, help="start:stop:step, e.g. 0.1:0.9:0.1"
    )
    p_bounds.add_argument(
        "--kinds",
        default="raw,adjusted",
        help=f"comma list for bdc: {','.join(_BDC_KIND_TOKENS)}",
    )
    p_bounds.add_argument("--threads", type=int, default=1)
    p_bounds.add_argument(
        "--gnuplot", action="store_true", help="also write <output>.gp"
    )
    p_bounds.add_argument("--output", required=True, help="CSV path")
    p_bounds.set_defaults(func=cmd_bounds)

    p_baa = sub.add_parser("baa", help="alternating-maximization capacity baseline")
    p_baa.add_argument("--n", type=int, required=True)
    p_baa.add_argument("--d", type=float, required=True)
    p_baa.add_argument("--tol", type=float, default=1e-10)
    p_baa.add_argument("--max-iter", type=int, default=20000)
    p_baa.add_argument("--history", default=None, help="optional per-iteration CSV")
    p_baa.set_defaults(func=cmd_baa)

    p_hyp = sub.add_parser(
        "hypotheses", help="minimal duplication ratio per n, with trend columns"
    )
    p_hyp.add_argument("--n-list", required=True, help="comma list, e.g. 8,10,12,14")
    p_hyp.add_argument("--factor", type=int, required=True, help="repeat factor F")
    p_hyp.add_argument("--output", required=True, help="CSV path")
    p_hyp.set_defaults(func=cmd_hypotheses)

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Splice `key=value` lines from --config in ahead of explicit flags.

    Explicit flags win because they come later on the assembled command line.
    Boolean keys take the value true to mean the bare flag.
    """
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        raise ValueError("--config needs a file path")
    path = argv[at + 1]
    rest = argv[:at] + argv[at + 2 :]
    options: list[str] = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise ValueError(f"malformed config line {line!r}")
            if value.lower() == "true":
                options.append(f"--{key}")
            elif value.lower() == "false":
                continue
            else:
                options.extend([f"--{key}", value])
    if not rest:
        return options
    # config options go right after the subcommand token
    return rest[:1] + options + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
