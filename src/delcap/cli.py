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
import functools
import math
import os
import sys
import warnings
from typing import Optional

from .baa import baa_capacity
from .bitseq import BinarySequence, CapExceededError, numeral_text
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
from .dupsum import DupApproach
from .mdm import (
    duplication_ratios,
    flip_sequence,
    is_alternating,
    mdm_table,
    ratio_minimizer,
    stirling_lower_bound,
)
from .patcount import count_deletion_patterns, count_deletion_patterns_oracle

_DUP_TOKEN_TO_APPROACH = {
    "dup-last": DupApproach.ASSIGN_TO_LAST,
    "dup-length": DupApproach.ASSIGN_BY_LENGTH,
    "dup-gamma": DupApproach.GAMMA,
}

_BDC_KIND_TOKENS = ("raw", "adjusted", *_DUP_TOKEN_TO_APPROACH, "explicit", "trivial", "golden")

# d prints with six decimals and lies in (0, 1): more points only repeat labels
GRID_MAX_POINTS = 10**6


def _parse_grid(text: str) -> list[float]:
    """start:stop:step, inclusive of both ends up to grid granularity."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not (start < stop and step > 0.0):
        raise ValueError("grid needs start < stop and step > 0")
    points = (stop - start) / step
    if not all(map(math.isfinite, (start, stop, step, points))):
        raise ValueError(f"grid needs a finite start, stop, step and point count, got {text!r}")
    count = int(math.floor(points + 1e-9)) + 1
    if count > GRID_MAX_POINTS:
        raise CapExceededError(f"grid of {points + 1:.6g} points exceeds {GRID_MAX_POINTS}")
    return [start + i * step for i in range(count)]


def _open_out(path: str):
    return open(path, "w", encoding="ascii", newline="")


def _write_csv(path: str, header: list, rows) -> None:
    with _open_out(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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


def cmd_mdm_table(args) -> int:
    table = mdm_table(
        args.n,
        args.m,
        approach=DupApproach(args.approach),
        threads=args.threads,
        checkpoint_path=args.checkpoint,
    )
    columns = zip(table.x_star, table.max_count, table.x_dup, table.dup_count)
    _write_csv(
        args.output,
        ["y", "x_star", "max_count", "x_dup", "dup_count", "ratio"],
        (
            [
                numeral_text(v, table.m),
                numeral_text(x, table.n),
                str(top),
                "" if x_dup is None else numeral_text(x_dup, table.n),
                f"{dup:.6f}" if isinstance(dup, float) else str(dup),
                f"{dup / top:.5f}",
            ]
            for v, (x, top, x_dup, dup) in enumerate(columns)
        ),
    )
    return 0


def _bdc_point(token: str, d: float, args, cache: dict):
    """(kind label, n column, value) for one bdc bound row; `cmd_bounds`
    has checked the token."""
    if token in ("raw", "adjusted") or token in _DUP_TOKEN_TO_APPROACH:
        if args.n is None:
            raise ValueError(f"--n is required for the {token} kind")
        # these depend on d only through m: one evaluation per (kind, m),
        # keyed None for the search that raw and adjusted share
        approach = _DUP_TOKEN_TO_APPROACH.get(token)
        key = (approach, typical_output_length(args.n, d))
        if key not in cache:
            cache[key] = (
                bdc_ml_bound_n(args.n, d, threads=args.threads)
                if approach is None
                else bdc_dup_bound_n(args.n, d, approach)
            )
        if approach is not None:
            return "bdc_dup_" + approach.value.replace("-", "_"), args.n, cache[key]
        raw, adjusted = cache[key]
        return f"bdc_ml_{token}", args.n, raw if token == "raw" else adjusted
    if token == "explicit":
        return "explicit_approx", 0, explicit_approx(d)
    if token == "trivial":
        return "trivial_one_minus_d", 0, 1.0 - d
    return "reference_golden", 0, reference_golden_bound(d)


def cmd_bounds(args) -> int:
    grid = _parse_grid(args.d_grid)
    # the script names the path by the bytes the file system gets, in a
    # gnuplot single-quoted string ('' for a quote, no other escape): a
    # control byte would end its command, so it fails before any work
    raw = os.fsencode(args.output).decode("latin-1")
    if args.gnuplot and any(c < " " or c == "\x7f" for c in raw):
        raise ValueError(f"--gnuplot cannot name a path with a control character: {args.output!r}")
    closed = {"bec": bec_bound, "bsc": bsc_bound}.get(args.channel)
    if closed:
        label = f"{args.channel}_closed"
        rows = [(f"{d:.6f}", label, "0", f"{closed(d):.6f}") for d in grid]
    else:
        rows = []
        kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
        for kind in kinds:
            if kind not in _BDC_KIND_TOKENS:
                raise ValueError(
                    f"unknown bound kind {kind!r}; pick from {', '.join(_BDC_KIND_TOKENS)}"
                )
        cache: dict = {}
        for d in grid:
            for kind in kinds:
                try:
                    # caveats (explicit below d = 1/2) get one line per point
                    with warnings.catch_warnings(record=True) as caveats:
                        warnings.simplefilter("always")
                        label, n_col, value = _bdc_point(kind, d, args, cache)
                except DegenerateOutputError as exc:
                    print(f"warning: skipping d={d:.6f} {kind}: {exc}", file=sys.stderr)
                    continue
                for caveat in caveats:
                    print(f"warning: d={d:.6f} {kind}: {caveat.message}", file=sys.stderr)
                rows.append((f"{d:.6f}", label, str(n_col), f"{value:.6f}"))
    _write_csv(args.output, ["d", "kind", "n", "value"], rows)
    if args.gnuplot:
        labels = dict.fromkeys(label for _, label, _, _ in rows)
        quoted = raw.replace("'", "''")
        script = [
            f"# plot script for {raw}",
            "set datafile separator ','",
            "set xlabel 'd'",
            "set ylabel 'bits per symbol'",
            "set key outside",
            "plot \\",
        ]
        plot_parts = [
            f"  '{quoted}' using 1:(strcol(2) eq '{label}' ? column(4) : NaN) "
            f"with lines title '{label}'"
            for label in labels
        ]
        script.append(", \\\n".join(plot_parts))
        # latin-1 writes each byte of the path back as it is
        with open(args.output + ".gp", "w", encoding="latin-1", newline="") as fh:
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
        _write_csv(
            args.history,
            ["iteration", "mutual_info_bits"],
            ([str(i), f"{value:.12g}"] for i, value in enumerate(report.history, start=1)),
        )
    return 0


def cmd_hypotheses(args) -> int:
    n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    rows = []
    for n in n_list:
        ratios = duplication_ratios(n, args.factor)
        y_min, ratio = ratio_minimizer(ratios, n // args.factor)
        gamma = float(ratio)
        # exact comparison: the flip ratio, 0101... being its own class rep,
        # can tie the minimum even when a smaller-numeral minimizer is reported
        attains = ratios[flip_sequence(len(y_min)).bits] == ratio
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
    _write_csv(
        args.output,
        [
            "n",
            "F",
            "y_min",
            "gamma",
            "log2_gamma_per_n",
            "minimizer_is_alternating",
            "alternating_attains_min",
            "stirling_lower_bound",
        ],
        rows,
    )
    return 0


# the subcommands in help order
_COMMANDS = ("count", "mdm-table", "bounds", "baa", "hypotheses")


@functools.cache
def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The `delcap` parser with every subcommand or with `command`'s alone,
    built once per process.  The latter still lists them all in its usage
    line; the full tree leaves that metavar unset, since argparse would
    also name the subcommand argument by it in its errors.
    """
    parser = argparse.ArgumentParser(
        prog="delcap",
        description="Maximum-likelihood capacity bounds for deletion-type channels.",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    if command in (None, "count"):
        p_count = sub.add_parser("count", help="count deletion patterns #(x, y)")
        p_count.add_argument("x", help="input sequence, e.g. 00101011")
        p_count.add_argument("y", help="output sequence, e.g. 0101")
        p_count.add_argument(
            "--verify", action="store_true", help="also run the brute-force oracle"
        )
        p_count.set_defaults(func=cmd_count)

    if command in (None, "mdm-table"):
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

    if command in (None, "bounds"):
        p_bounds = sub.add_parser("bounds", help="bound curves over a d-grid as CSV")
        p_bounds.add_argument("--channel", choices=["bec", "bsc", "bdc"], required=True)
        p_bounds.add_argument("--n", type=int, default=None, help="block length for ML/dup kinds")
        p_bounds.add_argument("--d-grid", required=True, help="start:stop:step, e.g. 0.1:0.9:0.1")
        p_bounds.add_argument(
            "--kinds",
            default="raw,adjusted",
            help=f"comma list for bdc: {','.join(_BDC_KIND_TOKENS)}",
        )
        p_bounds.add_argument("--threads", type=int, default=1)
        p_bounds.add_argument("--gnuplot", action="store_true", help="also write <output>.gp")
        p_bounds.add_argument("--output", required=True, help="CSV path")
        p_bounds.set_defaults(func=cmd_bounds)

    if command in (None, "baa"):
        p_baa = sub.add_parser("baa", help="alternating-maximization capacity baseline")
        p_baa.add_argument("--n", type=int, required=True)
        p_baa.add_argument("--d", type=float, required=True)
        p_baa.add_argument("--tol", type=float, default=1e-10)
        p_baa.add_argument("--max-iter", type=int, default=20000)
        p_baa.add_argument("--history", default=None, help="optional per-iteration CSV")
        p_baa.set_defaults(func=cmd_baa)

    if command in (None, "hypotheses"):
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
        # argv led by a subcommand needs only its parser; anything else, the
        # full tree, which lists the choices in its errors
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        args = build_parser(command).parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: usage errors and --help
        return exc.code if isinstance(exc.code, int) else 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CapExceededError):
            return 3
        return 2 if isinstance(exc, ValueError) else 4


if __name__ == "__main__":
    sys.exit(main())
