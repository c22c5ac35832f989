"""Maximum deletion matching: exhaustive search and duplication estimates.

For a fixed output y and input length n, the search finds
max over x in {0,1}^n of #(x, y) by sweeping the whole input space with the
split pattern-count kernel, one chunk of symmetry classes per table batch.
The duplication estimate replaces the true maximizer with the candidate
that repeats every bit of y the same number of times; its count has the
closed product form prod_l C(l*F, l)^(R_l) over the run-length profile of
y.  The ratio of the two is at most 1 because the duplication candidate is
feasible.

When len(y) does not divide n the repeat factor is fractional and three
estimates are offered: hand the leftover bits to the trailing runs, hand
them to the longest runs, or drop the integrality requirement altogether by
moving to Gamma functions.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .bitseq import (
    MAX_LEN,
    BinarySequence,
    CapExceededError,
    canonical_form,
    complement,
    reverse,
    run_length_profile,
    runs,
)
from .patcount import VECTOR_MAX_N, count_deletion_patterns, split_batch, split_counts
from .patcount import counts_for_all_inputs  # noqa: F401  (the benchmark tracer wraps this name)

# Exhaustive search sweeps 2^n inputs per output class.
SEARCH_MAX_N = VECTOR_MAX_N


class DupApproach(str, Enum):
    """How to place the leftover bits when len(y) does not divide n."""

    ASSIGN_TO_LAST = "assign-to-last"
    ASSIGN_BY_LENGTH = "assign-by-length"
    GAMMA = "gamma"


@dataclass(frozen=True)
class MdmResult:
    """One solved output: certified maximizer plus the duplication estimate.

    x_dup is None and dup_count is a float when the Gamma estimate was used;
    otherwise dup_count is the exact pattern count of the concrete candidate
    x_dup.
    """

    y: BinarySequence
    n: int
    x_star: BinarySequence
    max_count: int
    x_dup: Optional[BinarySequence]
    dup_count: Union[int, float]
    ratio: float


@dataclass(frozen=True)
class MdmTable:
    """All outputs of one (n, m) sweep, in ascending numeral order of y."""

    n: int
    m: int
    rows: list


def dup_count_formula(y: BinarySequence, F: int) -> int:
    """prod_l C(l*F, l)^(R_l) over the run-length profile of y.

    Equals #(x_dup, y) for the candidate that repeats each bit F times.
    """
    if F < 1:
        raise ValueError(f"repeat factor must be >= 1, got {F}")
    profile = run_length_profile(y)
    out = 1
    for l, r in profile.counts.items():
        out *= math.comb(l * F, l) ** r
    return out


def build_dup_sequence(y: BinarySequence, F: int) -> BinarySequence:
    """Each bit of y repeated F times, in order."""
    if F < 1:
        raise ValueError(f"repeat factor must be >= 1, got {F}")
    if F * len(y) > MAX_LEN:
        raise CapExceededError(f"duplicated length {F * len(y)} exceeds {MAX_LEN}")
    text = "".join(str(b) * F for b in y)
    return BinarySequence.from_string(text)


def approximate_dup_sequence(
    y: BinarySequence, n: int, approach: DupApproach
) -> Union[BinarySequence, float]:
    """Duplication candidate for a fractional repeat factor F = n / len(y).

    The two assignment approaches first repeat every bit floor(F) times and
    then hand the n - m*floor(F) leftover bits to whole runs, at most l extra
    bits to an l-run (so each run absorbs at most one extra copy per original
    bit).  ASSIGN_TO_LAST walks the runs from the last one backwards;
    ASSIGN_BY_LENGTH walks them longest first, ties broken by earlier
    position.  Both return a concrete length-n sequence.

    GAMMA instead returns the real-valued product with each binomial
    C(l*F, l) generalized to Gamma(l*F+1) / (Gamma(l+1) * Gamma(l*F-l+1)).
    """
    m = len(y)
    if m == 0:
        raise ValueError("cannot stretch an empty sequence")
    if m > n:
        raise ValueError(f"output longer than input ({m} > {n})")
    if n > MAX_LEN:
        raise CapExceededError(f"input length {n} exceeds {MAX_LEN}")
    if approach is DupApproach.GAMMA:
        F = n / m
        log_est = 0.0
        for l, r in run_length_profile(y).counts.items():
            log_est += r * (
                math.lgamma(l * F + 1)
                - math.lgamma(l + 1)
                - math.lgamma(l * F - l + 1)
            )
        return math.exp(log_est)
    base, extra = divmod(n, m)
    run_list = runs(y)
    if approach is DupApproach.ASSIGN_TO_LAST:
        order = range(len(run_list) - 1, -1, -1)
    else:
        order = sorted(range(len(run_list)), key=lambda j: (-run_list[j][1], j))
    bonus = [0] * len(run_list)
    left = extra
    for j in order:
        if left == 0:
            break
        take = min(left, run_list[j][1])
        bonus[j] = take
        left -= take
    # extra < m = sum of run lengths, so the leftover always fits
    text = "".join(str(v) * (l * base + bonus[j]) for j, (v, l) in enumerate(run_list))
    return BinarySequence.from_string(text)


def _dup_estimate(
    y: BinarySequence, n: int, approach: DupApproach
) -> tuple[Optional[BinarySequence], Union[int, float]]:
    """Duplication candidate and its count for integer or fractional factor."""
    m = len(y)
    if m == 0:
        # only the all-deleting pattern; the candidate slot still needs length n
        return BinarySequence(0, n), 1
    if n % m == 0:
        F = n // m
        return build_dup_sequence(y, F), dup_count_formula(y, F)
    if approach is DupApproach.GAMMA:
        return None, approximate_dup_sequence(y, n, approach)
    x = approximate_dup_sequence(y, n, approach)
    return x, count_deletion_patterns(x, y)


def _bit_reverse(values: np.ndarray, n: int) -> np.ndarray:
    v = np.asarray(values, dtype=np.int64)
    out = np.zeros_like(v)
    for b in range(n):
        out = (out << 1) | ((v >> b) & 1)
    return out


def _orbit_members(y: BinarySequence) -> list[tuple[str, BinarySequence]]:
    """Distinct members of {y, ~y, rev y, ~rev y} tagged by transform."""
    out: list[tuple[str, BinarySequence]] = []
    seen = set()
    for tag, member in (
        ("i", y),
        ("c", complement(y)),
        ("r", reverse(y)),
        ("cr", complement(reverse(y))),
    ):
        if member.bits not in seen:
            seen.add(member.bits)
            out.append((tag, member))
    return out


def _classes(m: int, fold: bool) -> dict[str, list[str]]:
    """Classes of {0,1}^m: rep text -> member texts, both in numeral order.

    With fold a class is a symmetry orbit under complement and reversal
    (pattern counts are the same on all of it) and its rep is the canonical
    form, the orbit's first member; without fold every y is its own class.
    """
    classes: dict[str, list[str]] = {}
    for v in range(1 << m):
        y = BinarySequence.from_numeral(v, m)
        rep = canonical_form(y) if fold else y
        classes.setdefault(rep.to_string(), []).append(y.to_string())
    return classes


def _map_classes(reps: list, n: int, threads: int, ties: bool = False):
    """Iterator over `_solve_class` results per rep, in order.

    The reps, all of one length, go in chunks of at most one table batch
    (`split_batch`), and to up to `threads` processes at least one chunk
    each.  `_solve_class` is looked up at call time, so a wrapper installed
    on the module (a tracer, say) is what runs.
    """
    if threads < 1:
        raise ValueError("thread count must be >= 1")
    if not reps:
        return iter(())
    size = min(split_batch(n, len(reps[0])), -(-len(reps) // threads))
    chunks = [reps[i : i + size] for i in range(0, len(reps), size)]
    if threads == 1 or len(chunks) < 2:
        return itertools.chain.from_iterable(_solve_class(c, n, ties) for c in chunks)

    def pooled():
        # imported here: multiprocessing is heavy and only pooled runs need it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            for solved in pool.map(_solve_class, chunks, [n] * len(chunks), [ties] * len(chunks)):
                yield from solved

    return pooled()


def _solve_class(reps: list, n: int, ties: bool = False) -> list[tuple[str, int, dict]]:
    """Solve a chunk of symmetry classes of one output length: one
    (rep, max_count, stars) per rep text, in order.

    The chunk's split tables are built once; each class's counts arrive in
    blocks that are reduced to the running maximum.  With ties the blocks
    also keep the four extremes of the argmax set, the smallest and largest
    numeral plain and bit-reversed, and stars maps every orbit member to
    its numeral-smallest maximizer: the maximizer set of a complemented or
    reversed output is the complemented or reversed set.  Without ties
    stars is empty.
    """
    ys = [BinarySequence.from_string(rep) for rep in reps]
    best = [-1] * len(ys)
    # per class, as minima: smallest numeral, minus the largest, and the
    # same two for the bit-reversed numerals
    ends: list = [None] * len(ys)
    for first, x0, block in split_counts(ys, n):
        for c, row in enumerate(block, first):
            top = int(row.max())
            if top < best[c]:
                continue
            if ties:
                arg = np.flatnonzero(row == top) + x0
                rev = _bit_reverse(arg, n)
                found = (int(arg[0]), -int(arg[-1]), int(rev.min()), -int(rev.max()))
                ends[c] = tuple(map(min, ends[c], found)) if top == best[c] else found
            best[c] = top
    full = (1 << n) - 1
    out = []
    for y, rep, top, found in zip(ys, reps, best, ends):
        stars: dict[str, str] = {}
        if ties:
            low, minus_high, rev_low, minus_rev_high = found
            # complement maps numeral v to full - v, reversing the order
            pick = {"i": low, "c": full + minus_high, "r": rev_low, "cr": full + minus_rev_high}
            for tag, member in _orbit_members(y):
                stars[member.to_string()] = BinarySequence.from_numeral(pick[tag], n).to_string()
        out.append((rep, top, stars))
    return out


# the benchmark tracer wraps this name too; the sum takes the same solve
_class_max = _solve_class


def _format_checkpoint_line(rep: str, max_count: int, stars: dict) -> str:
    members = " ".join(f"{m}:{x}" for m, x in sorted(stars.items()))
    return f"{rep} {max_count} {members}"


def _parse_checkpoint(path: str, n: int, m: int, use_canonical: bool) -> dict:
    """Completed classes from a checkpoint file; malformed lines are skipped.

    A line counts only when it is whole: its rep is a class this table
    solves (the canonical form of itself when folding) and its members are
    exactly the rep's orbit, each with an n-bit maximizer.  A crash can cut
    the last line anywhere, and a cut that drops whole members must not
    parse as a finished class.
    """
    done: dict[str, tuple[int, dict]] = {}
    if not os.path.exists(path):
        return done
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            # fixed `rep count member:x ...` layout; the m = 0 rep is empty
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 3:
                continue
            rep, count_text = parts[0], parts[1]
            if len(rep) != m or set(rep) - {"0", "1"} or not count_text.isdigit():
                continue
            y = BinarySequence.from_string(rep)
            if use_canonical and canonical_form(y) != y:
                continue
            stars = dict(pair.partition(":")[::2] for pair in parts[2:])
            orbit = {member.to_string() for _, member in _orbit_members(y)}
            if set(stars) != orbit or any(len(x) != n for x in stars.values()):
                continue
            done[rep] = (int(count_text), stars)
    return done


def _open_checkpoint(path: str):
    """Open the checkpoint for appending, starting on a fresh line.

    A crash can leave a partial last line; writing straight after it would
    glue the next class onto the fragment.
    """
    fh = open(path, "a", encoding="ascii")
    if fh.tell() > 0:
        with open(path, "rb") as tail:
            tail.seek(-1, os.SEEK_END)
            if tail.read(1) != b"\n":
                fh.write("\n")
    return fh


def mdm_table(
    n: int,
    m: int,
    use_canonical: bool = True,
    approach: DupApproach = DupApproach.ASSIGN_TO_LAST,
    threads: int = 1,
    checkpoint_path: Optional[str] = None,
) -> MdmTable:
    """Solve every y in {0,1}^m against inputs of length n.

    One search per symmetry class when use_canonical is set (complement and
    reversal leave pattern counts unchanged), re-expanded so the table still
    carries one row per y, sorted by numeral.  A checkpoint file, when given,
    records one completed class per line and lets an interrupted sweep resume
    without changing the final table.
    """
    if m > n:
        raise ValueError(f"output longer than input ({m} > {n})")
    if n > SEARCH_MAX_N:
        raise CapExceededError(f"search capped at n <= {SEARCH_MAX_N}, got {n}")
    classes = _classes(m, use_canonical)

    solved: dict[str, tuple[int, dict]] = {}
    if checkpoint_path:
        solved = _parse_checkpoint(checkpoint_path, n, m, use_canonical)
    todo = [rep for rep in classes if rep not in solved]
    results = _map_classes(todo, n, threads, ties=True)

    checkpoint_fh = _open_checkpoint(checkpoint_path) if checkpoint_path else None

    def record(rep: str, max_count: int, stars: dict) -> None:
        solved[rep] = (max_count, stars)
        if checkpoint_fh:
            checkpoint_fh.write(_format_checkpoint_line(rep, max_count, stars) + "\n")
            checkpoint_fh.flush()

    try:
        for result in results:
            record(*result)
    finally:
        if checkpoint_fh:
            checkpoint_fh.close()

    rows = []
    for rep, members in classes.items():
        max_count, stars = solved[rep]
        for text in members:
            y = BinarySequence.from_string(text)
            x_dup, dup_count = _dup_estimate(y, n, approach)
            rows.append(
                MdmResult(
                    y=y,
                    n=n,
                    x_star=BinarySequence.from_string(stars[text]),
                    max_count=max_count,
                    x_dup=x_dup,
                    dup_count=dup_count,
                    ratio=dup_count / max_count,
                )
            )
    rows.sort(key=lambda row: row.y.numeral())
    return MdmTable(n=n, m=m, rows=rows)


def sum_max_counts(n: int, m: int, threads: int = 1) -> int:
    """Sum over all y in {0,1}^m of max_x #(x, y), exactly.

    This is the log argument of the maximum-likelihood capacity bound; only
    class maxima are searched, weighted by orbit size.
    """
    if m > n:
        raise ValueError(f"output longer than input ({m} > {n})")
    if n > SEARCH_MAX_N:
        raise CapExceededError(f"search capped at n <= {SEARCH_MAX_N}, got {n}")
    classes = _classes(m, fold=True)
    maxima = _map_classes(list(classes), n, threads)
    return sum(len(classes[rep]) * max_count for rep, max_count, _ in maxima)


def duplication_ratio(y: BinarySequence, n: int) -> Fraction:
    """Exact ratio dup_count / max_count for integer repeat factor n/len(y)."""
    m = len(y)
    if m == 0 or n % m:
        raise ValueError("repeat factor n/len(y) must be a positive integer")
    [(_, max_count, _)] = _solve_class([y.to_string()], n)
    return Fraction(dup_count_formula(y, n // m), max_count)


def min_duplication_ratio(n: int, F: int) -> tuple[BinarySequence, float]:
    """Minimizing y of the duplication ratio over {0,1}^(n/F) and its ratio.

    Requires F to divide n.  Ties go to the smallest numeral y.  The ratio is
    symmetry-class invariant and each class rep is its numeral-smallest
    member, so one search per class suffices.
    """
    if F < 1 or n < 1 or n % F:
        raise ValueError(f"need n >= 1 and a factor F >= 1 dividing it, got n = {n}, F = {F}")
    if n > SEARCH_MAX_N:
        raise CapExceededError(f"search capped at n <= {SEARCH_MAX_N}, got {n}")
    # equal-length texts compare like their numerals
    gamma, rep = min(
        (Fraction(dup_count_formula(BinarySequence.from_string(rep), F), max_count), rep)
        for rep, max_count, _ in _map_classes(list(_classes(n // F, fold=True)), n, 1)
    )
    return BinarySequence.from_string(rep), float(gamma)


def flip_sequence(m: int) -> BinarySequence:
    """The alternating sequence 0101... of length m."""
    return BinarySequence.from_string("".join("01"[i % 2] for i in range(m)))


def is_alternating(y: BinarySequence) -> bool:
    """True when every run of y has length 1."""
    return len(y) > 0 and run_length_profile(y).counts == {1: len(y)}


def stirling_lower_bound(n: int, F: int) -> float:
    """Analytic floor F^(n/F) / C(n, n/F) under the minimal duplication ratio.

    Follows from bounding the flip sequence's maximal count by C(n, n - m).
    """
    if F < 1 or n % F:
        raise ValueError(f"factor {F} must be >= 1 and divide n = {n}")
    m = n // F
    return F**m / math.comb(n, m)
