"""Maximum deletion matching: exhaustive search and duplication estimates.

For a fixed output y and input length n, the search finds
max over x in {0,1}^n of #(x, y) by sweeping the whole input space with the
split pattern-count kernel, one chunk of symmetry classes per table batch.
Pattern counts are the same on every member of an orbit under complement
and reversal, so one sweep over all y in {0,1}^m maps each y's numeral to
its orbit's smallest numeral, the class rep, and only reps are solved.
Outputs, reps and maximizers stay numerals throughout; they become text
only in checkpoint lines.
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

from .bitseq import MAX_LEN, BinarySequence, CapExceededError, run_length_profile, runs
from .bitseq import canonical_form  # noqa: F401  (the benchmark tracer wraps this name)
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


# every byte value with its 8 bits in reverse order, built from Python ints:
# numpy ops at import time would add resident pages to every command
_REVERSED_BYTE = np.array([sum(((v >> b) & 1) << (7 - b) for b in range(8)) for v in range(256)])


def _bit_reverse(values: np.ndarray, n: int) -> np.ndarray:
    """The n-bit numerals in values with their bit order reversed."""
    v = np.asarray(values, dtype=np.int64)
    out = np.zeros_like(v)
    for shift in range(0, n, 8):
        out = (out << 8) | _REVERSED_BYTE[(v >> shift) & 255]
    # the last byte holds fewer than 8 of the n bits when 8 does not divide n
    return out >> (-n % 8)


def _orbit(ys, m: int) -> tuple:
    """Numerals of y, ~y, rev y and ~rev y for every length-m numeral in ys.

    The four members need not be distinct; pattern counts agree on all of
    them, and complement maps numeral v to 2^m - 1 - v.
    """
    y = np.asarray(ys, dtype=np.int64)
    full = (1 << m) - 1
    r = _bit_reverse(y, m)
    return y, full - y, r, full - r


def _classes(m: int) -> tuple[np.ndarray, list[int]]:
    """The symmetry classes of {0,1}^m as canon and the ordered reps.

    canon[v] is the canonical form of v, the numeral-smallest member of its
    orbit under complement and reversal; the reps are the v with
    canon[v] == v, in ascending order.
    """
    y, c, r, cr = _orbit(np.arange(1 << m), m)
    canon = np.minimum(y, c)
    for member in (r, cr):
        np.minimum(canon, member, out=canon)
    return canon, np.flatnonzero(canon == y).tolist()


def _map_classes(reps: list, m: int, n: int, threads: int, ties: bool = False):
    """Iterator over `_solve_class` results per rep, in order.

    The reps, numerals of length m, go in chunks of at most one table batch
    (`split_batch`), and to up to `threads` processes at least one chunk
    each.  `_solve_class` is looked up at call time, so a wrapper installed
    on the module (a tracer, say) is what runs.
    """
    if threads < 1:
        raise ValueError("thread count must be >= 1")
    if not reps:
        return iter(())
    size = min(split_batch(n, m), -(-len(reps) // threads))
    chunks = [reps[i : i + size] for i in range(0, len(reps), size)]
    if threads == 1 or len(chunks) < 2:
        return itertools.chain.from_iterable(_solve_class(c, m, n, ties) for c in chunks)

    def pooled():
        # imported here: multiprocessing is heavy and only pooled runs need it
        from concurrent.futures import ProcessPoolExecutor

        k = len(chunks)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for solved in pool.map(_solve_class, chunks, [m] * k, [n] * k, [ties] * k):
                yield from solved

    return pooled()


def _solve_class(reps: list, m: int, n: int, ties: bool = False) -> list[tuple[int, int, dict]]:
    """Solve a chunk of symmetry classes of one output length m: one
    (rep, max_count, stars) per rep numeral, in order.

    The chunk's split tables are built once; each class's counts arrive in
    blocks that are reduced to the running maximum.  With ties the blocks
    also keep the four extremes of the argmax set, the smallest and largest
    numeral plain and bit-reversed, and stars maps every orbit member's
    numeral to the numeral of its smallest maximizer: the maximizer set of
    a complemented or reversed output is the complemented or reversed set.
    Without ties stars is empty.
    """
    best = [-1] * len(reps)
    # per class, as minima: smallest numeral, minus the largest, and the
    # same two for the bit-reversed numerals
    ends: list = [None] * len(reps)
    for first, x0, block in split_counts([BinarySequence(rep, m) for rep in reps], n):
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
    if not ties:
        return [(rep, top, {}) for rep, top in zip(reps, best)]
    full = (1 << n) - 1
    members = np.stack(_orbit(reps, m), axis=1).tolist()
    out = []
    for rep, top, orbit, (low, minus_high, rev_low, minus_rev_high) in zip(reps, best, members, ends):
        # complement maps numeral v to full - v, reversing the order; members
        # that coincide have the same maximizer set, so the same pick
        picks = (low, full + minus_high, rev_low, full + minus_rev_high)
        out.append((rep, top, dict(zip(orbit, picks))))
    return out


# the benchmark tracer wraps this name too; the sum takes the same solve
_class_max = _solve_class


def _format_checkpoint_line(rep: int, max_count: int, stars: dict, m: int, n: int) -> str:
    """`rep count member:x_star ...`, members in numeral order, as text."""
    members = " ".join(
        f"{BinarySequence(y, m)}:{BinarySequence(x, n)}" for y, x in sorted(stars.items())
    )
    return f"{BinarySequence(rep, m)} {max_count} {members}"


def _parse_checkpoint(path: str, n: int, m: int) -> dict:
    """Completed classes from a checkpoint file; malformed lines are skipped.

    A line counts only when it is whole and right: its rep is a canonical
    form, its members are exactly the rep's orbit, each with an n-symbol
    0/1 maximizer, and the count is the scalar recount of every member's
    maximizer.  A crash can cut the last line anywhere, and a cut that
    drops whole members must not parse as a finished class.  Returns rep
    numeral -> (max_count, stars) with stars keyed by member numeral.
    """

    def numeral(text: str, length: int) -> Optional[int]:
        if len(text) != length or text.strip("01"):
            return None
        return int(text, 2) if text else 0

    done: dict[int, tuple[int, dict]] = {}
    if not os.path.exists(path):
        return done
    # a non-ASCII byte becomes U+FFFD, which no field accepts
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for line in fh:
            # fixed `rep count member:x ...` layout; the m = 0 rep is empty
            parts = line.rstrip("\n").split(" ")
            rep = numeral(parts[0], m)
            if rep is None or len(parts) < 3 or not parts[1].isdigit():
                continue
            count = int(parts[1])
            orbit = {int(v) for v in _orbit(rep, m)}
            stars = {}
            for pair in parts[2:]:
                member, _, x = pair.partition(":")
                stars[numeral(member, m)] = numeral(x, n)
            if rep != min(orbit) or set(stars) != orbit or None in stars.values():
                continue
            if any(
                count_deletion_patterns(BinarySequence(x, n), BinarySequence(y, m)) != count
                for y, x in stars.items()
            ):
                continue
            done[rep] = (count, stars)
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
    approach: DupApproach = DupApproach.ASSIGN_TO_LAST,
    threads: int = 1,
    checkpoint_path: Optional[str] = None,
) -> MdmTable:
    """Solve every y in {0,1}^m against inputs of length n.

    One search per symmetry class (complement and reversal leave pattern
    counts unchanged), read back per y so the table still carries one row
    per y, in numeral order.  A checkpoint file, when given, records one
    completed class per line and lets an interrupted sweep resume without
    changing the final table.
    """
    if m > n:
        raise ValueError(f"output longer than input ({m} > {n})")
    if n > SEARCH_MAX_N:
        raise CapExceededError(f"search capped at n <= {SEARCH_MAX_N}, got {n}")
    canon, reps = _classes(m)

    solved: dict[int, tuple[int, dict]] = {}
    if checkpoint_path:
        solved = _parse_checkpoint(checkpoint_path, n, m)
    todo = [rep for rep in reps if rep not in solved]
    results = _map_classes(todo, m, n, threads, ties=True)

    checkpoint_fh = _open_checkpoint(checkpoint_path) if checkpoint_path else None
    try:
        for rep, max_count, stars in results:
            solved[rep] = (max_count, stars)
            if checkpoint_fh:
                checkpoint_fh.write(_format_checkpoint_line(rep, max_count, stars, m, n) + "\n")
                checkpoint_fh.flush()
    finally:
        if checkpoint_fh:
            checkpoint_fh.close()

    rows = []
    for v, rep in enumerate(canon.tolist()):
        max_count, stars = solved[rep]
        y = BinarySequence(v, m)
        x_dup, dup_count = _dup_estimate(y, n, approach)
        rows.append(
            MdmResult(
                y=y,
                n=n,
                x_star=BinarySequence(stars[v], n),
                max_count=max_count,
                x_dup=x_dup,
                dup_count=dup_count,
                ratio=dup_count / max_count,
            )
        )
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
    canon, reps = _classes(m)
    sizes = np.bincount(canon).tolist()
    return sum(sizes[rep] * max_count for rep, max_count, _ in _map_classes(reps, m, n, threads))


def duplication_ratio(y: BinarySequence, n: int) -> Fraction:
    """Exact ratio dup_count / max_count for integer repeat factor n/len(y)."""
    m = len(y)
    if m == 0 or n % m:
        raise ValueError("repeat factor n/len(y) must be a positive integer")
    [(_, max_count, _)] = _solve_class([y.bits], m, n)
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
    m = n // F
    gamma, rep = min(
        (Fraction(dup_count_formula(BinarySequence(rep, m), F), max_count), rep)
        for rep, max_count, _ in _map_classes(_classes(m)[1], m, n, 1)
    )
    return BinarySequence(rep, m), float(gamma)


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
