"""Maximum deletion matching: exhaustive search and duplication estimates.

For a fixed output y and input length n, the search finds
max over x in {0,1}^n of #(x, y) by reducing the blocks of input numerals
and counts that `patcount.class_blocks` yields, one chunk of symmetry
classes per table batch, with array operations over all the classes of a
block; the blocks hold every maximizer, so every smallest-numeral
tie-break is settled once per chunk of classes.
Pattern counts are the same on every member of an orbit under complement
and reversal, so one sweep over all y in {0,1}^m maps each y's numeral to
its orbit's smallest numeral, the class rep, and only reps are solved.
Outputs, reps, maximizers and candidates stay numerals in `MdmTable`'s
columns; only the checkpoint and CSV writers make text.
The duplication estimate replaces the true maximizer with a candidate
that stretches every run of y: `_dup_rows` builds it as a numeral for all
y of one length at once and takes its count as a product of one weight
per run, exact because each run of y can only embed in its own stretched
run; `dup_estimate` is its row for one y.  Its ratio to the true
maximum is at most 1 because the candidate is feasible.  When len(y) does
not divide n the stretch is fractional and three estimates are offered:
hand the leftover bits to the trailing runs, hand them to the longest
runs, or drop the integrality requirement altogether by moving to Gamma
functions.
The estimate reads the run weights of `dupsum`, whose `dup_sum` sums it
over all y of one length by a recurrence over runs.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .bitseq import MAX_LEN, BinarySequence, CapExceededError, numeral_text, runs
from .dupsum import DupApproach, _run_weights
from .patcount import VECTOR_MAX_N, class_batch, class_blocks, count_deletion_patterns
from .patcount import counts_for_all_inputs  # noqa: F401  (the benchmark tracer wraps this name)

if TYPE_CHECKING:
    from fractions import Fraction


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
    """All outputs of one (n, m) sweep as the columns x_star, max_count,
    x_dup and dup_count of `MdmResult`, indexed by y's numeral, with
    numerals in place of sequences."""

    n: int
    m: int
    x_star: list
    max_count: list
    x_dup: list
    dup_count: list

    @property
    def rows(self) -> list:
        """One `MdmResult` per y, in ascending numeral order of y."""
        n, columns = self.n, zip(self.x_star, self.max_count, self.x_dup, self.dup_count)
        return [
            MdmResult(BinarySequence(v, self.m), n, BinarySequence(x, n), top,
                      x_dup if x_dup is None else BinarySequence(x_dup, n), dup, dup / top)
            for v, (x, top, x_dup, dup) in enumerate(columns)
        ]


def dup_estimate(
    y: BinarySequence, n: int, approach: DupApproach = DupApproach.ASSIGN_TO_LAST
) -> tuple[Optional[BinarySequence], Union[int, float]]:
    """The duplication candidate x_dup of y at input length n and its count,
    y's row of `_dup_rows`; x_dup is None for the Gamma estimate of a
    fractional factor."""
    m = len(y)
    if m > n:
        raise ValueError(f"output longer than input ({m} > {n})")
    if n > MAX_LEN:
        raise CapExceededError(f"input length {n} exceeds {MAX_LEN}")
    [x], [count] = _dup_rows(n, m, approach, [y.bits])
    return (None if x is None else BinarySequence(x, n)), count


def _dup_rows(n: int, m: int, approach: DupApproach, ys=None) -> tuple[list, list]:
    """x_dup numerals and counts of the length-m numerals in ys (default
    all, in order); x_dup is None for the Gamma estimate of a fractional factor.

    Every l-run of y becomes l * (n // m) bits, and of the n % m leftover
    bits it takes min(l, max(0, extra - b)), b the bits of the runs served
    before it: from the last run back (ASSIGN_TO_LAST) or longest first,
    earlier first on ties (ASSIGN_BY_LENGTH).  The count is #(x_dup, y), the
    product of the run weights in run order.  Run i is row i of an m x len(ys)
    array; the edges y ^ (y >> 1) start runs, runs past the last have length 0.
    """
    if m == 0:
        # only the all-deleting pattern; the candidate slot still needs length n
        return [0], [1]
    base, extra = divmod(n, m)
    gamma = bool(extra) and approach is DupApproach.GAMMA
    y = np.arange(1 << m) if ys is None else np.asarray(ys, dtype=np.int64)
    # bit k of y ^ y >> 1 is set where symbols m-2-k and m-1-k differ; its
    # top bit is y's first symbol, which `run -= run[0]` takes out again
    run = np.cumsum((y ^ y >> 1) >> np.arange(m - 1, -1, -1)[:, None] & 1, axis=0)
    run -= run[0]
    at = run * len(y) + np.arange(len(y))
    L = np.bincount(at.ravel(), minlength=run.size).reshape(run.shape)
    if approach is DupApproach.ASSIGN_BY_LENGTH:
        order = np.argsort(-L, axis=0, kind="stable")
        ls = np.take_along_axis(L, order, axis=0)
        before = np.empty_like(L)
        np.put_along_axis(before, order, np.cumsum(ls, axis=0) - ls, axis=0)
    else:
        before = m - np.cumsum(L, axis=0)
    E = np.zeros_like(L) if gamma else np.clip(extra - before, 0, L)
    # row by row, so the Gamma floats multiply in run order
    counts = math.prod(np.array(_run_weights(n, m, approach))[L, E]).tolist()
    if gamma:
        return [None] * len(counts), counts
    # each stretched run's bits end at `low`; the run values alternate from y's first
    S = (L * base + E).astype(np.uint64)
    low = np.uint64(n) - np.cumsum(S, axis=0)
    ones = (y >> (m - 1) ^ np.arange(m)[:, None] & 1).astype(np.uint64)
    return (ones * ((np.uint64(1) << S) - 1 << low)).sum(axis=0).tolist(), counts


# every byte value with its 8 bits in reverse order, built from Python ints:
# numpy ops at import time would add resident pages to every command
_REVERSED_BYTE = np.array([sum(((v >> b) & 1) << (7 - b) for b in range(8)) for v in range(256)])


def _bit_reverse(values: np.ndarray, n: int) -> np.ndarray:
    """The n-bit numerals in values with their bit order reversed, n <= 63.

    The lowest 1 to 8 bits go first and whole bytes after them, so no
    partial result is wider than n bits and int64 holds every one.
    """
    v = np.asarray(values, dtype=np.int64)
    low = (n - 1) % 8 + 1
    out = _REVERSED_BYTE[v & ((1 << low) - 1)] >> (8 - low)
    for shift in range(low, n, 8):
        out = (out << 8) | _REVERSED_BYTE[(v >> shift) & 255]
    return out


def _orbit(ys, m: int) -> tuple:
    """Numerals of y, ~y, rev y and ~rev y for every length-m numeral in ys.

    The four members need not be distinct; pattern counts agree on all of
    them, and complement maps numeral v to 2^m - 1 - v.
    """
    y = np.asarray(ys, dtype=np.int64)
    full = (1 << m) - 1
    r = _bit_reverse(y, m)
    return y, full - y, r, full - r


def canonical_form(y: BinarySequence) -> BinarySequence:
    """Numeral-minimal member of the orbit {y, ~y, rev y, ~rev y}; idempotent.

    Pattern counts are invariant under complement and reversal, so this orbit
    is the symmetry class the search reduces over.
    """
    return BinarySequence(min(map(int, _orbit(y.bits, len(y)))), len(y))


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
    of the class solve (`class_batch`), and to up to `threads` processes,
    no more than there are chunks or CPUs this process may run on (its
    affinity mask where the platform has one, else every CPU).
    `_solve_class` is looked up at call time, so a wrapper installed on the
    module (a tracer, say) is what runs.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    # a worker per CPU at most, so the chunks follow the capped count too
    threads = min(threads, cpus)
    size = min(class_batch(n, m), -(-len(reps) // threads)) or 1  # 0 when reps is empty
    chunks = [reps[i : i + size] for i in range(0, len(reps), size)]
    if threads == 1 or len(chunks) < 2:
        for chunk in chunks:
            yield from _solve_class(chunk, m, n, ties)
        return
    # imported here: multiprocessing is heavy and only pooled runs need it
    from concurrent.futures import ProcessPoolExecutor

    k = len(chunks)
    # at most one worker per chunk: the pool forks all its workers up front
    with ProcessPoolExecutor(max_workers=min(threads, k)) as pool:
        for solved in pool.map(_solve_class, chunks, [m] * k, [n] * k, [ties] * k):
            yield from solved


def _solve_class(reps: list, m: int, n: int, ties: bool = False) -> list[tuple[int, int, dict]]:
    """Solve a chunk of symmetry classes of one output length m: one
    (rep, max_count, stars) per rep numeral, in order.

    The counts arrive in the blocks of `class_blocks`, entry (k, i, j) the
    count of input rows[k, i] | cols[j] for class cs[k], and each block's
    top per class goes into that class's running maximum.  With ties the
    numerals at a top that reaches the running one are kept, and a higher
    top drops what the class held; stars maps every orbit member's numeral
    to the numeral of its smallest maximizer.
    Complement and reversal g keep #(g x, g y) = #(x, y), so the maximizer
    set of member g y is g applied to the rep's: `_orbit` of the rep's
    argmax numerals lists those sets in the order `_orbit` of the rep lists
    the members.  Blocks keep the numerals at the running top, and one
    `_orbit` of all of them settles every tie-break of the chunk.
    Without ties stars is empty.
    """
    best = [-1] * len(reps)
    picks: list = [[] for _ in reps]
    for cs, block, rows, cols in class_blocks(reps, m, n):
        tops = block.reshape(len(cs), -1).max(axis=1).tolist()
        if ties:
            # each class's numerals at its top where that reaches its running
            # top (no entry matches the others' inf); a higher top drops the rest
            level = [top if top >= best[c] else math.inf for c, top in zip(cs, tops)]
            at = np.flatnonzero(block == np.array(level, dtype=block.dtype)[:, None, None])
            found = rows.ravel()[at // len(cols)] | cols[at % len(cols)]
            if len(cs) == 1:  # every block from PRUNE_MIN_N on: no split to find
                ends = [len(at)]
            else:
                ends = at.searchsorted(np.arange(1, len(cs) + 1) * block[0].size).tolist()
            for c, top, lo, hi in zip(cs, tops, [0, *ends], ends):
                if hi > lo:
                    picks[c] = (picks[c] if top == best[c] else []) + [found[lo:hi]]
        for c, top in zip(cs, tops):
            best[c] = max(best[c], int(top))
    if not ties or not reps:
        return [(rep, top, {}) for rep, top in zip(reps, best)]
    starts = [0, *itertools.accumulate(sum(map(len, pick)) for pick in picks[:-1])]
    xs = np.concatenate([found for pick in picks for found in pick])
    stars = zip(*[np.minimum.reduceat(s, starts).tolist() for s in _orbit(xs, n)])
    members = zip(*[s.tolist() for s in _orbit(reps, m)])
    return [
        (rep, top, dict(zip(orbit, star)))
        for rep, top, orbit, star in zip(reps, best, members, stars)
    ]


# the benchmark tracer wraps this name too; the sum takes the same solve
_class_max = _solve_class


def _format_checkpoint_line(rep: int, max_count: int, stars: dict, m: int, n: int) -> str:
    """`rep count member:x_star ...`, members in numeral order, as text."""
    members = " ".join(
        f"{numeral_text(y, m)}:{numeral_text(x, n)}" for y, x in sorted(stars.items())
    )
    return f"{numeral_text(rep, m)} {max_count} {members}"


def _parse_checkpoint(path: str, n: int, m: int) -> dict:
    """Completed classes from a checkpoint file; malformed lines are skipped.

    A line counts only when `_format_checkpoint_line` writes it back from
    the values read, its rep is a canonical form, its members are exactly
    the rep's orbit, and the count is the scalar recount of every member's
    maximizer.  A crash can cut the last line anywhere, and a cut that drops
    whole members must not parse as a finished class.  Returns rep numeral
    -> (max_count, stars) with stars keyed by member numeral.
    """
    done: dict[int, tuple[int, dict]] = {}
    if not os.path.exists(path):
        return done
    # a non-ASCII byte becomes U+FFFD, which no field accepts
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for line in fh:
            text = line.rstrip("\n")
            try:
                # the m = 0 rep and member are empty
                rep_text, count_text, *members = text.split(" ")
                rep, count = int(rep_text or "0", 2), int(count_text)
                pairs = (member.split(":") for member in members)
                stars = {int(y or "0", 2): int(x or "0", 2) for y, x in pairs}
                if _format_checkpoint_line(rep, count, stars, m, n) != text:
                    continue
            except ValueError:
                continue
            orbit = {int(v) for v in _orbit(rep, m)}
            if rep != min(orbit) or set(stars) != orbit:
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


def _check_search(n: int, m: int, threads: int = 1) -> None:
    """Reject m outside [0, n], then a search past the cap, then threads < 1."""
    if not 0 <= m <= n:
        raise ValueError(f"output length {m} outside [0, {n}]")
    if n > VECTOR_MAX_N:
        raise CapExceededError(f"search capped at n <= {VECTOR_MAX_N}, got {n}")
    if threads < 1:
        raise ValueError("thread count must be >= 1")


def mdm_table(
    n: int,
    m: int,
    approach: DupApproach = DupApproach.ASSIGN_TO_LAST,
    threads: int = 1,
    checkpoint_path: Optional[str] = None,
) -> MdmTable:
    """Solve every y in {0,1}^m against inputs of length n.

    One search per symmetry class (complement and reversal leave pattern
    counts unchanged), read back per y into numeral columns, one entry per
    y in numeral order, beside one `_dup_rows` pass.  A checkpoint file,
    when given, records one completed class per line and lets an
    interrupted sweep resume without changing the final table.
    """
    _check_search(n, m, threads)
    canon, reps = _classes(m)

    solved = _parse_checkpoint(checkpoint_path, n, m) if checkpoint_path else {}
    todo = [rep for rep in reps if rep not in solved]

    checkpoint = _open_checkpoint(checkpoint_path) if checkpoint_path else contextlib.nullcontext()
    with checkpoint as checkpoint_fh:
        for rep, max_count, stars in _map_classes(todo, m, n, threads, ties=True):
            solved[rep] = (max_count, stars)
            if checkpoint_fh:
                checkpoint_fh.write(_format_checkpoint_line(rep, max_count, stars, m, n) + "\n")
                checkpoint_fh.flush()

    classes = [solved[rep] for rep in canon.tolist()]
    return MdmTable(
        n,
        m,
        [stars[v] for v, (_, stars) in enumerate(classes)],
        [top for top, _ in classes],
        *_dup_rows(n, m, approach),
    )


def sum_max_counts(n: int, m: int, threads: int = 1) -> int:
    """Sum over all y in {0,1}^m of max_x #(x, y), exactly.

    This is the log argument of the maximum-likelihood capacity bound; only
    class maxima are searched, weighted by orbit size.
    """
    _check_search(n, m, threads)
    canon, reps = _classes(m)
    sizes = np.bincount(canon).tolist()
    return sum(sizes[rep] * max_count for rep, max_count, _ in _map_classes(reps, m, n, threads))


def duplication_ratio(y: BinarySequence, n: int) -> Fraction:
    """Exact ratio dup_count / max_count for integer repeat factor n/len(y)."""
    from fractions import Fraction  # only the ratios need it; it imports decimal

    m = len(y)
    if m == 0 or n % m:
        raise ValueError("repeat factor n/len(y) must be a positive integer")
    [(_, max_count, _)] = _solve_class([y.bits], m, n)
    return Fraction(dup_estimate(y, n)[1], max_count)


def duplication_ratios(n: int, F: int) -> dict[int, Fraction]:
    """Exact duplication ratio of every symmetry class of {0,1}^(n/F), keyed
    by class rep numeral in ascending order.  Requires F to divide n."""
    if F < 1 or n < 1 or n % F:
        raise ValueError(f"need n >= 1 and a factor F >= 1 dividing it, got n = {n}, F = {F}")
    from fractions import Fraction

    m = n // F
    _check_search(n, m)
    reps = _classes(m)[1]
    _, dups = _dup_rows(n, m, DupApproach.ASSIGN_TO_LAST, reps)
    return {
        rep: Fraction(dup, max_count)
        for (rep, max_count, _), dup in zip(_map_classes(reps, m, n, 1), dups)
    }


def ratio_minimizer(ratios: dict[int, Fraction], m: int) -> tuple[BinarySequence, Fraction]:
    """Minimizing y of one `duplication_ratios` sweep over {0,1}^m and its exact
    ratio; ties go to the smallest numeral y, the first minimal rep."""
    rep = min(ratios, key=ratios.get)
    return BinarySequence(rep, m), ratios[rep]


def min_duplication_ratio(n: int, F: int) -> tuple[BinarySequence, float]:
    """Minimizing y of the duplication ratio over {0,1}^(n/F) and its ratio.
    Requires F to divide n."""
    y, ratio = ratio_minimizer(duplication_ratios(n, F), n // F)
    return y, float(ratio)


def flip_sequence(m: int) -> BinarySequence:
    """The alternating sequence 0101... of length m."""
    return BinarySequence(((1 << m) - 1) // 3, m)


def is_alternating(y: BinarySequence) -> bool:
    """True when every run of y has length 1."""
    return len(y) > 0 and all(l == 1 for _, l in runs(y))


def stirling_lower_bound(n: int, F: int) -> float:
    """Analytic floor F^(n/F) / C(n, n/F) under the minimal duplication ratio.

    Follows from bounding the flip sequence's maximal count by C(n, n - m).
    """
    if F < 1 or n % F:
        raise ValueError(f"factor {F} must be >= 1 and divide n = {n}")
    m = n // F
    return F**m / math.comb(n, m)
