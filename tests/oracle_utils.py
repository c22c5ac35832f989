"""Brute-force subset-enumeration oracles used only by the tests.

These deliberately avoid the dynamic-programming recurrence: a pattern
count is obtained by materializing every size-m position subset and
comparing the selected symbols against y.  Keep it that way — the whole
point is an independent route to the same numbers.

The exceptions are the code paths that faster ones replaced, kept as the
slow references the new paths must agree with:
- `masked_sweep_counts`, the full-width masked DP sweep that the prefix
  walk replaced (exactly);
- `prefix_walk_counts`, that prefix walk, which the split kernel
  `delcap.patcount.split_counts` replaced (exactly), and
  `walk_channel_matrix`, the column-at-a-time dense channel-matrix build on
  it, with `dense_fold`, that matrix as the trivial fold (t = s = 1) of
  `delcap.baa.ChannelMatrix`, which the folded build on symmetry classes
  replaced (to rounding);
- `split_counts_solve`, the dense class solve on the `split_counts` blocks,
  reduced to each class's maximum and argmax set, which
  `delcap.mdm._solve_class` on the `delcap.patcount.class_blocks` below
  `delcap.patcount.PRUNE_MIN_N` (dense row blocks, now one row-pruned
  product per table batch) replaced (exactly);
- `partition_dup_sum_assign_by_length`, the partition enumeration that the
  run-length DP replaced (exactly), and `full_dp_dup_sum_assign_by_length`,
  that DP with its last run length taken as a step like the others, which
  `delcap.dupsum._dup_sum_assign_by_length`, closing that step in form,
  replaced (exactly);
- `lambda_dup_sum` with `lambda_run_weight`,
  `lambda_dup_sum_assign_to_last` and `lambda_dup_sum_assign_by_length`,
  the duplication-sum recurrences that called a weight function per term,
  which the cached run-weight table `delcap.dupsum._run_weights` replaced
  (exactly, the Gamma floats bit for bit);
- `text_canonical_form`, the orbit minimum built from the sequence text,
  which `delcap.mdm.canonical_form`, the minimum of `delcap.mdm._orbit`,
  replaced (exactly);
- `text_dup_estimate` with `dup_count_formula`, `build_dup_sequence` and
  `approximate_dup_sequence`, the duplication candidate built as text and
  recounted with the scalar DP, which `delcap.mdm.dup_estimate` replaced
  (exactly, the Gamma estimate to rounding);
- `direct_input_divergences`, the matrix-wide divergence formula that the
  two matrix-vector products of `delcap.baa._input_divergences` replaced
  (to rounding);
- `masked_input_divergences` and `masked_step`, those two products with
  the zero-mass masking done on every call, on any fold, which the
  in-place loop of `delcap.baa._iterate` replaced (bit for bit: its masses
  never reach 0); `reweight`, the update p exp(mu D) / sum, and
  `relaxation`, its step factor mu from the last two brackets, which its
  in-place update replaced (bit for bit), with `masked_run`, the whole
  loop on them with the mass floor;
- `plain_run`, the loop with the plain update p exp(D) / sum that the
  over-relaxed update replaced (the tests bound its iteration counts and
  proxies, not its values).

The last section holds small formulas that nothing in the library calls,
kept with the tests that pin them: `transition_probability`, `mu_d`,
`expected_runs` and `expected_runs_exact`.

Symmetry tests transform the sequence text, not the packed numeral:
`flip_text` swaps every 0 and 1 (the complement) and `t[::-1]` reverses
the text.  Run-length profiles are `collections.Counter` over the lengths
that `delcap.runs` yields.

Index conventions match the library: an integer index read big-endian is
the sequence text, i.e. symbol j of index v is bit (n-1-j) of v.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Optional, Union

import numpy as np

from delcap import (
    BinarySequence,
    CapExceededError,
    ChannelMatrix,
    DupApproach,
    count_deletion_patterns,
    runs,
)
from delcap.baa import MASS_FLOOR, NEWTON_HALVINGS, NEWTON_SLACK
from delcap.bitseq import MAX_LEN, numeral_text
from delcap.patcount import VECTOR_MAX_N, split_counts

_FLIP = str.maketrans("01", "10")


def flip_text(text: str) -> str:
    return text.translate(_FLIP)


def text_canonical_form(y: BinarySequence) -> BinarySequence:
    """Numeral-minimal member of {y, ~y, rev y, ~rev y}, built from the text."""
    mask = (1 << y.length) - 1
    r = int(y.to_string()[::-1] or "0", 2)
    return BinarySequence(min(y.bits, y.bits ^ mask, r, r ^ mask), y.length)


def combo_positions(n: int, m: int) -> np.ndarray:
    """(C(n,m), m) array of kept-position subsets in ascending order."""
    if m == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.array(list(itertools.combinations(range(n), m)), dtype=np.int64)


def oracle_counts_grid(n: int, m: int) -> np.ndarray:
    """(2^n, 2^m) matrix of #(x, y) for every pair, by subset enumeration."""
    combos = combo_positions(n, m)
    shifts = (n - 1 - combos).astype(np.int64)
    xs = np.arange(2**n, dtype=np.int64)
    nums = np.zeros((2**n, combos.shape[0]), dtype=np.int64)
    for t in range(m):
        nums += ((xs[:, None] >> shifts[None, :, t]) & 1) << (m - 1 - t)
    counts = np.zeros((2**n, 2**m), dtype=np.int64)
    for i in range(2**n):
        counts[i] = np.bincount(nums[i], minlength=2**m)
    return counts


def _half_tables(h: int) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Per-mask selections over an h-symbol block, for every block value.

    Returns (values, sizes, masks_by_size) where values[mask, xh] is the
    numeral of the symbols of xh kept by mask (in symbol order), sizes[mask]
    is the popcount, and masks_by_size[k] lists the masks keeping k symbols.
    """
    xs = np.arange(2**h, dtype=np.int64)
    values = np.zeros((2**h, 2**h), dtype=np.int64)
    sizes = np.zeros(2**h, dtype=np.int64)
    for mask in range(2**h):
        kept = [j for j in range(h) if (mask >> (h - 1 - j)) & 1]
        sizes[mask] = len(kept)
        acc = np.zeros(2**h, dtype=np.int64)
        for t, j in enumerate(kept):
            acc += ((xs >> (h - 1 - j)) & 1) << (len(kept) - 1 - t)
        values[mask] = acc
    masks_by_size = [np.nonzero(sizes == k)[0] for k in range(h + 1)]
    return values, sizes, masks_by_size


def oracle_counts_pairs_split(n: int, pairs: list[tuple[int, int, int]]) -> list[int]:
    """#(x, y) for (x_numeral, m, y_numeral) pairs by split-half enumeration.

    Each deletion pattern on n symbols is exactly one (left mask, right
    mask) pair over the two halves, so counting mask pairs whose kept
    symbols spell y enumerates every pattern once.  No DP recurrence is
    involved; this is the fast enumerator for n up to 18 or so.
    """
    h = n // 2
    g = n - h
    lvalues, _, lmasks = _half_tables(h)
    rvalues, _, rmasks = _half_tables(g)
    by_m: dict[int, list[tuple[int, int, int]]] = {}
    for i, (x, m, y) in enumerate(pairs):
        by_m.setdefault(m, []).append((i, x, y))
    out = [0] * len(pairs)
    for m, group in sorted(by_m.items()):
        idx = np.array([i for i, _, _ in group])
        xv = np.array([x for _, x, _ in group], dtype=np.int64)
        yv = np.array([y for _, _, y in group], dtype=np.int64)
        xl = xv >> g
        xr = xv & ((1 << g) - 1)
        total = np.zeros(len(group), dtype=np.int64)
        for k in range(max(0, m - g), min(h, m) + 1):
            ypre = yv >> (m - k)
            ysuf = yv & ((1 << (m - k)) - 1)
            lcount = (lvalues[np.ix_(lmasks[k], xl)] == ypre[None, :]).sum(axis=0)
            rcount = (rvalues[np.ix_(rmasks[m - k], xr)] == ysuf[None, :]).sum(axis=0)
            total += lcount * rcount
        out_idx = idx
        for i, v in zip(out_idx, total):
            out[i] = int(v)
    return out


def oracle_counts_pairs(n: int, pairs: list[tuple[int, int, int]], chunk: int = 512) -> list[int]:
    """#(x, y) for (x_numeral, m, y_numeral) pairs, by subset enumeration.

    Pairs are grouped by m so each position-subset table is built once.
    """
    by_m: dict[int, list[tuple[int, int, int]]] = {}
    for i, (x, m, y) in enumerate(pairs):
        by_m.setdefault(m, []).append((i, x, y))
    out = [0] * len(pairs)
    for m, group in sorted(by_m.items()):
        combos = combo_positions(n, m)
        shifts = (n - 1 - combos).astype(np.int64)
        # keep the (batch, C(n,m)) work arrays modest for the big m
        batch = max(1, min(chunk, (1 << 22) // max(1, combos.shape[0])))
        for lo in range(0, len(group), batch):
            part = group[lo : lo + batch]
            xs = np.array([x for _, x, _ in part], dtype=np.int64)
            nums = np.zeros((len(part), combos.shape[0]), dtype=np.int64)
            for t in range(m):
                nums += ((xs[:, None] >> shifts[None, :, t]) & 1) << (m - 1 - t)
            for row, (i, _, y) in zip(nums, part):
                out[i] = int(np.count_nonzero(row == y))
    return out


def masked_sweep_counts(y: BinarySequence, n: int) -> np.ndarray:
    """#(x, y) for every x in {0,1}^n by the full-width masked sweep.

    Every bit position runs all 2^n lanes through min(j+1, m) masked adds.
    Same contract as counts_for_all_inputs: int64, indexed by numeral of x.
    """
    m = len(y)
    if m > n:
        raise ValueError(f"output longer than input ({m} > {n})")
    if n > VECTOR_MAX_N:
        raise CapExceededError(f"vector sweep capped at n <= {VECTOR_MAX_N}, got {n}")
    size = 1 << n
    ybits = [y.bit(k) for k in range(m)]
    idx = np.arange(size, dtype=np.int64)
    state = np.zeros((m + 1, size), dtype=np.int64)
    state[0] = 1
    for j in range(n):
        xbit = (idx >> (n - 1 - j)) & 1
        for k in range(min(j + 1, m), 0, -1):
            mask = xbit == ybits[k - 1]
            np.add(state[k], state[k - 1], out=state[k], where=mask)
    return state[m]


def prefix_walk_counts(y: BinarySequence, n: int) -> np.ndarray:
    """#(x, y) for every x in {0,1}^n at once.

    Returns an int64 array of length 2^n indexed by the numeral value of x.
    Same rolling DP as the scalar routine, walked over input prefixes: after
    j bits the DP row depends only on the j-bit prefix of x, so level j holds
    one lane per prefix, indexed by the prefix's numeral.  Each level doubles
    the lanes, writing the bit-0 and bit-1 children side by side so that
    child lane 2p + b is again the numeral of its prefix.

    Only the live band of rows k in [max(0, m-(n-j)), min(j, m)] is kept:
    rows above it are still zero, and rows below it cannot reach k = m in the
    n-j bits left.  Whether y[k-1] matches the child bit is a scalar test, so
    every row update is a plain slice add or copy.  Lane writes total less
    than 4 * 2^n, and the peak state is the last two levels, at most 2 * 2^n
    int64 values (16 * 2^n bytes, the result included).  This was the kernel
    behind the exhaustive search and the channel-matrix build.
    """
    m = len(y)
    if m > n:
        raise ValueError(f"output longer than input ({m} > {n})")
    if n > VECTOR_MAX_N:
        raise CapExceededError(f"vector sweep capped at n <= {VECTOR_MAX_N}, got {n}")
    ybits = [y.bit(k) for k in range(m)]
    # state[k - lo, p] = embeddings of y[:k] in the prefix with numeral p
    state = np.ones((1, 1), dtype=np.int64)
    lo, hi = 0, 0
    for j in range(n):
        new_lo, new_hi = max(0, m - (n - j - 1)), min(j + 1, m)
        width = 1 << j
        children = np.empty((new_hi - new_lo + 1, width, 2), dtype=np.int64)
        for k in range(new_lo, new_hi + 1):
            keep = state[k - lo] if k <= hi else None
            for b in (0, 1):
                out = children[k - new_lo, :, b]
                grow = state[k - 1 - lo] if k and ybits[k - 1] == b else None
                if grow is None and keep is None:
                    out.fill(0)
                elif grow is None:
                    out[...] = keep
                elif keep is None:
                    out[...] = grow
                else:
                    np.add(keep, grow, out=out)
        state = children.reshape(new_hi - new_lo + 1, 2 * width)
        lo, hi = new_lo, new_hi
    return state[0]


def walk_table(n: int, m: int) -> dict[str, tuple[int, str]]:
    """{y: (max_x #(x, y), numeral-smallest maximizer x)} for every y in
    {0,1}^m, one `prefix_walk_counts` sweep per y, no symmetry folding."""
    out = {}
    for v in range(1 << m):
        y = BinarySequence.from_numeral(v, m)
        counts = prefix_walk_counts(y, n)
        star = BinarySequence.from_numeral(int(counts.argmax()), n)
        out[y.to_string()] = (int(counts.max()), star.to_string())
    return out


def split_counts_solve(reps: list, m: int, n: int) -> list:
    """(rep, max_count, stars) per rep numeral of length m, as
    `delcap.mdm._solve_class` returns them with ties, from the dense
    `split_counts` blocks: each rep's maximum and the set of its
    maximizers.  stars maps every member g y of the rep's orbit (g the
    identity, complement, reversal or both, applied to the text) to the
    smallest of g applied to that set."""
    best, argmax = [-1] * len(reps), [[] for _ in reps]
    for first, x0, block in split_counts(reps, m, n):
        for c, row in enumerate(block, first):
            top = int(row.max())
            if top > best[c]:
                best[c], argmax[c] = top, []
            if top == best[c]:
                argmax[c] += (np.flatnonzero(row == top) + x0).tolist()
    moves = (lambda t: t, flip_text, lambda t: t[::-1], lambda t: flip_text(t[::-1]))
    out = []
    for rep, top, xs in zip(reps, best, argmax):
        texts = [numeral_text(x, n) for x in xs]
        stars = {
            int(g(numeral_text(rep, m)) or "0", 2): min(int(g(t) or "0", 2) for t in texts)
            for g in moves
        }
        out.append((rep, top, stars))
    return out


def walk_channel_matrix(n: int, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense (W, h) built column by column from `prefix_walk_counts`: row x,
    column 2^m - 1 + v for output v of length m, h[x] = sum_y w ln w summed
    in column order."""
    w = np.empty((1 << n, (1 << (n + 1)) - 1), dtype=np.float64)
    h = np.zeros(1 << n)
    column = 0
    for m in range(n + 1):
        scale = (1.0 - d) ** m * d ** (n - m)
        for v in range(1 << m):
            y = BinarySequence.from_numeral(v, m)
            col = prefix_walk_counts(y, n) * scale
            w[:, column] = col
            h += col * np.log(col + (col == 0.0))
            column += 1
    return w, h


def dense_fold(n: int, d: float) -> ChannelMatrix:
    """The dense channel of `walk_channel_matrix` as the trivial fold: every
    input and every output is its own class, t = s = 1."""
    w, h = walk_channel_matrix(n, d)
    return ChannelMatrix(n=n, d=d, w=w, h=h, t=np.ones(w.shape[1]), s=np.ones(w.shape[0]))


def _partitions(m: int):
    """Non-increasing positive partitions of m."""
    stack: list[int] = []

    def rec(remaining: int, cap: int):
        if remaining == 0:
            yield tuple(stack)
            return
        for part in range(min(cap, remaining), 0, -1):
            stack.append(part)
            yield from rec(remaining - part, part)
            stack.pop()

    yield from rec(m, m)


def partition_dup_sum_assign_by_length(m: int, base: int, extra: int):
    """Longest-runs assignment summed over all y, exactly.

    The handout depends only on the sorted run lengths, so group sequences
    by run-length partition: a partition with k parts and multiplicities a_l
    covers 2 * k! / prod(a_l!) sequences.
    """
    total = 0
    for parts in _partitions(m):
        left = extra
        weight = 1
        for l in parts:  # already non-increasing
            e = min(left, l)
            left -= e
            weight *= math.comb(l * base + e, l)
        arrangements = math.factorial(len(parts))
        mult: dict[int, int] = {}
        for l in parts:
            mult[l] = mult.get(l, 0) + 1
        for a in mult.values():
            arrangements //= math.factorial(a)
        total += 2 * arrangements * weight
    return total


def full_dp_dup_sum_assign_by_length(m: int, extra: int, w: tuple) -> int:
    """Longest-runs assignment summed over all y, exactly.

    The handout depends only on the sorted run lengths, so a DP takes the
    run lengths l = m, m-1, ..., 1 in turn and decides how many parts a of
    length l the run multiset has.  Extras go to the longest runs first, so
    once the parts chosen so far cover s = m - t bits of y the leftover is
    max(0, extra - s): it is implied by t and is not part of the state.
    The state is (t remaining, k parts so far); each added l-part multiplies
    the weight by the run weight w[l][e] with e = min(left, l), and adding a
    parts to k multiplies the orderings by C(k+a, a), read from a Pascal
    table, whose product over lengths is k!/prod(a_l!).  At step l every
    part so far is longer than l, so k <= (m-t) // (l+1), which bounds the
    work by about m^3/6 multiply-adds.  Updating in place with t ascending
    is safe: a step only writes to smaller t, already read this round.
    """
    # pascal[k][a] = C(k+a, a) for k + a <= m: each row is the prefix sums of the last
    pascal = [[1] * (m + 1)]
    for k in range(m):
        pascal.append(list(itertools.accumulate(pascal[k][: m - k])))
    g = [[0] * (m + 1) for _ in range(m + 1)]
    g[m][0] = 1
    for l in range(m, 0, -1):
        wl = w[l]
        for t in range(l, m + 1):
            top = max(0, extra - (m - t))
            for k in range((m - t) // (l + 1) + 1):
                acc = g[t][k]
                if not acc:
                    continue
                left, ck = top, pascal[k]
                for a in range(1, t // l + 1):
                    e = left if left < l else l
                    left -= e
                    acc *= wl[e]
                    g[t - a * l][k + a] += acc * ck[a]
    return 2 * sum(g[0])


def lambda_run_weight(n: int, m: int, approach: DupApproach):
    """w(l, e): the ways an l-run of y embeds in its stretched run.

    The stretched run has l*base + e bits, base = n // m and e of the
    leftover bits, so w = C(l*base + e, l).  Candidate and y have equally
    many runs, so the i-th run of y can only land in the i-th stretched run
    and a candidate's count is the product of w over the runs of y.  The
    Gamma estimate of a fractional F = n / m generalizes C(l*F, l) to
    Gamma(l*F+1) / (Gamma(l+1) Gamma(l*F-l+1)) and ignores e.
    """
    base, extra = divmod(n, m)
    if extra and approach is DupApproach.GAMMA:
        F = n / m
        return lambda l, _e: math.exp(
            math.lgamma(l * F + 1) - math.lgamma(l + 1) - math.lgamma(l * F - l + 1)
        )
    return lambda l, e: math.comb(l * base + e, l)


def lambda_dup_sum(n: int, m: int, approach: DupApproach) -> Union[int, float]:
    """The `dup_estimate` count summed over all y in {0,1}^m, by recurrence.

    Two recurrences, because the two handouts depend on different things:
    assign-to-last on the order of the runs, assign-by-length only on the
    sorted multiset of their lengths.  Integer factors and the Gamma
    estimate hand out nothing and take the first.
    """
    if not 1 <= m <= n:
        raise ValueError(f"output length {m} outside [1, {n}]")
    base, extra = divmod(n, m)
    if extra and approach is DupApproach.ASSIGN_BY_LENGTH:
        return lambda_dup_sum_assign_by_length(m, base, extra)
    if approach is DupApproach.GAMMA:
        extra = 0
    return lambda_dup_sum_assign_to_last(m, extra, lambda_run_weight(n, m, approach))


def lambda_dup_sum_assign_to_last(m: int, extra: int, weight):
    """sum over y in {0,1}^m of the product over the runs of y of weight(l, e).

    e is the number of the `extra` leftover bits handed to an l-run, trailing
    runs first.  Peeling runs from the end keeps the handout deterministic:
    the final run takes e = min(left, l), so the state is (remaining length,
    leftover bits) and g(t, r) = sum_l weight(l, e) g(t-l, r-e); the factor
    2 counts the starting bit, after which run values are forced.
    """
    h = [[0] * (extra + 1) for _ in range(m + 1)]
    h[0][0] = 1
    for t in range(1, m + 1):
        for r in range(extra + 1):
            acc = 0
            for l in range(1, t + 1):
                e = min(r, l)
                acc += weight(l, e) * h[t - l][r - e]
            h[t][r] = acc
    return 2 * h[m][extra]


def lambda_dup_sum_assign_by_length(m: int, base: int, extra: int):
    """Longest-runs assignment summed over all y, exactly.

    The handout depends only on the sorted run lengths, so a DP takes the
    run lengths l = m, m-1, ..., 1 in turn and decides how many parts a of
    length l the run multiset has.  Extras go to the longest runs first, so
    once the parts chosen so far cover s = m - t bits of y the leftover is
    max(0, extra - s): it is implied by t and is not part of the state.
    The state is (t remaining, k parts so far); each added l-part multiplies
    the weight by the run weight C(l*base + e, l) with e = min(left, l)
    (written out: this DP only ever uses the binomial weight, and a call per
    part slows its innermost loop), and adding a parts to k multiplies the
    orderings by C(k+a, a), whose product over lengths is k!/prod(a_l!).
    Updating in place with t ascending is safe: a step only writes to
    smaller t, already read this round.
    """
    g = [[0] * (m + 1) for _ in range(m + 1)]
    g[m][0] = 1
    for l in range(m, 0, -1):
        for t in range(l, m + 1):
            for k in range(m - t + 1):
                acc = g[t][k]
                if not acc:
                    continue
                left = max(0, extra - (m - t))
                for a in range(1, t // l + 1):
                    e = min(left, l)
                    left -= e
                    acc *= math.comb(l * base + e, l)
                    g[t - a * l][k + a] += acc * math.comb(k + a, a)
    return 2 * sum(g[0])


def dup_count_formula(y: BinarySequence, F: int) -> int:
    """prod_l C(l*F, l)^(R_l) over the run-length profile of y.

    Equals #(x_dup, y) for the candidate that repeats each bit F times.
    """
    if F < 1:
        raise ValueError(f"repeat factor must be >= 1, got {F}")
    out = 1
    for l, r in Counter(l for _, l in runs(y)).items():
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
        for l, r in Counter(l for _, l in runs(y)).items():
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


def text_dup_estimate(
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


def direct_input_divergences(w, p: np.ndarray) -> np.ndarray:
    """D_j = sum_y w[j,y] ln(w[j,y]/q(y)) in nats over a dense channel
    (`dense_fold`); rows with p_j = 0 are zeroed.

    q(y) can vanish only where every supported input has w = 0, so the
    masked rows are exactly the ones whose divergence is irrelevant to both
    the mutual information and the multiplicative update.
    """
    q = p @ w.w
    # in place, so an iteration holds one matrix-sized temporary beside W
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = np.divide(w.w, q)
        np.log(contrib, out=contrib)
        np.multiply(w.w, contrib, out=contrib)
    np.copyto(contrib, 0.0, where=w.w <= 0.0)
    D = contrib.sum(axis=1)
    return np.where(p > 0.0, D, 0.0)


def masked_input_divergences(w, p: np.ndarray) -> np.ndarray:
    """D_C = h_C - sum_O t_O w[C,O] ln q_O nats, for every class C; +inf where
    some O with w[C,O] > 0 has q_O = 0, only possible off support."""
    q = p @ w.w
    dead = q <= 0.0
    D = w.h - w.w @ (np.log(q, out=np.zeros_like(q), where=~dead) * w.t)
    if dead.any():
        D[(w.w[:, dead] > 0.0).any(axis=1)] = np.inf
    return D


def masked_step(w, p: np.ndarray) -> tuple[np.ndarray, float]:
    """(D, mutual information in nats) of class masses p; D_C is 0 where
    p_C = 0, which leaves the information and the update p_C exp(D_C) as is."""
    D = np.where(p > 0.0, masked_input_divergences(w, p), 0.0)
    return D, float(p @ D)


def relaxation(last: float, gap: float) -> float:
    """The step factor mu from the previous and current brackets
    max_j D_j - info (nats): 1 when there is no finite positive previous
    bracket or the current one is not finite, 2 when the bracket did not
    shrink, else Aitken's 1 / (1 - gap / last), at most 2."""
    if not (math.isfinite(last) and math.isfinite(gap)) or last <= 0.0:
        return 1.0
    if gap >= last:
        return 2.0
    return min(2.0, last / (last - gap))


def reweight(p: np.ndarray, D: np.ndarray, mu: float = 1.0) -> np.ndarray:
    """The multiplicative update p_j exp(mu D_j), normalized to sum 1."""
    new = p * np.exp(mu * D)
    return new / new.sum()


def _masked_scores(w, p: np.ndarray) -> tuple[np.ndarray, float]:
    """`masked_step` after zeroing, in place, every p_C so small that an
    output only C reaches has underflowed to q_O = 0 (D_C = +inf)."""
    D, info = masked_step(w, p)
    while math.isinf(info):
        p[np.isinf(D)] = 0.0
        D, info = masked_step(w, p)
    return D, info


def newton_direction(w, p: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Newton's step du in ln p on the KKT system D_C = lambda, sum p = 1:
    du = y - (p . y) 1 with J y = D, J = (w diag(t / q) w^T) diag(p) formed
    in one product, allocating."""
    B = w.w * np.sqrt(w.t / (p @ w.w))
    y = np.linalg.solve(B @ B.T * p, D)
    return y - p @ y


def newton_candidate(w, p: np.ndarray, D: np.ndarray, info: float, gap: float, scores=None):
    """(p, D, information) of the first `reweight(p, du, 2^-k)`, k = 0 to
    NEWTON_HALVINGS, every p_C / s_C raised to at least MASS_FLOOR, with a finite
    information not below `info` by more than NEWTON_SLACK bits per symbol
    and a bracket below `gap`; None when there
    is none or J is singular.  `scores` maps p to (D, information), by
    default `masked_step`."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            du = newton_direction(w, p, D)
        except np.linalg.LinAlgError:
            return None
        for k in range(NEWTON_HALVINGS + 1):
            new = reweight(p, du, 0.5**k)
            new = np.maximum(new, MASS_FLOOR * w.s)
            new_D, new_info = (scores or masked_step)(w, new)
            top = float(new_D.max())
            least = info - NEWTON_SLACK * w.n * math.log(2.0)
            if math.isfinite(top) and new_info >= least and top - new_info < gap:
                return new, new_D, new_info
    return None


class NewtonSchedule:
    """When a Newton step is due: first after 2^(n-3) iterations, at once
    after an accepted step, and 2^(n-3) * 2^(k-1) iterations after the k-th
    rejection in a row."""

    def __init__(self, n: int):
        self.wait = 1 << max(n - 3, 0)
        self.due, self.misses = self.wait, 0

    def record(self, iterations: int, accepted: bool) -> None:
        if accepted:
            self.due, self.misses = iterations + 1, 0
        else:
            self.misses += 1
            self.due = iterations + (self.wait << (self.misses - 1))


def masked_run(w, p: np.ndarray, tol: float = 1e-10, max_iter: int = 20000):
    """(history in bits per symbol, last p scored, converged) of the loop on
    `masked_step` from a copy of p: a `newton_candidate` when the
    `NewtonSchedule` has one due and it is accepted, else `reweight` by the
    `relaxation` of the last two brackets with every p_C / s_C raised to at
    least MASS_FLOOR."""
    scale = w.n * math.log(2.0)
    p, history, last = np.array(p, dtype=np.float64), [], math.nan
    schedule = NewtonSchedule(w.n)
    D, info = masked_step(w, p)
    while True:
        history.append(info / scale)
        gap = float(D.max()) - info
        converged = gap / scale <= tol
        if converged or len(history) == max_iter:
            return history, p, converged
        mu, last = relaxation(last, gap), gap
        if len(history) >= schedule.due:
            step = newton_candidate(w, p, D, info, gap)
            schedule.record(len(history), step is not None)
            if step is not None:
                p, D, info = step
                continue
        p = np.maximum(reweight(p, D, mu), MASS_FLOOR * w.s)
        D, info = masked_step(w, p)


def plain_run(w, p: np.ndarray, tol: float = 1e-10, max_iter: int = 20000):
    """(history in bits per symbol, last p scored, converged) of the plain
    update p exp(D) / sum from a copy of p, the loop that over-relaxation
    replaced; for speed the divergences are taken unmasked, and from
    `masked_step` only when the information is not finite or some p_C is 0;
    a run whose support shrank below that of the start is not converged."""
    scale = w.n * math.log(2.0)
    p, history = np.array(p, dtype=np.float64), []
    support = int((p > 0.0).sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            D = w.h - w.w @ (np.log(p @ w.w) * w.t)
            info = float(p @ D)
            if not (math.isfinite(info) and p.all()):
                D, info = _masked_scores(w, p)
            history.append(info / scale)
            gap = float(D.max()) - info
            converged = gap / scale <= tol and int((p > 0.0).sum()) == support
            if converged or len(history) == max_iter:
                return history, p, converged
            p = reweight(p, D)


def transition_probability(x: BinarySequence, y: BinarySequence, d: float) -> float:
    """W(y|x) for an i.i.d. deletion channel: #(x,y) * (1-d)^len(y) * d^(len(x)-len(y))."""
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"deletion probability {d} outside [0, 1]")
    n, m = len(x), len(y)
    if m > n:
        raise ValueError(f"output longer than input ({m} > {n})")
    return count_deletion_patterns(x, y) * (1.0 - d) ** m * d ** (n - m)


def mu_d(y: BinarySequence, d: float) -> float:
    """(1/2) sum_l R_l ln((2 pi / e)^2 * d * l) over the run profile of y."""
    if not 0.0 < d < 1.0:
        raise ValueError(f"parameter {d} outside (0, 1)")
    total = 0.0
    for l, r in Counter(l for _, l in runs(y)).items():
        total += r * math.log((2.0 * math.pi / math.e) ** 2 * d * l)
    return 0.5 * total


def expected_runs(m: int, ell: int) -> float:
    """Mean number of ell-runs in a uniform length-m sequence: m / 2^(ell+1).

    This is the infinite-sequence rate; see expected_runs_exact for the
    boundary-corrected value.
    """
    if not 1 <= ell <= m:
        raise ValueError(f"run length {ell} outside [1, {m}]")
    return m / 2 ** (ell + 1)


def expected_runs_exact(m: int, ell: int) -> float:
    """Exact mean number of ell-runs in a uniform length-m sequence.

    Maximal runs at the two boundaries are half as constrained as interior
    ones, which lifts the rate to (m - ell + 3) / 2^(ell+1) for ell < m; the
    two constant sequences give 2^(1-m) at ell = m.
    """
    if not 1 <= ell <= m:
        raise ValueError(f"run length {ell} outside [1, {m}]")
    if ell == m:
        return 2.0 ** (1 - m)
    return (m - ell + 3) / 2 ** (ell + 1)
