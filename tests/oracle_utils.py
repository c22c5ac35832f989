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
  `walk_channel_matrix`, the column-at-a-time channel-matrix build on it
  (bit for bit);
- `partition_dup_sum_assign_by_length`, the partition enumeration that the
  run-length DP `delcap.bounds._dup_sum_assign_by_length` replaced
  (exactly);
- `direct_input_divergences`, the matrix-wide divergence formula that the
  two matrix-vector products of `delcap.baa._input_divergences` replaced
  (to rounding).

The last section holds small formulas that nothing in the library calls,
kept with the tests that pin them: `transition_probability`, `mu_d`,
`expected_runs` and `expected_runs_exact`.

Index conventions match the library: an integer index read big-endian is
the sequence text, i.e. symbol j of index v is bit (n-1-j) of v.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from delcap import BinarySequence, CapExceededError, count_deletion_patterns, run_length_profile
from delcap.patcount import VECTOR_MAX_N


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


def walk_channel_matrix(n: int, d: float) -> tuple[np.ndarray, np.ndarray]:
    """(W, h) as `delcap.baa.build_channel_matrix` built them column by column
    from `prefix_walk_counts`, h[j] = sum_y w ln w summed in column order."""
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


def direct_input_divergences(w, p: np.ndarray) -> np.ndarray:
    """D_j = sum_y w[j,y] ln(w[j,y]/q(y)) in nats; rows with p_j = 0 are zeroed.

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
    for l, r in run_length_profile(y).counts.items():
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
