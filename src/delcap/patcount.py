"""Deletion-pattern counting.

#(x, y) is the number of deletion patterns taking x to y: binary masks over
the positions of x, of weight len(x) - len(y), whose surviving positions
spell y.  Equivalently it is the number of distinct embeddings of y as a
subsequence of x.  The scalar routines return exact Python ints.  The
all-inputs kernel (`split_counts`, and `counts_for_all_inputs` for one
output) splits every input at the middle: it walks the scalar DP over all
half-length prefixes and, from the last symbol, all half-length suffixes of
x, and takes the counts of all 2^n inputs as one product of the two tables
per output, batched over the outputs of one length within a byte budget.

Two independent routes are provided on purpose: a prefix dynamic program
(`count_deletion_patterns`) and a brute-force enumerator over kept-position
subsets (`count_deletion_patterns_oracle`).  Tests cross-check one against
the other; do not merge them.
"""

from __future__ import annotations

import itertools

import numpy as np

from .bitseq import BinarySequence, CapExceededError

# Subset enumeration costs C(n, m) passes; past 20 bits it stops being a
# practical oracle.
ORACLE_MAX_N = 20

# The split kernel's memory is bounded by SPLIT_BYTES at every n, but a
# class still costs 2^n * band multiply-adds (about 0.3 s at n = 24); 24
# matches the exhaustive search cap until a pruned search is measured past it.
VECTOR_MAX_N = 24

# Working set of the split kernel: one batch of tables (three quarters)
# plus one product block (the last quarter).  It equals the 16 * 2^n bytes
# of the prefix walk the kernel replaced at n = 14 and is below it beyond.
SPLIT_BYTES = 1 << 18


def count_deletion_patterns(x: BinarySequence, y: BinarySequence) -> int:
    """Number of deletion patterns transforming x into y.

    Rolling-row dynamic program over prefix pairs, O(len(x) * len(y)) word
    operations.  Empty y counts exactly one pattern (delete everything).
    """
    n, m = len(x), len(y)
    if m > n:
        raise ValueError(f"output longer than input ({m} > {n})")
    # row[k] = number of embeddings of y[:k] in the processed prefix of x
    row = [0] * (m + 1)
    row[0] = 1
    for j in range(n):
        xb = x.bit(j)
        for k in range(min(j + 1, m), 0, -1):
            if y.bit(k - 1) == xb:
                row[k] += row[k - 1]
    return row[m]


def count_deletion_patterns_oracle(x: BinarySequence, y: BinarySequence) -> int:
    """Same contract as count_deletion_patterns, by brute-force enumeration.

    Walks every subset of len(y) kept positions and compares the induced
    subsequence against y.  Verification oracle only; capped at
    len(x) <= ORACLE_MAX_N.
    """
    n, m = len(x), len(y)
    if m > n:
        raise ValueError(f"output longer than input ({m} > {n})")
    if n > ORACLE_MAX_N:
        raise CapExceededError(f"oracle capped at n <= {ORACLE_MAX_N}, got {n}")
    target = tuple(y)
    count = 0
    for kept in itertools.combinations(range(n), m):
        if tuple(x.bit(i) for i in kept) == target:
            count += 1
    return count


def _walk(sym: np.ndarray, length: int, rows: int, append: bool) -> np.ndarray:
    """T[w, c, k] = #(x, y_c[:k]) for every length-symbol input x and k < rows.

    sym[c] holds the symbols of y_c.  The walk runs the scalar DP over all
    inputs at once, one level per input symbol: a child's row k is its
    parent's row k plus, where y_c[k-1] is the new symbol, its parent's row
    k-1.  Each new symbol becomes the trailing bit of the lane index w with
    append, so w is the numeral of x, and the leading bit without, so w is
    the numeral of x read backwards.

    The rows of every output sit side by side in one contiguous lane, so a
    level is three whole-array operations on the lanes; shifting a lane by
    one row also moves one output's last row into the next one's row 0,
    which row 0's zero growth cancels.  Entries are at most C(length, k)
    <= 2^length, exact in float32 for length <= 24.
    """
    count = sym.shape[0]
    lane = count * rows
    # grow[b, c, k] = 1 where y_c[k-1] == b; row 0 (empty prefix of y) never grows
    grow = np.zeros((2, count, rows), dtype=np.float32)
    grow[1, :, 1:] = sym[:, : rows - 1]
    grow[0, :, 1:] = 1 - sym[:, : rows - 1]
    grow = grow.reshape(2, lane)[:, 1:]
    state = np.zeros((1, count, rows), dtype=np.float32)
    state[:, :, 0] = 1.0
    state = state.reshape(1, lane)
    for j in range(length):
        if append:  # child numeral 2 * w + b
            children = np.empty((1 << j, 2, lane), dtype=np.float32)
            old, match = state[:, None], grow[None]
        else:  # child numeral b * 2^j + w
            children = np.empty((2, 1 << j, lane), dtype=np.float32)
            old, match = state[None], grow[:, None]
        np.multiply(match, old[..., :-1], out=children[..., 1:])
        children[..., 1:] += old[..., 1:]
        children[..., 0] = old[..., 0]
        state = children.reshape(2 << j, lane)
    return state.reshape(-1, count, rows)


def split_batch(n: int, m: int) -> int:
    """Outputs of length m whose split tables fit 3/4 of SPLIT_BYTES (>= 1).

    Both walks keep at most R = min(m, n - n//2) + 1 rows of float32.  A
    walk's last level holds its parent level and its children, 6R bytes per
    lane, and its float64 band copy comes after the parent level is freed,
    so 12R bytes per lane of both tables bound one output's peak.
    """
    a, b = n // 2, n - n // 2
    table_bytes = 12 * (min(m, b) + 1) * ((1 << a) + (1 << b))
    return max(1, (SPLIT_BYTES - SPLIT_BYTES // 4) // table_bytes)


def split_counts(ys: list, n: int):
    """#(x, y) for every x in {0,1}^n and every y in ys, in bounded blocks.

    All of ys share one length m.  Returns an iterator of (first, x0, block)
    with block[i, r] = #(x0 + r, ys[first + i]) as exact float64 integers;
    the blocks cover every (y, x) pair once, in order of y and then of x.

    Split x = u v with u its a = floor(n/2) leading and v its b = n - a
    trailing symbols.  A deletion pattern of x splits into one of u and one
    of v, and the survivors spell y exactly when u's spell y[:k] and v's
    spell y[k:] for k = the survivors in u, so
    #(uv, y) = sum_k #(u, y[:k]) * #(v, y[k:]).  Only the band
    k in [max(0, m - b), min(a, m)] can contribute.  A prefix table
    P[u, k] = #(u, y[:k]) comes from a walk over u's symbols; a suffix table
    S[v, k] = #(v, y[k:]) from the same walk run over y and v from their
    last symbols.  Both are indexed by numeral, so the counts of every
    x = u * 2^b + v are the matrix product P @ S^T, taken in float64.

    That product is exact: every term and every partial sum is a
    non-negative integer at most the full sum, and
    sum_k C(a, k) C(b, m - k) = C(n, m) (Vandermonde) bounds it, which is
    below 2^53 for every n <= 56.

    The working set stays within SPLIT_BYTES: outputs are walked in batches
    of `split_batch(n, m)`, whose tables and walk temporaries fit three
    quarters of it, and each block (several outputs' whole products, or
    rows of one output's) fits the last quarter.  An output whose tables
    alone exceed the three quarters still makes a batch of one.
    """
    m = len(ys[0]) if ys else 0
    if any(len(y) != m for y in ys):
        raise ValueError("outputs of one batch must share a length")
    if m > n:
        raise ValueError(f"output longer than input ({m} > {n})")
    if n > VECTOR_MAX_N:
        raise CapExceededError(f"vector sweep capped at n <= {VECTOR_MAX_N}, got {n}")
    return _split_blocks(ys, n, m)


def _split_blocks(ys: list, n: int, m: int):
    a, b = n // 2, n - n // 2
    lo, hi = max(0, m - b), min(a, m)
    shifts = np.arange(m - 1, -1, -1)
    quarter = SPLIT_BYTES // 4
    whole = quarter // (8 << n)  # outputs whose products fit one block together
    step = max(1, quarter // (8 << b))  # else rows u of one output per block
    size = split_batch(n, m)
    for first in range(0, len(ys), size):
        batch = ys[first : first + size]
        sym = (np.array([y.bits for y in batch], dtype=np.int64)[:, None] >> shifts) & 1
        pre = _walk(sym, a, hi + 1, append=True)[:, :, lo:]
        pre = np.ascontiguousarray(pre, dtype=np.float64)
        # the suffix walk runs over y and v from their last symbols, so its
        # lanes are v and its row t counts y's last t symbols: row m - k
        # pairs with prefix row k
        suf = _walk(sym[:, ::-1], b, m - lo + 1, append=False)[:, :, m - hi :][:, :, ::-1]
        suf = np.ascontiguousarray(suf, dtype=np.float64)
        # per output: (2^a, band) @ (band, 2^b), rows u and columns v
        pre, suf = pre.transpose(1, 0, 2), suf.transpose(1, 2, 0)
        if whole:
            for c in range(0, len(batch), whole):
                block = np.matmul(pre[c : c + whole], suf[c : c + whole])
                yield first + c, 0, block.reshape(len(block), -1)
        else:
            for c in range(len(batch)):
                for u in range(0, 1 << a, step):
                    block = pre[c, u : u + step] @ suf[c]
                    yield first + c, u << b, block.reshape(1, -1)


def counts_for_all_inputs(y: BinarySequence, n: int) -> np.ndarray:
    """#(x, y) for every x in {0,1}^n at once.

    Returns an int64 array of length 2^n indexed by the numeral value of x:
    `split_counts` for the single output y.
    """
    out = np.empty(1 << n, dtype=np.int64)
    for _, x0, block in split_counts([y], n):
        out[x0 : x0 + block.shape[1]] = block[0]
    return out
