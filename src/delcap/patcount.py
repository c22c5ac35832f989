"""Deletion-pattern counting.

#(x, y) is the number of deletion patterns taking x to y: binary masks over
the positions of x, of weight len(x) - len(y), whose surviving positions
spell y.  Equivalently it is the number of distinct embeddings of y as a
subsequence of x.  The scalar routines return exact Python ints.  The
all-inputs kernel takes outputs as numerals and splits every input at the
middle: `split_tables` walks the scalar DP over all half-length prefixes
and, from the last symbol, all half-length suffixes of x, and the counts of
all 2^n inputs are one product of the two tables per output.  The tables
stay band-major, pre[i, j, u] = #(u, y[:lo + j]) and
suf[i, j, v] = #(v, y[lo + j:]), from the walk to that product
pre[i].T @ suf[i], with no copy.  Each walk starts from a gather out of a
cached table of the counts of every input of its first TABLE_LEN symbols
(`_count_table`, 128 KiB per process) and steps only the symbols past them.
`split_counts` takes that product whole, in blocks within a byte budget,
for the channel matrix and `counts_for_all_inputs`; `class_blocks`, for the
class solve, bounds the rows of every output of a table batch at once
(`row_bounds`) and multiplies out only the rows that can hold an output's
maximum, for the outputs of a batch together in stacked products below
PRUNE_MIN_N, and from it on one output at a time with `pruned_blocks`,
which drops columns too; it names each block's inputs by numeral.
Tables, products and bounds are integers of at most
C(n, m) < 2^24 for n <= VECTOR_MAX_N, so they stay in float32, exactly,
from the walk to the product.

Two independent routes are provided on purpose: a prefix dynamic program
(`count_deletion_patterns`) and a brute-force enumerator over kept-position
subsets (`count_deletion_patterns_oracle`).  Tests cross-check one against
the other; do not merge them.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .bitseq import BinarySequence, CapExceededError

# Subset enumeration costs C(n, m) passes; past 20 bits it stops being a
# practical oracle.
ORACLE_MAX_N = 20

# The largest n measured (README); float32 counts stay exact up to n = 26.
VECTOR_MAX_N = 24
COUNT_DTYPE = np.dtype(np.float32)

# Working set of one split kernel call: tables in 3/4, a product block in 1/4.
SPLIT_BYTES = 1 << 18

# First n whose classes are pruned one at a time, columns too; README has
# the measured trade-off.
PRUNE_MIN_N = 18

# Every walk starts from a cached count table of all inputs of its first
# TABLE_LEN symbols, 4 * 2^L * 2^(L+1) bytes at L symbols: TABLE_LEN is the
# largest L within half of SPLIT_BYTES, 7 (128 KiB).  A table is built on
# first use, not at import, and each process (each pool worker too) keeps
# one per walk length it has used: the 128 KiB one alone for n >= 14, all
# eight together under 171 KiB.
TABLE_LEN = max(
    L for L in range(VECTOR_MAX_N // 2 + 1) if COUNT_DTYPE.itemsize << (2 * L + 1) <= SPLIT_BYTES // 2
)


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


@functools.cache
def _count_table(length: int) -> np.ndarray:
    """T[w, 2^k - 1 + z] = #(w, z) for every input numeral w < 2^length and
    every output numeral z of length k <= length, read-only.

    Column 2^k - 1 + z is z's node in a binary heap: the column of z' c is
    2 * col(z') + 1 + c.  One more column, the last, is all zeros.  Each
    table comes from the one a symbol shorter by the walk's recurrence
    #(w' b, z' c) = #(w', z' c) + [b = c] #(w', z'), where #(w', z' c) is
    0 when z' c is longer than w'.  T is stored by column (T.T is
    C-contiguous), so a walk's start is a gather of whole columns.
    """
    table = np.array([[1], [0]], dtype=COUNT_DTYPE)
    for level in range(1, length + 1):
        # inputs 2 w' + b, built in place: no temporary beside the two tables
        grown = np.zeros((2 << level, 1 << (level - 1), 2), dtype=COUNT_DTYPE)
        grown[: len(table)] = table[:, :, None]
        grown[1::2, :, 0] += table
        grown[2::2, :, 1] += table[:-1]
        table = grown.reshape(-1, 1 << level)
    table.setflags(write=False)
    return table.T


def _walk(sym: np.ndarray, length: int, rows: int, append: bool) -> np.ndarray:
    """T[c, k, w] = #(x, y_c[:k]) for every length-symbol input x and k < rows.

    sym[c] holds the symbols of y_c.  The walk runs the scalar DP over all
    inputs at once, one level per input symbol: a child's row k is its
    parent's row k plus, where y_c[k-1] is the new symbol, its parent's row
    k-1.  Each new symbol becomes the trailing bit of the lane index w with
    append, so w is the numeral of x, and the leading bit without, so w is
    the numeral of x read backwards.

    The first start = min(length, TABLE_LEN) levels are one gather from the
    cached `_count_table(start)` (128 KiB at 7, per process, outside the
    SPLIT_BYTES working set): row k reads y_c[:k]'s column, forwards with
    append and backwards without (#(x, z) is #(x reversed, z reversed)), or
    the zero column for k > start.  The gathered state, 4 bytes per row and
    lane, is below the 6 of a level; at start = 0 it is row 0 = 1.  A walk
    of at most TABLE_LEN symbols is that gather alone.

    The rows of every output follow one another along axis 0, so a level
    is three operations on whole 2-D views per new symbol; shifting by one
    row along axis 0 also moves one output's last row into the next one's
    row 0, which row 0's zero growth cancels.  Entries are at most
    C(length, k) <= 2^length, exact in float32 for length <= 24.
    """
    count = sym.shape[0]
    lane = count * rows
    start = min(length, TABLE_LEN)
    table = _count_table(start)
    # cols[c, k] = 2^k - 1 + the numeral of y_c[:k] = the sum over i < k of
    # (1 + y_c[i]) * 2^(k-1-i) read forwards, * 2^i read backwards; forwards
    # the sum is taken at weights 2^(known-1-i) and shifted down to k's
    known = min(rows - 1, start)
    shift = np.arange(known)[::-1] if append else np.arange(known)
    cols = np.full((count, rows), table.shape[1] - 1)
    cols[:, 0] = 0
    cols[:, 1 : known + 1] = np.cumsum((1 + sym[:, :known]) << shift, axis=1)
    if append:
        cols[:, 1 : known + 1] >>= shift
    state = table.T[cols]
    if start == length:
        return state
    # grow[c, k, b] = 1 where y_c[k-1] == b; row 0 (empty prefix of y) never grows
    grow = np.zeros((count, rows, 2), dtype=COUNT_DTYPE)
    grow[:, 1:] = sym[:, : rows - 1, None] == [0, 1]
    grow = grow.reshape(lane, 2)[1:]
    state = state.reshape(lane, -1)
    for j in range(start, length):
        # child numeral 2 * w + b with append, b * 2^j + w without
        children = np.empty((lane, 1 << j, 2) if append else (lane, 2, 1 << j), dtype=COUNT_DTYPE)
        for b in range(2):
            child = children[:, :, b] if append else children[:, b]
            np.multiply(grow[:, b : b + 1], state[:-1], out=child[1:])
            child[1:] += state[1:]
            child[0] = state[0]
        state = children.reshape(lane, 2 << j)
    return state.reshape(count, rows, -1)


def block_rows(width: int) -> int:
    """Rows of `width` COUNT_DTYPE entries that fit the last quarter of
    SPLIT_BYTES, the product block's share (>= 1)."""
    return max(1, SPLIT_BYTES // 4 // (COUNT_DTYPE.itemsize * width))


def split_batch(n: int, m: int) -> int:
    """Outputs of length m whose split tables fit 3/4 of SPLIT_BYTES (>= 1).

    Both walks keep at most R = min(m, n - n//2) + 1 rows of float32.  A
    walk's last level holds its parent level and its children, 6R bytes per
    lane, and the tables are views of the children; each output is charged
    8R bytes per lane of both tables all the same, which keeps the batch
    sizes measured before the tables became views.  It must stay while
    `split_counts` shares it: the batch bounds fix the channel build's
    blocks and so the order in which it sums h.  Doubled batches left w
    bit-identical but moved h by up to 1.2e-15 (relative) at n = 11 and
    12, and batches 1.85x as large moved it at n = 10 too.  A walk's start
    state, gathered from the cached count table, holds 4R bytes per lane,
    under the 6R charged; the cached table itself is not charged.
    """
    a, b = n // 2, n - n // 2
    table_bytes = 2 * COUNT_DTYPE.itemsize * (min(m, b) + 1) * ((1 << a) + (1 << b))
    return max(1, (SPLIT_BYTES - SPLIT_BYTES // 4) // table_bytes)


def split_tables(ys, m: int, n: int):
    """The prefix and suffix tables of every output in ys, one batch at a time.

    ys holds the numerals of length-m outputs (a list, a range or an int
    array).  Returns an iterator of (first, pre, suf), one per batch of
    `split_batch(n, m)` outputs, with pre[i, j, u] = #(u, y[:lo + j]) and
    suf[i, j, v] = #(v, y[lo + j:]) for y = ys[first + i], as exact
    COUNT_DTYPE integers of shapes (count, band, 2^a) and (count, band,
    2^b): band-major views of the walks, the input numeral contiguous.

    Split x = u v with u its a = floor(n/2) leading and v its b = n - a
    trailing symbols.  A deletion pattern of x splits into one of u and one
    of v, and the survivors spell y exactly when u's spell y[:k] and v's
    spell y[k:] for k = the survivors in u, so
    #(uv, y) = sum_k #(u, y[:k]) * #(v, y[k:]).  Only the band
    k in [lo, hi] = [max(0, m - b), min(a, m)] can contribute.  The prefix
    table comes from a walk over u's symbols; the suffix table from the same
    walk run over y and v from their last symbols.  Both are indexed by
    numeral, so the counts of every x = u * 2^b + v are pre[i].T @ suf[i].
    A batch's tables and walk temporaries fit three quarters of
    SPLIT_BYTES; an output whose tables alone exceed that still makes a
    batch of one.
    """
    if m > n:
        raise ValueError(f"output longer than input ({m} > {n})")
    if n > VECTOR_MAX_N:
        raise CapExceededError(f"vector sweep capped at n <= {VECTOR_MAX_N}, got {n}")
    return _walk_tables(ys, m, n)


def _walk_tables(ys, m: int, n: int):
    a, b = n // 2, n - n // 2
    lo, hi = max(0, m - b), min(a, m)
    shifts = np.arange(m - 1, -1, -1)
    size = split_batch(n, m)
    for first in range(0, len(ys), size):
        sym = (np.asarray(ys[first : first + size], dtype=np.int64)[:, None] >> shifts) & 1
        pre = _walk(sym, a, hi + 1, append=True)[:, lo:]
        # the suffix walk runs over y and v from their last symbols, so its
        # lanes are v and its row t counts y's last t symbols: row m - k
        # pairs with prefix row k
        suf = _walk(sym[:, ::-1], b, m - lo + 1, append=False)[:, m - hi :][:, ::-1]
        yield first, pre, suf


def split_counts(ys, m: int, n: int):
    """#(x, y) for every x in {0,1}^n and every y in ys, in bounded blocks.

    ys holds the numerals of length-m outputs (a list, a range or an int
    array).  Returns an iterator of (first, x0, block) with
    block[i, r] = #(x0 + r, ys[first + i]) as exact COUNT_DTYPE integers;
    the blocks cover every (y, x) pair once, in order of y and then of x.
    They are the dense products pre^T @ suf of the `split_tables`.

    That product is exact in float32 whatever order the sums take: every
    term and every partial sum is a non-negative integer at most the full
    sum, and sum_k C(a, k) C(b, m - k) = C(n, m) (Vandermonde) bounds it,
    which is at most 2^24 for every n <= 26, and float32 holds every
    integer up to 2^24.

    Each block (the whole products of several outputs, or rows u of one
    output's) fits the last quarter of SPLIT_BYTES.  The tables of a batch
    fit the other three quarters unless one output's alone exceed them,
    which happens from n = 21 on (see `split_batch`).
    """
    return _split_blocks(split_tables(ys, m, n), n)


def _split_blocks(tables, n: int):
    b = n - n // 2
    # a block is the whole products of `outs` outputs when one fits the
    # quarter (step then spans every row u), else `step` rows u of one
    outs, step = block_rows(1 << n), block_rows(1 << b)
    for first, pre, suf in tables:
        # per output: (2^a, band) @ (band, 2^b), rows u and columns v
        pre = pre.transpose(0, 2, 1)
        for c in range(0, len(pre), outs):
            for u in range(0, pre.shape[1], step):
                block = np.matmul(pre[c : c + outs, u : u + step], suf[c : c + outs])
                yield first + c, u << b, block.reshape(len(block), -1)


def row_bounds(pre: np.ndarray, suf: np.ndarray):
    """(ub, row) for the band-major `split_tables` of several outputs,
    pre[c, j, u] and suf[c, j, v]: the row bound and first incumbent row of
    the split search of Horowitz and Sahni.

    No entry of row u of output c's product pre[c]^T @ suf[c] exceeds
    ub[c, u] = pre[c, :, u] . max_v suf[c, :, v] (the maximum taken per band
    row), and row[c] is the row of that product at the argmax of ub[c], so
    none of its entries exceeds output c's maximum.  Both take 4 bytes per
    lane of the tables of every output.
    """
    ub = np.matmul(suf.max(axis=2)[:, None], pre)[:, 0]
    # suf's band runs backwards, and the product takes it in walk order (a
    # view BLAS can read) and the prefix column gathered reversed
    top = pre[np.arange(len(pre)), ::-1, ub.argmax(axis=1)]
    return ub, np.matmul(top[:, None], suf[:, ::-1])[:, 0]


def pruned_blocks(pre: np.ndarray, suf: np.ndarray, ub_u: np.ndarray, row: np.ndarray):
    """Blocks of one output's product pre^T @ suf that hold every maximal entry.

    pre[j, u] and suf[j, v] are one output's band-major `split_tables`, and
    ub_u and row its row bound and first incumbent row from `row_bounds`.
    Returns an iterator of (us, vs, pre[:, us]^T @ suf[:, vs]), in order of
    u.  Likewise no entry of column v exceeds ub_v[v] = suf[:, v] . max_u
    pre[:, u], and the incumbent inc, the entry that three rounds of
    alternating column and row argmax reach from row, is at most the
    maximum.  The rows and columns with bound >= inc are kept, so every
    maximizing (u, v) survives, ties included.

    Every entry, bound and partial sum is a non-negative integer at most
    C(n, m) (the Vandermonde bound of `split_counts`; a bound's terms are at
    most C(a, k) C(b, m - k)), so the float32 sums and comparisons are exact
    for n <= 26.  A block of kept rows fits the last quarter of SPLIT_BYTES
    whenever one kept row does, as a row of all 2^b columns always does at
    the default budget for n <= VECTOR_MAX_N.
    """
    ub_v = pre.max(axis=1) @ suf
    v = row.argmax()
    for _ in range(2):
        v = (pre[:, (suf[:, v] @ pre).argmax()] @ suf).argmax()
    inc = (suf[:, v] @ pre).max()
    us, vs = np.flatnonzero(ub_u >= inc), np.flatnonzero(ub_v >= inc)
    kept = suf[:, vs]
    step = block_rows(len(vs))
    for i in range(0, len(us), step):
        rows = us[i : i + step]
        yield rows, vs, pre[:, rows].T @ kept


def _kept_rows(keep: np.ndarray) -> np.ndarray:
    """us[c] = the u with keep[c, u] in increasing order, padded to the
    largest count with the u kept next in keep's row-major order (those of
    the next output, and past the last output its last u again).

    Every row of keep holds a u.  Placing them takes three int64 arrays of
    at most keep.size entries.
    """
    a = keep.shape[1].bit_length() - 1
    flat = np.flatnonzero(keep)
    counts = np.bincount(flat >> a, minlength=len(keep))
    at = (counts.cumsum() - counts)[:, None] + np.arange(counts.max())
    return flat.take(at, mode="clip") & ((1 << a) - 1)


def class_blocks(reps, m: int, n: int):
    """(cs, block, rows, cols) per block of the counts of the length-m
    outputs reps[cs], cs a range, in order of cs: block[k, i, j] =
    #(rows[k, i] | cols[j], reps[cs[k]]), rows the numerals u * 2^b and
    cols the v of the split x = u v of `split_tables`.  Each output's
    blocks hold every maximizer of it, and each block fits the last
    quarter of SPLIT_BYTES whenever one of its rows does.

    Every table batch takes its `row_bounds` at once.  Below PRUNE_MIN_N
    each output keeps the rows u with ub[c, u] >= the maximum of row[c],
    ties included, padded to the largest count K of its group by
    `_kept_rows`.  Every other row of output c has a bound below that
    entry, so a padding row adds no entry above c's maximum and no
    maximizer that c's kept rows miss.  A group is the outputs whose
    kept-row numerals fit the block share (every batch of symmetry classes
    below PRUNE_MIN_N is one), and its (outputs, K, 2^b) product goes in
    blocks of whole outputs, or of `block_rows` rows of one.  From
    PRUNE_MIN_N on each output takes its `pruned_blocks`, which drop
    columns too.  Bounds and products are exact as `pruned_blocks` says.

    Beside a batch's tables this holds their bounds, within the batch's
    charge (`split_batch`), one group's kept rows and their numerals, the
    column numerals and the block being made; no name here holds a
    yielded block while the next one is made.  A full batch at n = 14 or
    17 peaks at 0.94 SPLIT_BYTES at m = 0, where every row ties.
    """
    a, b = n // 2, n - n // 2
    vs = np.arange(1 << b)
    step = block_rows(1 << b)
    # three int64 arrays of 2^a per output, 24 * 2^a bytes
    group = block_rows(6 << a)
    for first, pre, suf in split_tables(reps, m, n):
        ub, row = row_bounds(pre, suf)
        if n >= PRUNE_MIN_N:
            for c, tables in enumerate(zip(pre, suf, ub, row), first):
                for rows, cols, block in pruned_blocks(*tables):
                    yield range(c, c + 1), block[None], rows[None] << b, cols
                    del block
            continue
        keep = ub >= row.max(axis=1, keepdims=True)
        del ub, row
        # the prefix rows gathered reversed meet suf's band in walk order
        fwd = suf[:, ::-1]
        for g in range(0, len(pre), group):
            p, s, us = pre[g : g + group], fwd[g : g + group], _kept_rows(keep[g : g + group])
            kept = p[np.arange(len(p))[:, None], ::-1, us]
            cs, K = range(first + g, first + g + len(p)), us.shape[1]
            outs = max(1, step // K)
            for c in range(0, len(p), outs):
                for i in range(0, K, step):
                    yield (
                        cs[c : c + outs],
                        np.matmul(kept[c : c + outs, i : i + step], s[c : c + outs]),
                        us[c : c + outs, i : i + step] << b,
                        vs,
                    )


def counts_for_all_inputs(y: BinarySequence, n: int) -> np.ndarray:
    """#(x, y) for every x in {0,1}^n at once.

    Returns an int64 array of length 2^n indexed by the numeral value of x:
    `split_counts` for the single output y.
    """
    out = np.empty(1 << n, dtype=np.int64)
    for _, x0, block in split_counts([y.bits], len(y), n):
        out[x0 : x0 + block.shape[1]] = block[0]
    return out
