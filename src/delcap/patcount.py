"""Deletion-pattern counting.

#(x, y) is the number of deletion patterns taking x to y: binary masks over
the positions of x, of weight len(x) - len(y), whose surviving positions
spell y.  Equivalently it is the number of distinct embeddings of y as a
subsequence of x.  The scalar routines return exact Python ints; the
all-inputs kernel (`counts_for_all_inputs`) uses int64, which holds every
reachable count (the maximum at n <= 63 is C(63, 31) < 2^63).  The kernel
runs the same DP as `count_deletion_patterns`, walked over input prefixes
with one vector lane per prefix and only the DP rows that can still reach
len(y).

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

# The prefix walk peaks at 2 * 2^n int64 values (256 MiB at n = 24); 24
# matches the exhaustive search cap.
VECTOR_MAX_N = 24


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


def transition_probability(x: BinarySequence, y: BinarySequence, d: float) -> float:
    """W(y|x) for an i.i.d. deletion channel: #(x,y) * (1-d)^len(y) * d^(len(x)-len(y))."""
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"deletion probability {d} outside [0, 1]")
    n, m = len(x), len(y)
    if m > n:
        raise ValueError(f"output longer than input ({m} > {n})")
    return count_deletion_patterns(x, y) * (1.0 - d) ** m * d ** (n - m)


def counts_for_all_inputs(y: BinarySequence, n: int) -> np.ndarray:
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
    int64 values (16 * 2^n bytes, the result included).  This is the kernel
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
