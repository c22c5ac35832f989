"""Duplication sums: the duplication estimate summed over all outputs.

The duplication candidate of an output y stretches every run of y by the
factor n / m, so its pattern count is a product of one run weight per run
of y (`mdm._dup_rows` builds the candidates).  `dup_sum` sums that count
over all y in {0,1}^m by a recurrence over runs, without enumerating y;
the duplication bound of `bounds` takes its log.  When m does not divide n
the stretch is fractional and `DupApproach` picks how the n % m leftover
bits are handed out.  The recurrences and the candidates read one cached
table of run weights per (n, m), or for the Gamma estimate of a fractional
factor its own, `_run_weights`.  Pure Python: nothing here needs numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from enum import Enum
from typing import Union


class DupApproach(str, Enum):
    """How to place the leftover bits when len(y) does not divide n."""

    ASSIGN_TO_LAST = "assign-to-last"
    ASSIGN_BY_LENGTH = "assign-by-length"
    GAMMA = "gamma"


def _run_weights(n: int, m: int, approach: DupApproach) -> tuple:
    """w[l][e]: the ways an l-run of y embeds in its stretched run, 0 <= l <= m.

    The stretched run has l*base + e bits, base = n // m and e of the
    leftover bits, 0 <= e <= min(l, n % m), so w[l][e] = C(l*base + e, l);
    each row holds e <= n % m, with 0 past e = l, so the rows stack.
    Candidate and y have equally many runs, so the i-th run of y can only
    land in the i-th stretched run and a candidate's count is the product of
    w over the runs of y.  The Gamma estimate of a fractional F = n / m
    generalizes C(l*F, l) to Gamma(l*F+1) / (Gamma(l+1) Gamma(l*F-l+1)) and
    ignores e: its rows hold the one column e = 0.  `mdm._dup_rows` and both
    `dup_sum` recurrences read this one table, cached once per (n, m) for
    the integer weights every approach shares and once for Gamma's.
    """
    return _weight_table(n, m, bool(n % m) and approach is DupApproach.GAMMA)


@functools.cache
def _weight_table(n: int, m: int, gamma: bool) -> tuple:
    base, extra = divmod(n, m)
    if gamma:
        F = n / m
        return tuple(
            (math.exp(math.lgamma(l * F + 1) - math.lgamma(l + 1) - math.lgamma(l * F - l + 1)),)
            for l in range(m + 1)
        )
    return tuple(
        tuple(math.comb(l * base + e, l) if e <= l else 0 for e in range(extra + 1))
        for l in range(m + 1)
    )


def dup_sum(n: int, m: int, approach: DupApproach) -> Union[int, float]:
    """The `mdm.dup_estimate` count summed over all y in {0,1}^m, by recurrence.

    Two recurrences, because the two handouts depend on different things:
    assign-to-last on the order of the runs, assign-by-length only on the
    sorted multiset of their lengths.  Integer factors and the Gamma
    estimate hand out nothing and take the first.
    """
    if not 1 <= m <= n:
        raise ValueError(f"output length {m} outside [1, {n}]")
    extra = n % m
    w = _run_weights(n, m, approach)
    if extra and approach is DupApproach.ASSIGN_BY_LENGTH:
        return _dup_sum_assign_by_length(m, extra, w)
    if approach is DupApproach.GAMMA:
        extra = 0
    return _dup_sum_assign_to_last(m, extra, w)


def _dup_sum_assign_to_last(m: int, extra: int, w: tuple):
    """sum over y in {0,1}^m of the product over the runs of y of w[l][e].

    e is the number of the `extra` leftover bits handed to an l-run, trailing
    runs first.  Peeling runs from the end keeps the handout deterministic:
    the final run takes e = min(r, l), so the state is (remaining length,
    leftover bits) and h(t, r) = sum_l w[l][e] h(t-l, r-e); the factor
    2 counts the starting bit, after which run values are forced.  A run
    with l <= r keeps t - r, one with l > r drops to r = 0, so h(m, extra)
    reads only the column r = 0 for t <= d = m - extra and the diagonal
    t - r = d: O(d^2 + extra*m) multiply-adds, not O(m^2 extra).  Gamma
    weights are floats and have extra = 0, so only the column runs; its
    terms are added in ascending l to an int 0 one at a time, never by
    `sum`, whose float rounding differs across Python versions.
    """
    d = m - extra
    col = [1] + [0] * d
    for t in range(1, d + 1):
        acc = 0
        for l in range(1, t + 1):
            acc += w[l][0] * col[t - l]
        col[t] = acc
    diag = [col[d]]  # diag[r] = h(d + r, r); integer weights only from here
    for r in range(1, extra + 1):
        diag.append(
            sum(w[l][l] * diag[r - l] for l in range(1, r + 1))
            + sum(w[l][r] * col[d + r - l] for l in range(r + 1, d + r + 1))
        )
    return 2 * diag[extra]


def _dup_sum_assign_by_length(m: int, extra: int, w: tuple) -> int:
    """Longest-runs assignment summed over all y, exactly.

    The handout depends only on the sorted run lengths, so a DP takes the
    run lengths l = m, m-1, ..., 2 in turn and decides how many parts a of
    length l the run multiset has.  Extras go to the longest runs first, so
    once the parts chosen so far cover s = m - t bits of y the leftover is
    max(0, extra - s): it is implied by t and is not part of the state.
    The state is (t remaining, k parts so far); each added l-part multiplies
    the weight by the run weight w[l][e] with e = min(left, l), and adding a
    parts to k multiplies the orderings by C(k+a, a), read from a Pascal
    table, whose product over lengths is k!/prod(a_l!).  At step l every
    part so far is longer than l, so k <= (m-t) // (l+1).  Updating in place
    with t ascending is safe: a step only writes to smaller t, already read
    this round.

    The last length, l = 1, is summed in closed form: only t = 0 is read
    after it, so a state (t, k) ends by taking a = t parts of length 1, the
    first f = max(0, extra - (m - t)) of which take a leftover bit.  That
    adds w[1][1]^f w[1][0]^(t-f) C(k+t, t) g[t][k] for each state, about
    m^2/4 multiply-adds where the step took about m^3/12; f > 0 only for
    t > m - extra, where f = t - (m - extra).  The steps l >= 2 left do
    about 42 % of the full DP's inner multiply-adds at m = 45.
    """
    # pascal[k][a] = C(k+a, a) for k + a <= m: each row is the prefix sums of the last
    pascal = [[1] * (m + 1)]
    for k in range(m):
        pascal.append(list(itertools.accumulate(pascal[k][: m - k])))
    g = [[0] * (m + 1) for _ in range(m + 1)]
    g[m][0] = 1
    for l in range(m, 1, -1):
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
    total, d, ones = sum(g[0]), m - extra, 1
    for t in range(1, m + 1):
        ones *= w[1][t > d]  # w[1][0]^t, or w[1][0]^d w[1][1]^(t-d) past d
        # parts of length >= 2 cover m - t bits: k <= (m-t) // 2; C(k+t, t) = pascal[t][k]
        total += ones * sum(map(operator.mul, g[t][: (m - t) // 2 + 1], pascal[t]))
    return 2 * total
