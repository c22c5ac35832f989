"""Capacity bound evaluators.

Closed forms for the erasure and flip channels, the finite-n
maximum-likelihood bound for the deletion channel (exact search or
duplication estimates), the explicit closed-form approximation built from
run-length statistics, and the golden-ratio reference curve.  Bound values
are bits per symbol throughout; pattern counts stay exact integers until the
final log.
"""

from __future__ import annotations

import math
import warnings
from .mdm import DupApproach, sum_max_counts

# ceil(n * p) snaps to the nearest integer within this slack so that
# grid-aligned products like 10 * 0.3 do not ceil one step too far.
CEIL_SNAP = 1e-9

_TWO_PI_OVER_E = 2.0 * math.pi / math.e
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

FINITE_CHECK_MAX_N = 60
DUP_BOUND_MAX_N = 63


class DegenerateOutputError(ValueError):
    """The typical output length rounded down to zero for this (n, d)."""


def _ceil_snap(value: float) -> int:
    return math.ceil(value - CEIL_SNAP)


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _check_open_unit(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"parameter {p} outside (0, 1)")


def bec_bound(p: float) -> float:
    """Erasure channel: the ML bound is tight and equals capacity 1 - p."""
    _check_open_unit(p)
    return 1.0 - p


def bsc_bound(p: float) -> float:
    """Flip channel: the ML bound is tight and equals capacity 1 - h(p)."""
    _check_open_unit(p)
    return 1.0 - binary_entropy(p)


def bec_finite_n_check(n: int, p: float) -> float:
    """Finite-n ML bound for the erasure channel via closed-form set sizes.

    With k = ceil(n*p) erasures the bound is (1/n) log 2^(n-k) = (n-k)/n,
    computed as 1 - k/n so that grid-aligned p reproduces 1 - p bit for bit.
    """
    if not 1 <= n <= FINITE_CHECK_MAX_N:
        raise ValueError(f"block length {n} outside [1, {FINITE_CHECK_MAX_N}]")
    _check_open_unit(p)
    k = _ceil_snap(n * p)
    return 1.0 - k / n


def bsc_finite_n_check(n: int, p: float) -> float:
    """Finite-n ML bound for the flip channel: (1/n) log(2^n / C(n, ceil(np)))."""
    if not 1 <= n <= FINITE_CHECK_MAX_N:
        raise ValueError(f"block length {n} outside [1, {FINITE_CHECK_MAX_N}]")
    _check_open_unit(p)
    k = _ceil_snap(n * p)
    return 1.0 - math.log2(math.comb(n, k)) / n


def typical_output_length(n: int, d: float) -> int:
    """m = ceil(n * (1 - d)); raises when every bit is typically deleted."""
    _check_open_unit(d)
    m = _ceil_snap(n * (1.0 - d))
    if m <= 0:
        raise DegenerateOutputError(
            f"typical output length is 0 at n = {n}, d = {d}"
        )
    return m


def bdc_ml_bound_n(n: int, d: float, threads: int = 1) -> tuple[float, float]:
    """Finite-n ML bound for the deletion channel as (raw, adjusted).

    raw = (1/n) log2 sum over y in {0,1}^m of max_x #(x, y) with
    m = ceil(n(1-d)); adjusted subtracts (1/n) log2 C(n, m), the finite-n
    counterpart of the asymptotic entropy term, and never exceeds
    1 - d + log2(n+1)/n.
    """
    m = typical_output_length(n, d)
    log_total = math.log2(sum_max_counts(n, m, threads=threads))
    raw = log_total / n
    adjusted = (log_total - math.log2(math.comb(n, m))) / n
    return raw, adjusted


def _dup_sum(m: int, extra: int, weight):
    """sum over y in {0,1}^m of the product over the runs of y of weight(l, e).

    e is the number of the `extra` leftover bits handed to an l-run, trailing
    runs first.  Peeling runs from the end keeps the handout deterministic:
    the final run takes e = min(left, l), so the state is (remaining length,
    leftover bits) and g(t, r) = sum_l weight(l, e) g(t-l, r-e); the factor
    2 counts the starting bit, after which run values are forced.  A
    blown-up run of length l*base + e matches its l-run in C(l*base + e, l)
    ways, so with that weight the product over runs is the pattern count of
    the assembled candidate; the Gamma estimate passes extra = 0 and the
    Gamma generalization of C(l*F, l).
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


def _dup_sum_assign_by_length(m: int, base: int, extra: int):
    """Longest-runs assignment summed over all y, exactly.

    The handout depends only on the sorted run lengths, so a DP takes the
    run lengths l = m, m-1, ..., 1 in turn and decides how many parts a of
    length l the run multiset has.  Extras go to the longest runs first, so
    once the parts chosen so far cover s = m - t bits of y the leftover is
    max(0, extra - s): it is implied by t and is not part of the state.
    The state is (t remaining, k parts so far); each added l-part multiplies
    the weight by C(l*base + e, l) with e = min(left, l), and adding a parts
    to k multiplies the orderings by C(k+a, a), whose product over lengths
    is k!/prod(a_l!).  Updating in place with t ascending is safe: a step
    only writes to smaller t, already read this round.
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


def bdc_dup_bound_n(
    n: int, d: float, approach: DupApproach = DupApproach.GAMMA
) -> float:
    """Finite-n deletion bound with the max replaced by the duplication estimate.

    No exhaustive search is involved, so this evaluates up to n = 63.  For
    integer repeat factors all approaches coincide with the exact product
    formula; otherwise the chosen approach fills the gap.
    """
    if not 1 <= n <= DUP_BOUND_MAX_N:
        raise ValueError(f"block length {n} outside [1, {DUP_BOUND_MAX_N}]")
    m = typical_output_length(n, d)
    base, extra = divmod(n, m)
    if extra and approach is DupApproach.GAMMA:
        F = n / m
        total = _dup_sum(
            m,
            0,
            lambda l, _: math.exp(
                math.lgamma(l * F + 1) - math.lgamma(l + 1) - math.lgamma(l * F - l + 1)
            ),
        )
    elif extra and approach is DupApproach.ASSIGN_BY_LENGTH:
        total = _dup_sum_assign_by_length(m, base, extra)
    else:
        total = _dup_sum(m, extra, lambda l, e: math.comb(l * base + e, l))
    return math.log2(total) / n


def _psi_constant() -> float:
    # terms past l = 64 are below 2^-64 * ln(8 pi / e) < 1e-17, beyond double
    # resolution of the ~1.09 total
    total = 0.0
    for l in range(1, 65):
        total += math.log(_TWO_PI_OVER_E * math.sqrt(l)) / 2**l
    return total


PSI_CONSTANT = _psi_constant()


def psi(d: float) -> float:
    """(1/2) log2 d plus the run-length series constant 1.09179...

    The constant term sum_l ln((2 pi / e) sqrt(l)) / 2^l is a natural-log
    series; the d term is in bits.  The mix is deliberate and matches the
    explicit approximation this feeds (psi(1) is exactly the constant).
    """
    if not 0.0 < d <= 1.0:
        raise ValueError(f"parameter {d} outside (0, 1]")
    return 0.5 * math.log2(d) + PSI_CONSTANT


def explicit_approx(d: float) -> float:
    """Closed-form capacity approximation 1 - d - (1/2) psi(d) (1 - d).

    Stated for d >= 1/2; evaluable below that with a warning.  Assumes the
    duplication estimate is asymptotically tight.
    """
    if not 0.0 < d <= 1.0:
        raise ValueError(f"parameter {d} outside (0, 1]")
    if d < 0.5:
        warnings.warn(
            "explicit approximation is stated for d >= 1/2", stacklevel=2
        )
    return 1.0 - d - 0.5 * psi(d) * (1.0 - d)


def reference_golden_bound(d: float) -> float:
    """Golden-ratio comparison curve: 1 - d log2(4/phi) below d = 1/2,
    (1-d) log2(phi) at and above it; the branches agree at 1/2."""
    _check_open_unit(d)
    if d < 0.5:
        return 1.0 - d * math.log2(4.0 / _GOLDEN)
    return (1.0 - d) * math.log2(_GOLDEN)
