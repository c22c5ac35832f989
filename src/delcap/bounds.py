"""Capacity bound evaluators.

Closed forms for the erasure and flip channels, the finite-n
maximum-likelihood bound for the deletion channel, the explicit
closed-form approximation built from run-length statistics, and the
golden-ratio reference curve.  The deletion bound takes the log of a sum
over all outputs: of the exact maxima (`mdm.sum_max_counts`) or of the
duplication estimates (`dupsum.dup_sum`).
The two integer duplication estimates count feasible inputs, so their
bounds sit at or below the ML bound at the same (n, d); the Gamma estimate
counts no input and can sit above it.
Bound values are bits per symbol throughout; pattern counts stay exact
integers until the final log, except for the Gamma estimate.
"""

from __future__ import annotations

import math
import warnings
from .bitseq import MAX_LEN, CapExceededError
from .dupsum import DupApproach, dup_sum
from .mdm import sum_max_counts

# ceil(n * p) snaps to the nearest integer within this slack so that
# grid-aligned products like 10 * 0.3 do not ceil one step too far.
CEIL_SNAP = 1e-9

_TWO_PI_OVER_E = 2.0 * math.pi / math.e
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class DegenerateOutputError(ValueError):
    """The typical output length rounded down to zero for this (n, d)."""


def _ceil_snap(value: float) -> int:
    return math.ceil(value - CEIL_SNAP)


def _check_open_unit(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"parameter {p} outside (0, 1)")


def _check_block_length(n: int) -> None:
    """Reject n < 1, then n past the sequence length cap."""
    if n < 1:
        raise ValueError(f"block length {n} must be >= 1")
    if n > MAX_LEN:
        raise CapExceededError(f"block length {n} exceeds {MAX_LEN}")


def bec_bound(p: float) -> float:
    """Erasure channel: the ML bound is tight and equals capacity 1 - p."""
    _check_open_unit(p)
    return 1.0 - p


def bsc_bound(p: float) -> float:
    """Flip channel: the ML bound is tight and equals capacity 1 - h(p),
    with h(p) = -p log2 p - (1-p) log2 (1-p) the binary entropy."""
    _check_open_unit(p)
    return 1.0 - (-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def bec_finite_n_check(n: int, p: float) -> float:
    """Finite-n ML bound for the erasure channel via closed-form set sizes.

    With k = ceil(n*p) erasures the bound is (1/n) log 2^(n-k) = (n-k)/n,
    computed as 1 - k/n so that grid-aligned p reproduces 1 - p bit for bit.
    """
    _check_block_length(n)
    _check_open_unit(p)
    k = _ceil_snap(n * p)
    return 1.0 - k / n


def bsc_finite_n_check(n: int, p: float) -> float:
    """Finite-n ML bound for the flip channel: (1/n) log(2^n / C(n, ceil(np)))."""
    _check_block_length(n)
    _check_open_unit(p)
    k = _ceil_snap(n * p)
    return 1.0 - math.log2(math.comb(n, k)) / n


def typical_output_length(n: int, d: float) -> int:
    """m = ceil(n * (1 - d)); raises when every bit is typically deleted."""
    if n < 1:
        raise ValueError(f"block length {n} must be >= 1")
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


def bdc_dup_bound_n(n: int, d: float, approach: DupApproach) -> float:
    """Finite-n deletion bound with the max replaced by the duplication estimate.

    No exhaustive search is involved, so this evaluates up to n = 63.  For
    integer repeat factors all approaches coincide with the exact product
    formula.  Otherwise ASSIGN_TO_LAST and ASSIGN_BY_LENGTH count a feasible
    input per output, so their value is at most the ML value `bdc_ml_bound_n`
    gives at the same (n, d); GAMMA is no such bracket and can exceed it (its
    sum is 6.1 % above the ML sum at n = 5, m = 3).
    """
    if n > MAX_LEN:
        raise CapExceededError(f"duplication bound capped at n <= {MAX_LEN}, got {n}")
    return math.log2(dup_sum(n, typical_output_length(n, d), approach)) / n


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
    p = psi(d)  # rejects d outside (0, 1] before any warning
    if d < 0.5:
        warnings.warn(
            "explicit approximation is stated for d >= 1/2", stacklevel=2
        )
    return 1.0 - d - 0.5 * p * (1.0 - d)


def reference_golden_bound(d: float) -> float:
    """Golden-ratio comparison curve: 1 - d log2(4/phi) below d = 1/2,
    (1-d) log2(phi) at and above it; the branches agree at 1/2."""
    _check_open_unit(d)
    if d < 0.5:
        return 1.0 - d * math.log2(4.0 / _GOLDEN)
    return (1.0 - d) * math.log2(_GOLDEN)
