"""Tests for the closed-form and numeric channel bounds."""

import math
import warnings

import pytest

from delcap import (
    BinarySequence,
    CapExceededError,
    DegenerateOutputError,
    DupApproach,
    PSI_CONSTANT,
    all_sequences,
    bdc_dup_bound_n,
    bdc_ml_bound_n,
    bec_bound,
    bec_finite_n_check,
    bsc_bound,
    bsc_finite_n_check,
    explicit_approx,
    psi,
    reference_golden_bound,
    runs,
    typical_output_length,
)
from delcap.bitseq import MAX_LEN
from delcap.dupsum import _dup_sum_assign_by_length, _run_weights
from delcap.mdm import dup_estimate
from oracle_utils import expected_runs, expected_runs_exact, mu_d
from oracle_utils import full_dp_dup_sum_assign_by_length, partition_dup_sum_assign_by_length

# (m, base, extra, exact assign-by-length sum) at n = 63, computed once with
# partition_dup_sum_assign_by_length (about 10 s, too slow to rerun here)
LARGE_N_ASSIGN_BY_LENGTH = {
    0.1: (57, 1, 6, 315375042414367441516),
    0.2: (51, 1, 12, 2753089682701201310612),
}


def test_closed_forms():
    assert bec_bound(0.3) == 0.7
    assert bsc_bound(0.5) == pytest.approx(0.0, abs=1e-15)
    assert bsc_bound(0.11) == pytest.approx(0.500084041835472, abs=1e-12)
    assert bsc_bound(0.2) == pytest.approx(bsc_bound(0.8), abs=1e-12)


def test_bec_finite_check_is_exact_on_grid():
    for n in (10, 20, 50):
        for k in range(1, 10):
            p = k / 10
            assert bec_finite_n_check(n, p) - (1.0 - p) == 0.0


def test_bsc_finite_check_gap_shrinks():
    gaps = [bsc_finite_n_check(n, 0.5) for n in (10, 20, 50)]
    assert gaps[0] == pytest.approx(0.20230, abs=1e-4)
    assert gaps[1] == pytest.approx(0.12524, abs=1e-4)
    assert gaps[2] == pytest.approx(0.06309, abs=1e-4)
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_finite_checks_share_the_sequence_length_cap():
    for check in (bec_finite_n_check, bsc_finite_n_check):
        assert 0.0 < check(MAX_LEN, 0.5) < 1.0
        with pytest.raises(CapExceededError):
            check(MAX_LEN + 1, 0.5)
        with pytest.raises(ValueError) as err:
            check(0, 0.5)
        assert not isinstance(err.value, CapExceededError)


def test_typical_output_length():
    assert typical_output_length(10, 0.3) == 7
    assert typical_output_length(8, 0.5) == 4
    assert typical_output_length(14, 0.5) == 7
    # ceil lands just above an integer boundary: 13 * 0.25 = 3.25 keeps 4
    assert typical_output_length(13, 0.75) == 4
    with pytest.raises(DegenerateOutputError):
        typical_output_length(10, 1.0 - 1e-12)


def test_ml_bound_frozen_values():
    raw, adjusted = bdc_ml_bound_n(8, 0.5)
    assert raw == pytest.approx(math.log2(548) / 8, rel=0, abs=1e-12)
    assert adjusted == pytest.approx(math.log2(548 / 70) / 8, rel=0, abs=1e-12)
    raw14, adj14 = bdc_ml_bound_n(14, 0.5)
    assert raw14 == pytest.approx(math.log2(83802) / 14, rel=0, abs=1e-12)
    assert adj14 == pytest.approx(math.log2(83802 / 3432) / 14, rel=0, abs=1e-12)


def test_raw_bound_can_exceed_one():
    # the unnormalized sum counts every output length-m string once per
    # maximizing input, so small n and mid-range d push it past 1 bit
    raw, adjusted = bdc_ml_bound_n(8, 0.5)
    assert raw > 1.0
    assert adjusted < 1.0


def _direct_dup_sum_bound(n, d, approach):
    m = typical_output_length(n, d)
    total = 0.0
    for y in all_sequences(m):
        _, count = dup_estimate(y, n, approach)
        total += count
    return math.log2(total) / n


@pytest.mark.parametrize("n,d", [(14, 0.5), (14, 0.4), (11, 0.35), (9, 0.6), (10, 0.8)])
def test_dup_bound_recurrences_match_direct_sum(n, d):
    for approach in DupApproach:
        want = _direct_dup_sum_bound(n, d, approach)
        got = bdc_dup_bound_n(n, d, approach)
        assert got == pytest.approx(want, rel=0, abs=1e-12)


def test_dup_bound_below_raw_for_realizable_approaches():
    # each estimate is the count of an actual input, so the summed bound
    # cannot exceed the summed maxima
    for n, d in [(12, 0.5), (14, 0.4), (10, 0.7)]:
        raw, _ = bdc_ml_bound_n(n, d)
        for approach in (DupApproach.ASSIGN_TO_LAST, DupApproach.ASSIGN_BY_LENGTH):
            assert bdc_dup_bound_n(n, d, approach) <= raw + 1e-12


def _assign_by_length(m, base, extra):
    """The assign-by-length DP on the run weights of n = m*base + extra;
    m = 0 has no weight table (no run), so it gets the empty run's row."""
    w = _run_weights(m * base + extra, m, DupApproach.ASSIGN_BY_LENGTH) if m else ((1,),)
    return _dup_sum_assign_by_length(m, extra, w)


def test_assign_by_length_dp_matches_partition_enumeration():
    for m in range(23):
        for extra in range(max(m, 1)):
            for base in (1, 2, 3):
                assert _assign_by_length(
                    m, base, extra
                ) == partition_dup_sum_assign_by_length(m, base, extra), (m, base, extra)


def test_assign_by_length_closed_last_step_matches_the_full_dp():
    # every fractional factor the bounds reach: each (n, m) with n % m != 0
    for n in range(2, MAX_LEN + 1):
        for m in range(2, n):
            if n % m:
                w = _run_weights(n, m, DupApproach.ASSIGN_BY_LENGTH)
                got = _dup_sum_assign_by_length(m, n % m, w)
                assert got == full_dp_dup_sum_assign_by_length(m, n % m, w), (n, m)


def test_assign_by_length_bound_matches_partition_enumeration():
    n = 50
    for step in range(3, 10):
        d = step / 10
        m = typical_output_length(n, d)
        base, extra = divmod(n, m)
        want = math.log2(partition_dup_sum_assign_by_length(m, base, extra)) / n
        assert bdc_dup_bound_n(n, d, DupApproach.ASSIGN_BY_LENGTH) == want, d


def test_dup_bound_large_n_runs():
    for approach in DupApproach:
        for d in (0.1, 0.2, 0.5, 0.9):
            value = bdc_dup_bound_n(63, d, approach)
            assert 0.0 < value < 1.3, (approach, d)
    for d, (m, base, extra, total) in LARGE_N_ASSIGN_BY_LENGTH.items():
        assert typical_output_length(63, d) == m
        assert divmod(63, m) == (base, extra)
        assert _assign_by_length(m, base, extra) == total
        assert bdc_dup_bound_n(63, d, DupApproach.ASSIGN_BY_LENGTH) == math.log2(total) / 63


def test_mu_d_matches_run_expansion():
    y = BinarySequence.from_string("0011101")
    d = 0.37
    want = 0.5 * sum(
        math.log((2.0 * math.pi / math.e) ** 2 * d * length) for _, length in runs(y)
    )
    assert mu_d(y, d) == pytest.approx(want, rel=0, abs=1e-12)


def test_expected_runs_exact_matches_enumeration():
    for m in range(1, 11):
        for ell in range(1, m + 1):
            total = 0
            for y in all_sequences(m):
                total += sum(1 for _, length in runs(y) if length == ell)
            assert expected_runs_exact(m, ell) == pytest.approx(
                total / 2**m, rel=0, abs=1e-12
            )


def test_expected_runs_asymptotic_form():
    assert expected_runs(20, 3) == pytest.approx(20 / 2**4, rel=0, abs=1e-15)
    assert expected_runs_exact(20, 3) == pytest.approx(1.25, rel=0, abs=1e-15)


def test_psi_constant_frozen():
    assert PSI_CONSTANT == pytest.approx(1.0917940278435652, rel=0, abs=1e-12)


def test_psi_values_and_domain():
    assert psi(1.0) == pytest.approx(PSI_CONSTANT, rel=0, abs=1e-12)
    assert psi(0.25) == pytest.approx(-1.0 + PSI_CONSTANT, rel=0, abs=1e-12)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            psi(bad)


def test_explicit_approx_values():
    assert explicit_approx(0.5) == pytest.approx(0.3520514930391087, rel=0, abs=1e-12)
    assert explicit_approx(0.999) < 1e-3
    assert explicit_approx(0.999) > 0.0
    with pytest.warns(UserWarning):
        explicit_approx(0.3)
    # an out-of-range d is rejected before the d < 1/2 caveat
    for bad in (0.0, 1.5):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError):
                explicit_approx(bad)
        assert caught == [], bad


def test_reference_golden_values():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    assert reference_golden_bound(0.5) == pytest.approx(0.5 * math.log2(phi), abs=1e-12)
    assert reference_golden_bound(0.3) == pytest.approx(
        1.0 - 0.3 * math.log2(4.0 / phi), abs=1e-12
    )
    assert reference_golden_bound(0.9) == pytest.approx(0.1 * math.log2(phi), abs=1e-12)
    # the two branches meet at one half
    low = 1.0 - 0.5 * math.log2(4.0 / phi)
    high = 0.5 * math.log2(phi)
    assert low == pytest.approx(high, abs=1e-12)


def test_curve_ordering_moderate_block_length():
    # raw bound sits above the golden-ratio reference, which stays positive
    for step in range(5, 18):
        d = step / 20
        raw, _ = bdc_ml_bound_n(13, d)
        golden = reference_golden_bound(d)
        assert raw > golden > 0.0


def test_curve_ordering_larger_block_length():
    for d in (0.7, 0.8, 0.9):
        raw, _ = bdc_ml_bound_n(18, d)
        golden = reference_golden_bound(d)
        assert raw > golden > 0.0
