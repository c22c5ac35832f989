"""Property tests of invariants the bounds rest on, for inputs up to n = 12."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from delcap import (
    BinarySequence,
    DupApproach,
    all_sequences,
    bdc_dup_bound_n,
    bdc_ml_bound_n,
    count_deletion_patterns,
    counts_for_all_inputs,
)
from delcap.mdm import dup_estimate
from oracle_utils import flip_text

MAX_N = 12


def _sequence(draw, length):
    return BinarySequence.from_numeral(draw(st.integers(0, (1 << length) - 1)), length)


@st.composite
def pairs(draw):
    """(x, y) with len(y) <= len(x) <= MAX_N."""
    n = draw(st.integers(1, MAX_N))
    m = draw(st.integers(0, n))
    return _sequence(draw, n), _sequence(draw, m)


@given(pairs())
def test_pattern_count_invariant_under_complement_and_reversal(pair):
    x, y = pair
    count = count_deletion_patterns(x, y)
    seq, xt, yt = BinarySequence.from_string, x.to_string(), y.to_string()
    assert count_deletion_patterns(seq(flip_text(xt)), seq(flip_text(yt))) == count
    assert count_deletion_patterns(seq(xt[::-1]), seq(yt[::-1])) == count


@settings(deadline=None)
@given(pairs())
def test_pattern_counts_over_all_outputs_sum_to_binomial(pair):
    x, y = pair
    n, m = len(x), len(y)
    total = sum(count_deletion_patterns(x, z) for z in all_sequences(m))
    assert total == math.comb(n, m)


@settings(deadline=None)
@given(pairs(), st.sampled_from([DupApproach.ASSIGN_TO_LAST, DupApproach.ASSIGN_BY_LENGTH]))
def test_dup_count_at_most_max_count(pair, approach):
    x, y = pair
    n = len(x)
    _, dup_count = dup_estimate(y, n, approach)
    assert dup_count <= int(counts_for_all_inputs(y, n).max())


@settings(deadline=None)
@given(st.integers(1, MAX_N), st.floats(0.01, 0.99))
def test_adjusted_bound_at_most_trivial_plus_slack(n, d):
    _, adjusted = bdc_ml_bound_n(n, d)
    assert adjusted <= 1.0 - d + math.log2(n + 1) / n


@settings(deadline=None)
@given(
    st.integers(1, MAX_N),
    st.floats(0.01, 0.99),
    st.sampled_from([DupApproach.ASSIGN_TO_LAST, DupApproach.ASSIGN_BY_LENGTH]),
)
def test_dup_bound_at_most_raw_ml_bound(n, d, approach):
    # realizable candidates count at most the maximum for each output
    assert bdc_dup_bound_n(n, d, approach) <= bdc_ml_bound_n(n, d)[0] + 1e-12
