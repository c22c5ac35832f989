"""Tests for deletion-pattern counting: the DP route against enumeration."""

import math
import random

import numpy as np
import pytest

from delcap import (
    BinarySequence,
    CapExceededError,
    all_sequences,
    canonical_form,
    complement,
    count_deletion_patterns,
    count_deletion_patterns_oracle,
    counts_for_all_inputs,
    reverse,
)
from delcap import patcount
from oracle_utils import (
    masked_sweep_counts,
    prefix_walk_counts,
    oracle_counts_grid,
    oracle_counts_pairs,
    oracle_counts_pairs_split,
    transition_probability,
)


def _seq(text):
    return BinarySequence.from_string(text)


def test_worked_pair():
    assert count_deletion_patterns(_seq("00101011"), _seq("0101")) == 16


def test_trivial_values():
    x = _seq("1011")
    assert count_deletion_patterns(x, x) == 1
    assert count_deletion_patterns(x, BinarySequence(0, 0)) == 1
    assert count_deletion_patterns(x, _seq("000")) == 0  # not a subsequence
    assert count_deletion_patterns(_seq("000"), _seq("00")) == 3


def test_output_longer_than_input_rejected():
    with pytest.raises(ValueError):
        count_deletion_patterns(_seq("01"), _seq("011"))


def test_oracle_cap():
    with pytest.raises(CapExceededError):
        count_deletion_patterns_oracle(BinarySequence(0, 21), BinarySequence(0, 2))


def test_row_sums_are_binomial():
    rng = random.Random(5)
    for n in (4, 7, 10, 13):
        x = BinarySequence.from_numeral(rng.getrandbits(n), n)
        for m in range(n + 1):
            total = sum(count_deletion_patterns(x, y) for y in all_sequences(m))
            assert total == math.comb(n, m)


def test_count_bounded_by_pattern_total():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(1, 14)
        m = rng.randint(0, n)
        x = BinarySequence.from_numeral(rng.getrandbits(n), n)
        y = BinarySequence.from_numeral(rng.getrandbits(m) if m else 0, m)
        assert 0 <= count_deletion_patterns(x, y) <= math.comb(n, n - m)


def test_complement_and_reverse_symmetry():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(1, 12)
        m = rng.randint(0, n)
        x = BinarySequence.from_numeral(rng.getrandbits(n), n)
        y = BinarySequence.from_numeral(rng.getrandbits(m) if m else 0, m)
        base = count_deletion_patterns(x, y)
        assert count_deletion_patterns(complement(x), complement(y)) == base
        assert count_deletion_patterns(reverse(x), reverse(y)) == base


def test_dp_matches_subset_oracle_exhaustive_small():
    for n in range(1, 8):
        for m in range(n + 1):
            for x in all_sequences(n):
                for y in all_sequences(m):
                    assert count_deletion_patterns(x, y) == count_deletion_patterns_oracle(x, y)


def test_dp_matches_subset_oracle_random_large():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(13, 18)
        m = rng.randint(0, n)
        x = BinarySequence.from_numeral(rng.getrandbits(n), n)
        y = BinarySequence.from_numeral(rng.getrandbits(m) if m else 0, m)
        assert count_deletion_patterns(x, y) == count_deletion_patterns_oracle(x, y)


def test_vectorized_sweep_matches_scalar():
    rng = random.Random(9)
    n = 10
    for m in (0, 1, 4, 7, 10):
        y = BinarySequence.from_numeral(rng.getrandbits(m) if m else 0, m)
        vec = counts_for_all_inputs(y, n)
        assert vec.shape == (2**n,)
        for v in range(0, 2**n, 17):
            x = BinarySequence.from_numeral(v, n)
            assert vec[v] == count_deletion_patterns(x, y)


def test_vectorized_sweep_matches_grid_oracle():
    for n in (5, 8):
        for m in range(n + 1):
            grid = oracle_counts_grid(n, m)
            for ynum in range(2**m):
                y = BinarySequence.from_numeral(ynum, m)
                assert np.array_equal(grid[:, ynum], counts_for_all_inputs(y, n))


def _random_outputs(rng, n, count):
    out = []
    for _ in range(count):
        m = rng.randint(0, n)
        out.append(BinarySequence.from_numeral(rng.getrandbits(m) if m else 0, m))
    return out


def _assert_split_kernel_matches(y, n, masked=True):
    got = counts_for_all_inputs(y, n)
    assert got.dtype == np.int64 and got.shape == (2**n,)
    assert np.array_equal(got, prefix_walk_counts(y, n)), (n, y)
    if masked:
        assert np.array_equal(got, masked_sweep_counts(y, n)), (n, y)


# the split kernel against both sweeps it replaced, n = 0 and 1 included
@pytest.mark.parametrize("n", range(13))
def test_prefix_walk_matches_masked_sweep_exhaustive(n):
    for m in range(n + 1):
        for y in all_sequences(m):
            _assert_split_kernel_matches(y, n)


def test_prefix_walk_matches_masked_sweep_n16():
    n = 16
    reps = {canonical_form(y) for y in all_sequences(8)}
    sample = _random_outputs(random.Random(11), n, 40)
    for y in sorted(reps, key=lambda s: s.numeral()) + sample:
        _assert_split_kernel_matches(y, n)


# the masked sweep would hold (m+1) * 2^24 int64 values at n = 24
@pytest.mark.parametrize("n, count", [(20, 6), (24, 2)])
def test_split_kernel_matches_prefix_walk_sampled(n, count):
    rng = random.Random(n)
    sample = _random_outputs(rng, n, count)
    sample.append(BinarySequence.from_numeral(rng.getrandbits(n // 2), n // 2))
    for y in sample:
        _assert_split_kernel_matches(y, n, masked=n < 24)


@pytest.mark.parametrize("budget", [1, 1 << 12, 1 << 15])
def test_split_counts_blocks_cover_every_pair_in_order(monkeypatch, budget):
    # small budgets force batches of one output and row blocks of one row
    monkeypatch.setattr(patcount, "SPLIT_BYTES", budget)
    n = 9
    for m in (0, 3, 5, 9):
        ys = list(all_sequences(m))
        seen = []
        for first, x0, block in patcount.split_counts(ys, n):
            assert block.dtype == np.float64 and block.ndim == 2
            for i, row in enumerate(block):
                seen.append((first + i, x0, row.shape[0]))
                want = prefix_walk_counts(ys[first + i], n)[x0 : x0 + row.shape[0]]
                assert np.array_equal(row, want), (m, first + i, x0)
        # every output's lanes arrive in order, whole and once
        expect, cursor = [], {}
        for c, x0, width in seen:
            assert x0 == cursor.get(c, 0)
            cursor[c] = x0 + width
            expect.append(c)
        assert expect == sorted(expect)
        assert cursor == {c: 2**n for c in range(len(ys))}


def test_split_counts_rejects_mixed_lengths_and_caps():
    with pytest.raises(ValueError):
        patcount.split_counts([_seq("01"), _seq("011")], 5)
    with pytest.raises(ValueError):
        counts_for_all_inputs(_seq("0110"), 3)
    with pytest.raises(CapExceededError):
        counts_for_all_inputs(_seq("01"), patcount.VECTOR_MAX_N + 1)


def test_lanes_sum_to_binomial_over_outputs():
    for n in range(11):
        for m in range(n + 1):
            total = sum(counts_for_all_inputs(y, n) for y in all_sequences(m))
            assert np.array_equal(total, np.full(2**n, math.comb(n, m))), (n, m)


def test_batch_oracles_agree_with_each_other():
    rng = random.Random(10)
    pairs = []
    for _ in range(400):
        m = rng.randint(0, 12)
        pairs.append((rng.getrandbits(12), m, rng.getrandbits(m) if m else 0))
    assert oracle_counts_pairs(12, pairs) == oracle_counts_pairs_split(12, pairs)


def test_transition_probability():
    x = _seq("00101011")
    y = _seq("0101")
    d = 0.4
    want = 16 * (1 - d) ** 4 * d**4
    assert transition_probability(x, y, d) == pytest.approx(want, rel=0, abs=1e-15)


def test_transition_probabilities_sum_to_one():
    x = _seq("011010")
    d = 0.37
    total = 0.0
    for m in range(len(x) + 1):
        for y in all_sequences(m):
            total += transition_probability(x, y, d)
    assert total == pytest.approx(1.0, rel=0, abs=1e-12)
