"""Tests for deletion-pattern counting: the DP route against enumeration."""

import collections
import functools
import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from delcap import (
    BinarySequence,
    CapExceededError,
    all_sequences,
    canonical_form,
    count_deletion_patterns,
    count_deletion_patterns_oracle,
    counts_for_all_inputs,
)
from delcap import patcount
from delcap.mdm import _classes
from oracle_utils import (
    flip_text,
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
        xt, yt = x.to_string(), y.to_string()
        assert count_deletion_patterns(_seq(flip_text(xt)), _seq(flip_text(yt))) == base
        assert count_deletion_patterns(_seq(xt[::-1]), _seq(yt[::-1])) == base


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
    for y in sorted(reps, key=lambda s: s.bits) + sample:
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
        # numerals in any sequence type: a list in descending order, a range
        # and an int array
        ys = {5: range(1 << m), 9: np.arange(1 << m)}.get(m, list(range(1 << m))[::-1])
        seen = []
        for first, x0, block in patcount.split_counts(ys, m, n):
            assert block.dtype == np.float32 and block.ndim == 2
            for i, row in enumerate(block):
                seen.append((first + i, x0, row.shape[0]))
                y = BinarySequence(int(ys[first + i]), m)
                want = prefix_walk_counts(y, n)[x0 : x0 + row.shape[0]]
                assert np.array_equal(row, want), (m, first + i, x0)
        # every output's lanes arrive in order, whole and once
        expect, cursor = [], {}
        for c, x0, width in seen:
            assert x0 == cursor.get(c, 0)
            cursor[c] = x0 + width
            expect.append(c)
        assert expect == sorted(expect)
        assert cursor == {c: 2**n for c in range(len(ys))}


@pytest.mark.parametrize("n", [9, 14, 15, 16, 17, 18, 19])
def test_class_blocks_name_their_inputs_by_numeral(n):
    # at odd n the prefix has a = n // 2 symbols and the suffix b = a + 1,
    # so a row numeral shifted by a instead of b lands elsewhere; below
    # PRUNE_MIN_N a block holds several classes, from it on one, and either
    # way each class's blocks keep every maximizer
    for m in sorted({0, n // 2, n - 1}):
        reps = _classes(m)[1]
        reps = sorted(random.Random(n * 100 + m).sample(reps, min(20, len(reps))))
        wants = [counts_for_all_inputs(BinarySequence(rep, m), n) for rep in reps]
        seen = [[] for _ in reps]
        order = []
        for cs, block, rows, cols in patcount.class_blocks(reps, m, n):
            assert block.shape == (len(cs), rows.shape[1], len(cols))
            for c, counts, xs in zip(cs, block, rows[:, :, None] | cols):
                assert np.array_equal(counts, wants[c][xs]), (n, m, c)
                seen[c].append(xs.ravel())
            order += cs
        assert order == sorted(order)
        for rep, want, xs in zip(reps, wants, seen):
            covered = np.concatenate(xs)
            assert np.isin(np.flatnonzero(want == want.max()), covered).all(), (n, m, rep)


def test_count_dtype_holds_every_count_up_to_the_cap():
    # C(n, m) bounds every table entry, product entry and partial sum; the
    # dtype holds every integer up to 2^(mantissa bits + 1), 2^24 in
    # float32, which C(27, 13) passes, so a cap past 26 needs a wider dtype
    exact = 2 ** (np.finfo(patcount.COUNT_DTYPE).nmant + 1)
    assert exact == 2**24
    assert math.comb(patcount.VECTOR_MAX_N, patcount.VECTOR_MAX_N // 2) < exact


def _split_table_digests(ys, m, n):
    # a digest per table keeps the tables of all 2^16 outputs out of memory
    return [
        (first, pre.dtype, pre.shape, _digest(pre), suf.dtype, suf.shape, _digest(suf))
        for first, pre, suf in patcount.split_tables(ys, m, n)
    ]


def _digest(table):
    return hashlib.sha256(table.tobytes()).hexdigest()


def _assert_table_start_changes_nothing(monkeypatch, ys, m, n):
    want = _split_table_digests(ys, m, n)
    with monkeypatch.context() as patch:
        # a walk from the empty input, every level stepped
        patch.setattr(patcount, "TABLE_LEN", 0)
        assert _split_table_digests(ys, m, n) == want, (n, m)


@pytest.mark.parametrize("n", range(17))
def test_table_start_matches_the_full_walk(monkeypatch, n):
    for m in range(n + 1):
        _assert_table_start_changes_nothing(monkeypatch, range(1 << m), m, n)


# from n = 17 both walks step past the table; at n = 15 only the suffix walk
# does (odd n has b = a + 1), and the test above covers it whole
@pytest.mark.parametrize("n", range(17, 21))
def test_table_start_matches_the_full_walk_sampled(monkeypatch, n):
    rng = random.Random(n)
    for m in (0, 1, patcount.TABLE_LEN, n // 2, n // 2 + 1, n - 1, n):
        ys = sorted(rng.sample(range(1 << m), min(1 << m, 40)))
        _assert_table_start_changes_nothing(monkeypatch, ys, m, n)


@functools.cache
def _scalar_count(w, length, z, k):
    return count_deletion_patterns(BinarySequence(w, length), BinarySequence(z, k))


def _assert_tables_match_scalar_dp(ys, m, n):
    # every entry at its documented index: pre[i, j, u] = #(u, y[:lo + j])
    # and suf[i, j, v] = #(v, y[lo + j:]), y = ys[first + i]
    a, b = n // 2, n - n // 2
    lo, hi = max(0, m - b), min(a, m)
    seen = 0
    for first, pre, suf in patcount.split_tables(ys, m, n):
        assert first == seen and pre.dtype == suf.dtype == patcount.COUNT_DTYPE
        assert pre.shape == (len(pre), hi - lo + 1, 2**a) and suf.shape == (len(pre), hi - lo + 1, 2**b)
        for i, (p, s) in enumerate(zip(pre, suf)):
            y = int(ys[first + i])
            for j in range(hi - lo + 1):
                k = lo + j
                head, tail = y >> (m - k), y & ((1 << (m - k)) - 1)
                assert p[j].tolist() == [_scalar_count(u, a, head, k) for u in range(2**a)], (n, m, y, j)
                assert s[j].tolist() == [_scalar_count(v, b, tail, m - k) for v in range(2**b)], (n, m, y, j)
        seen += len(pre)
    assert seen == len(ys)


@pytest.mark.parametrize("n", range(11))
def test_split_tables_match_scalar_dp_exhaustive(n):
    for m in range(n + 1):
        _assert_tables_match_scalar_dp(range(1 << m), m, n)


# a != b, and both walks step past TABLE_LEN at n = 17, only the suffix
# walk at n = 15
@pytest.mark.parametrize("n", [15, 17])
def test_split_tables_match_scalar_dp_sampled(n):
    rng = random.Random(n)
    for m in (0, 1, patcount.TABLE_LEN, n // 2, n // 2 + 1, n - 1, n):
        _assert_tables_match_scalar_dp(sorted(rng.sample(range(1 << m), min(1 << m, 3))), m, n)


def _drain_peaks(blocks, size):
    # tracemalloc peaks of draining one, two and three full batches of
    # `size` outputs, each item dropped as the next is made
    patcount._count_table(patcount.TABLE_LEN)  # cached per process, not charged
    peaks = []
    for batches in (1, 2, 3):
        tracemalloc.start()
        try:
            collections.deque(blocks(range(batches * size)), maxlen=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def _charge(n, m):
    # split_batch's charge per output: 8R bytes per lane of both tables
    a, b = n // 2, n - n // 2
    return 8 * (min(m, b) + 1) * (2**a + 2**b)


# at odd n the suffix walk steps one symbol more than the prefix walk
@pytest.mark.parametrize("n", [14, 15, 17, 18, 20, 22])
def test_split_tables_batch_stays_within_its_charge(n):
    # the tables of a batch, and the channel build's blocks beside them,
    # peak within one batch's charge (plus the block share) however many
    # batches are drained: no batch is held while the next is walked
    m = n // 2
    size = patcount.split_batch(n, m)
    charge = size * _charge(n, m)
    peaks = _drain_peaks(lambda ys: patcount.split_tables(ys, m, n), size)
    assert max(peaks) <= charge, (n, peaks, charge)
    peaks = _drain_peaks(lambda ys: patcount.split_counts(ys, m, n), size)
    assert max(peaks) <= charge + patcount.SPLIT_BYTES // 4, (n, peaks, charge)


@pytest.mark.parametrize("n, m", [(n, m) for n in (14, 17) for m in (0, n // 2, n)])
def test_class_blocks_batch_stays_within_its_charge(n, m):
    # one, two and three full class batches peak within one batch's charge
    # plus the block share: the bounds fit the charge and a group's kept
    # rows the share; at m = 0 every row ties, so each output keeps all
    # 2^a of its rows, and its row bounds fill the charge
    size = patcount.class_batch(n, m)
    assert size > patcount.split_batch(n, m)
    budget = size * _charge(n, m) + patcount.SPLIT_BYTES // 4
    peaks = _drain_peaks(lambda ys: patcount.class_blocks(ys, m, n), size)
    assert max(peaks) <= budget, (n, m, peaks, budget)


def test_count_table_matches_scalar_dp():
    for length in range(patcount.TABLE_LEN + 1):
        table = patcount._count_table(length)
        assert table.dtype == patcount.COUNT_DTYPE
        assert table.shape == (2**length, 2 ** (length + 1))
        assert not table[:, -1].any()
        for w in range(2**length):
            x = BinarySequence(w, length)
            for col in range(table.shape[1] - 1):
                k = (col + 1).bit_length() - 1
                z = BinarySequence(col + 1 - 2**k, k)
                assert table[w, col] == count_deletion_patterns(x, z), (length, w, col)


def test_count_table_is_the_largest_within_half_the_budget():
    half = patcount.SPLIT_BYTES // 2
    assert patcount._count_table(patcount.TABLE_LEN).nbytes <= half
    # the next table would be four times larger
    assert 4 * patcount._count_table(patcount.TABLE_LEN).nbytes > half


def test_count_table_is_read_only():
    # a write into the cached table would corrupt every later count
    table = patcount._count_table(patcount.TABLE_LEN)
    with pytest.raises(ValueError):
        table[0, 0] = 7
    assert table[0, 0] == 1


def test_split_counts_rejects_long_outputs_and_caps():
    with pytest.raises(ValueError):
        patcount.split_counts([0b011], 3, 2)
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
