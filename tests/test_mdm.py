"""Tests for the exhaustive search and the duplication heuristics."""

import concurrent.futures
import functools
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delcap import (
    BinarySequence,
    CapExceededError,
    DupApproach,
    all_sequences,
    count_deletion_patterns,
    dup_estimate,
    dup_sum,
    duplication_ratio,
    flip_sequence,
    is_alternating,
    mdm_table,
    min_duplication_ratio,
    runs,
    stirling_lower_bound,
    sum_max_counts,
)
from delcap import dupsum, mdm, patcount
from delcap.bitseq import MAX_LEN
from delcap.mdm import _classes, _format_checkpoint_line, _orbit, _parse_checkpoint, _solve_class
from oracle_utils import (
    approximate_dup_sequence,
    flip_text,
    lambda_dup_sum,
    lambda_dup_sum_assign_to_last,
    lambda_run_weight,
    oracle_counts_pairs_split,
    prefix_walk_counts,
    split_counts_solve,
    text_canonical_form,
    text_dup_estimate,
    walk_table,
)

# frozen by two independent routes: the vectorized sweep and per-pair
# subset enumeration, cross-checked under reversal/complement symmetry
SMALL_TABLE = {
    "0000": 70,
    "0001": 40,
    "0010": 24,
    "0011": 36,
    "0100": 24,
    "0101": 16,
    "0110": 24,
    "0111": 40,
}


def _seq(text):
    return BinarySequence.from_string(text)


def test_solve_worked_example():
    r = {row.y.to_string(): row for row in mdm_table(8, 4).rows}["0101"]
    assert r.max_count == 16
    assert r.x_star.to_string() == "00101011"
    assert r.x_dup.to_string() == "00110011"
    assert r.dup_count == 16
    assert r.ratio == 1.0


def test_small_table_frozen_counts():
    table = mdm_table(8, 4)
    assert len(table.rows) == 16
    for row in table.rows:
        text = row.y.to_string()
        rep = min(
            text,
            text[::-1],
            text.translate(str.maketrans("01", "10")),
            text.translate(str.maketrans("01", "10"))[::-1],
        )
        assert row.max_count == SMALL_TABLE[rep]
        assert row.ratio == 1.0
        assert count_deletion_patterns(row.x_star, row.y) == row.max_count


def test_x_star_is_smallest_numeral_argmax():
    # every orbit member's maximizer is derived from the rep's count vector;
    # from n = 14 a class's counts arrive in several row blocks, and from
    # n = 17 maximizer numerals span three bytes
    rng = random.Random(31)
    for n in [rng.randint(2, 11) for _ in range(40)] + list(range(14, 19)) * 4:
        m = rng.randint(1, n)
        y = BinarySequence.from_numeral(rng.getrandbits(m), m)
        [(_, max_count, stars)] = _solve_class([y.bits], m, n, ties=True)
        assert y.bits in stars
        for member, x_star in stars.items():
            counts = prefix_walk_counts(BinarySequence(member, m), n)
            assert max_count == counts.max()
            assert x_star == int(counts.argmax())


@pytest.mark.parametrize("n", [16, 17, 18])
def test_tie_breaks_settled_across_kept_row_blocks(monkeypatch, n):
    # classes whose equal tops fall in more than one kept-row block: at the
    # default budget only m = 0, where every input is a maximizer; with
    # blocks of a few rows, classes of m = 3, 5 and 8 too.  The smallest
    # maximizer of every member, taken once per chunk, is the walk's argmax
    tops, pruned_blocks = [], patcount.pruned_blocks

    def recording(*tables):
        tops.append([])
        for us, vs, block in pruned_blocks(*tables):
            tops[-1].append(int(block.max()))
            yield us, vs, block

    monkeypatch.setattr(patcount, "pruned_blocks", recording)
    # below PRUNE_MIN_N the classes take the batched product instead
    monkeypatch.setattr(patcount, "PRUNE_MIN_N", 0)
    split = []
    for budget, lengths in ((patcount.SPLIT_BYTES, [0]), (32 << 8, [3, 5, 8])):
        monkeypatch.setattr(patcount, "SPLIT_BYTES", budget)
        for m in lengths:
            tops.clear()
            solved = _solve_class(_classes(m)[1], m, n, ties=True)
            tied = [(m, top, stars) for (_, top, stars), t in zip(solved, tops) if t.count(top) > 1]
            split += tied
    assert len({m for m, _, _ in split}) >= 2, n
    for m, top, stars in split:
        for member, x_star in stars.items():
            counts = prefix_walk_counts(BinarySequence(member, m), n)
            assert counts.max() == top and x_star == int(counts.argmax()), (n, m, member)


def test_dup_count_formula_and_sequence():
    y = _seq("0101010")
    x, count = dup_estimate(y, 14)
    assert x.to_string() == "00110011001100"
    assert count == 128
    assert count_deletion_patterns(x, y) == 128
    # two runs of unequal length
    y2 = _seq("011")
    x2, count2 = dup_estimate(y2, 9)
    assert x2.to_string() == "000111111"
    assert count2 == math.comb(3, 1) * math.comb(6, 2)


def test_dup_sequence_cap():
    with pytest.raises(CapExceededError):
        dup_estimate(BinarySequence(0, 32), 96)


def test_dup_count_matches_direct_count():
    rng = random.Random(32)
    for _ in range(60):
        m = rng.randint(1, 7)
        F = rng.randint(1, 63 // m)
        y = BinarySequence.from_numeral(rng.getrandbits(m), m)
        x, count = dup_estimate(y, F * m)
        assert count_deletion_patterns(x, y) == count


def test_approach_worked_examples():
    y = _seq("010001")
    to_last, _ = dup_estimate(y, 15, DupApproach.ASSIGN_TO_LAST)
    by_length, _ = dup_estimate(y, 15, DupApproach.ASSIGN_BY_LENGTH)
    assert to_last.to_string() == "001100000000111"
    assert by_length.to_string() == "001100000000011"


def test_approaches_agree_for_integer_stretch():
    rng = random.Random(33)
    for _ in range(30):
        m = rng.randint(1, 7)
        F = rng.randint(1, 63 // m)
        y = BinarySequence.from_numeral(rng.getrandbits(m), m)
        want = _seq("".join(str(b) * F for b in y))
        for approach in DupApproach:
            x, count = dup_estimate(y, F * m, approach)
            assert x == want
            assert count == count_deletion_patterns(want, y)


def test_approximate_sequences_preserve_output():
    rng = random.Random(34)
    for _ in range(60):
        m = rng.randint(1, 10)
        n = rng.randint(m, min(40, 4 * m))
        y = BinarySequence.from_numeral(rng.getrandbits(m), m)
        for approach in (DupApproach.ASSIGN_TO_LAST, DupApproach.ASSIGN_BY_LENGTH):
            x, count = dup_estimate(y, n, approach)
            assert len(x) == n
            assert count_deletion_patterns(x, y) == count >= 1


def test_dup_estimate_matches_text_built_recount():
    # the numeral rows of every y against the candidate built as text;
    # every (n, m) with n <= 16, m = 0 and m = n included.  The text route
    # ignores the approach for an integer factor, so it runs once there, and
    # for a fractional one its assign-* counts come from subset enumeration
    # of all pairs at once, not one scalar DP per y
    for n in range(1, 17):
        for m in range(n + 1):
            ys = list(all_sequences(m))
            fractional = m and n % m
            rows = {a: mdm._dup_rows(n, m, a) for a in DupApproach}
            for approach, (xs, counts) in rows.items():
                if fractional and approach is not DupApproach.GAMMA:
                    texts = [approximate_dup_sequence(y, n, approach) for y in ys]
                    pairs = [(x.bits, m, y.bits) for x, y in zip(texts, ys)]
                    assert xs == [x.bits for x in texts], (n, m, approach)
                    assert counts == oracle_counts_pairs_split(n, pairs), (n, m, approach)
                    continue
                if fractional or approach is DupApproach.ASSIGN_TO_LAST:
                    want = [text_dup_estimate(y, n, approach) for y in ys]
                for y, x, count, (want_x, want_count) in zip(ys, xs, counts, want):
                    assert (None if want_x is None else want_x.bits) == x, (y, n, approach)
                    if x is None:
                        assert math.isclose(count, want_count, rel_tol=1e-12), (y, n)
                    else:
                        assert type(count) is int and count == want_count, (y, n, approach)
            # the one-y wrapper reads the same rows
            for y in ys[:: max(1, len(ys) // 7)]:
                for approach, (xs, counts) in rows.items():
                    x, count = dup_estimate(y, n, approach)
                    assert (None if x is None else x.bits, count) == (xs[y.bits], counts[y.bits])


def test_dup_rows_match_text_built_recount_up_to_the_length_cap():
    # numerals up to 63 bits and counts up to C(63, 31) in the fixed-width
    # arrays: sampled y against the text route and its scalar DP recount
    rng = random.Random(37)
    for n, m in [(47, 13), (62, 31), (63, 1), (63, 5), (63, 31), (63, 32), (63, 40), (63, 63)]:
        ys = [0, (1 << m) - 1, ((1 << m) - 1) // 3] + [rng.getrandbits(m) for _ in range(12)]
        for approach in DupApproach:
            xs, counts = mdm._dup_rows(n, m, approach, ys)
            for v, x, count in zip(ys, xs, counts):
                want_x, want_count = text_dup_estimate(BinarySequence(v, m), n, approach)
                assert (None if want_x is None else want_x.bits) == x, (n, m, v, approach)
                assert math.isclose(count, want_count, rel_tol=1e-12), (n, m, v, approach)
                assert x is None or type(count) is int and count == want_count


def test_dup_sum_matches_lambda_weight_oracle():
    # same value and type as the recurrences that called a weight function
    # per term; the Gamma floats bit for bit, since the terms are added in
    # the same order
    for n in list(range(1, 41)) + [50, 63]:
        for m in range(1, n + 1):
            for approach in DupApproach:
                got, want = dup_sum(n, m, approach), lambda_dup_sum(n, m, approach)
                assert type(got) is type(want), (n, m, approach)
                assert got == want, (n, m, approach)


def test_assign_to_last_column_and_diagonal_match_full_table():
    # every leftover count extra < m, not only n % m of the lengths above:
    # n = base*m + extra gives the weight table with extra + 1 columns
    approach = DupApproach.ASSIGN_TO_LAST
    for m in range(1, 31):
        for base in (1, 2):
            for extra in range(m):
                n = base * m + extra
                want = lambda_dup_sum_assign_to_last(m, extra, lambda_run_weight(n, m, approach))
                got = dupsum._dup_sum_assign_to_last(m, extra, dupsum._run_weights(n, m, approach))
                assert type(got) is int and got == want, (m, base, extra)
        # the Gamma weights take the column alone, bit for bit
        for n in range(m + 1, 2 * m + 1):
            want = lambda_dup_sum_assign_to_last(m, 0, lambda_run_weight(n, m, DupApproach.GAMMA))
            got = dupsum._dup_sum_assign_to_last(m, 0, dupsum._run_weights(n, m, DupApproach.GAMMA))
            assert type(got) is type(want) and got == want, (n, m)


def test_dup_sum_is_exact_sum_of_estimates():
    for n in range(1, 15):
        for m in range(1, n + 1):
            for approach in (DupApproach.ASSIGN_TO_LAST, DupApproach.ASSIGN_BY_LENGTH):
                counts = mdm._dup_rows(n, m, approach)[1]
                assert all(type(c) is int for c in counts)
                got = dup_sum(n, m, approach)
                assert type(got) is int and got == sum(counts), (n, m, approach)


def test_gamma_approach_fractional_value():
    table = mdm_table(7, 3, approach=DupApproach.GAMMA)
    row = {r.y.to_string(): r for r in table.rows}["010"]
    # three unit runs, each contributing Gamma(F+1)/(Gamma(2)Gamma(F)) = F
    assert row.x_dup is None
    assert row.dup_count == pytest.approx((7 / 3) ** 3, rel=1e-12)


def test_gamma_approach_integer_stretch_is_exact():
    ta = mdm_table(8, 4, approach=DupApproach.GAMMA)
    tb = mdm_table(8, 4, approach=DupApproach.ASSIGN_TO_LAST)
    for ra, rb in zip(ta.rows, tb.rows):
        assert ra.x_dup == rb.x_dup
        assert ra.dup_count == rb.dup_count


@functools.lru_cache(maxsize=None)
def _canon(m):
    return _classes(m)[0]


# no deadline: the first draw of each m builds that m's whole sweep
@settings(deadline=None)
@given(st.integers(0, 20).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, (1 << m) - 1))))
def test_class_sweep_matches_canonical_form(case):
    m, v = case
    assert _canon(m)[v] == text_canonical_form(BinarySequence(v, m)).bits


def test_orbit_matches_text_complement_and_reversal():
    # the sweep above stops at m = 20; maximizers reach VECTOR_MAX_N bits and
    # `canonical_form` takes the orbit of any sequence, up to MAX_LEN bits
    rng = random.Random(36)
    for n in range(MAX_LEN + 1):
        vs = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(4)]
        for v, members in zip(vs, zip(*_orbit(vs, n))):
            text = BinarySequence(v, n).to_string()
            want = [text, flip_text(text), text[::-1], flip_text(text[::-1])]
            assert [BinarySequence(int(w), n).to_string() for w in members] == want


def test_table_threads_equivalence():
    one = mdm_table(11, 5, threads=1)
    four = mdm_table(11, 5, threads=4)
    assert [(r.y, r.x_star, r.max_count) for r in one.rows] == [
        (r.y, r.x_star, r.max_count) for r in four.rows
    ]


def test_thread_count_must_be_positive(tmp_path):
    path = tmp_path / "progress.ckpt"
    with pytest.raises(ValueError):
        mdm_table(8, 4, threads=0, checkpoint_path=str(path))
    assert not path.exists()
    with pytest.raises(ValueError):
        sum_max_counts(8, 4, threads=0)
    # the cap is checked before the thread count
    with pytest.raises(CapExceededError):
        mdm_table(25, 4, threads=0)


def _serial_pools(monkeypatch, cpus):
    """Swap in a serial stand-in pool that records its requests, on a
    machine that reports `cpus` CPUs, all of them usable by this process;
    no worker process starts."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers, self.chunks = max_workers, 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *args):
            calls = list(zip(*args))
            self.chunks += len(calls)
            return [fn(*a) for a in calls]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return pools


def test_pool_starts_at_most_one_worker_per_chunk(monkeypatch):
    # a pool forks all its workers up front, so asking for more than there
    # are chunks or CPUs forks idle processes
    pools = _serial_pools(monkeypatch, cpus=4)
    table = mdm_table(11, 5, threads=64)
    [pool] = pools
    assert len(_classes(5)[1]) == 10
    assert pool.max_workers == 4 == pool.chunks
    assert table == mdm_table(11, 5, threads=1)


def test_pool_workers_capped_at_cpu_count(monkeypatch):
    # with one chunk per class, 100000 threads asked for one worker per class
    pools = _serial_pools(monkeypatch, cpus=4)
    total = sum_max_counts(12, 12, threads=100000)
    [pool] = pools
    assert pool.max_workers == 4
    assert total == sum_max_counts(12, 12, threads=1) == 1 << 12


def test_pool_workers_capped_at_usable_cpus(monkeypatch):
    # pinned to one of the machine's four CPUs, workers would share it
    pools = _serial_pools(monkeypatch, cpus=4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    total = sum_max_counts(12, 6, threads=8)
    assert pools == []
    assert total == sum_max_counts(12, 6, threads=1)


def test_table_rows_sorted_and_complete():
    table = mdm_table(10, 4)
    assert [r.y.bits for r in table.rows] == list(range(16))
    assert table.n == 10 and table.m == 4


def test_search_cap():
    with pytest.raises(CapExceededError):
        mdm_table(25, 4)


def test_checkpoint_resume(tmp_path):
    path = tmp_path / "progress.ckpt"
    reference = mdm_table(10, 5, checkpoint_path=str(path))
    lines = path.read_text().splitlines()
    assert len(lines) > 4
    # keep half the finished classes, then resume
    path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    resumed = mdm_table(10, 5, checkpoint_path=str(path))
    assert [(r.y, r.x_star, r.max_count) for r in reference.rows] == [
        (r.y, r.x_star, r.max_count) for r in resumed.rows
    ]
    assert sorted(path.read_text().splitlines()) == sorted(lines)


def test_checkpoint_resume_after_truncation_at_every_byte(tmp_path):
    path = tmp_path / "progress.ckpt"
    reference = mdm_table(8, 4, checkpoint_path=str(path))
    full = path.read_bytes()
    lines = full.decode("ascii").splitlines()
    finished = _parse_checkpoint(str(path), 8, 4)
    assert len(finished) == len(lines)
    for cut in range(len(full)):
        path.write_bytes(full[:cut])
        resumed = mdm_table(8, 4, checkpoint_path=str(path))
        assert resumed.rows == reference.rows, cut
        text = path.read_text(encoding="ascii")
        assert text.endswith("\n"), cut
        # every class is a whole line again; only the cut fragment is left over
        assert set(lines) <= set(text.splitlines()), cut
        fragments = [line for line in text.splitlines() if line not in lines]
        assert len(fragments) <= 1, cut
        assert all(any(line.startswith(f) for line in lines) for f in fragments), cut
        assert _parse_checkpoint(str(path), 8, 4) == finished, cut


def test_checkpoint_rejects_non_canonical_rep_when_folding(tmp_path):
    # one line per y, every y solved as if it were its own class
    unfolded = _solve_class(list(range(16)), 4, 8, ties=True)
    path = tmp_path / "progress.ckpt"
    path.write_text("".join(_format_checkpoint_line(*solved, 4, 8) + "\n" for solved in unfolded))
    reps = _classes(4)[1]
    assert _parse_checkpoint(str(path), 8, 4) == {
        rep: (top, stars) for rep, top, stars in unfolded if rep in reps
    }


def test_checkpoint_ignores_malformed_lines(tmp_path):
    path = tmp_path / "progress.ckpt"
    path.write_bytes(
        b"not a checkpoint line\n\n0101 999\n"
        # a maximizer with a non-binary symbol, then with a non-ASCII byte
        b"0101 16 0101:0010101a 1010:11001100\n"
        b"0101 16 0101:0010101\xff 1010:11001100\n"
        # a count one above its maximizers' recount
        b"0110 25 0110:00111100 1001:11000011\n"
    )
    assert _parse_checkpoint(str(path), 8, 4) == {}
    table = mdm_table(8, 4, checkpoint_path=str(path))
    for row in table.rows:
        assert count_deletion_patterns(row.x_star, row.y) == row.max_count
        assert row.max_count == SMALL_TABLE[
            min(
                row.y.to_string(),
                row.y.to_string()[::-1],
                row.y.to_string().translate(str.maketrans("01", "10")),
                row.y.to_string().translate(str.maketrans("01", "10"))[::-1],
            )
        ]


# an (n, m) = (8, 4) checkpoint as earlier versions, which keyed classes by
# text, wrote it; such files must keep resuming to the same table and bytes
PARENT_CHECKPOINT_8_4 = (
    "0000 70 0000:00000000 1111:11111111\n"
    "0001 40 0001:00000011 0111:00111111 1000:11000000 1110:11111100\n"
    "0010 24 0010:00001100 0100:00110000 1011:11001111 1101:11110011\n"
    "0011 36 0011:00001111 1100:11110000\n"
    "0101 16 0101:00101011 1010:11001100\n"
    "0110 24 0110:00111100 1001:11000011\n"
)


def test_frozen_checkpoint_resumes_to_same_table_and_bytes(tmp_path):
    path = tmp_path / "progress.ckpt"
    lines = PARENT_CHECKPOINT_8_4.splitlines(keepends=True)
    path.write_text("".join(lines[:3]))
    assert sorted(_parse_checkpoint(str(path), 8, 4)) == [0, 1, 2]
    resumed = mdm_table(8, 4, checkpoint_path=str(path))
    assert resumed.rows == mdm_table(8, 4).rows
    assert path.read_text() == PARENT_CHECKPOINT_8_4
    # the m = 0 line has an empty rep and member
    path.write_text(" 1 :000000000\n")
    assert _parse_checkpoint(str(path), 9, 0) == {0: (1, {0: 0})}


@pytest.mark.parametrize(
    "line",
    [
        # members out of numeral order
        "0101 16 1010:11001100 0101:00101011",
        # the count with a leading zero or a sign
        "0011 036 0011:00001111 1100:11110000",
        "0011 +36 0011:00001111 1100:11110000",
        # a member written twice
        "0011 36 0011:00001111 0011:00001111 1100:11110000",
    ],
)
def test_checkpoint_skips_lines_the_search_never_writes(tmp_path, line):
    # true values in a layout other than the one `_format_checkpoint_line` writes
    path = tmp_path / "progress.ckpt"
    path.write_text(line + "\n")
    assert _parse_checkpoint(str(path), 8, 4) == {}
    assert mdm_table(8, 4, checkpoint_path=str(path)).rows == mdm_table(8, 4).rows
    # the line's class is solved again, so every class is appended
    assert path.read_text() == line + "\n" + PARENT_CHECKPOINT_8_4


def test_duplication_ratio_exact_fraction():
    assert duplication_ratio(_seq("0101010"), 14) == Fraction(128, 204)
    assert duplication_ratio(_seq("0000"), 8) == Fraction(1)


def test_min_duplication_ratio():
    y_min, gamma = min_duplication_ratio(14, 2)
    assert y_min.to_string() == "0101010"
    assert gamma == pytest.approx(128 / 204, rel=0, abs=1e-15)
    # all ratios are 1 here, so the smallest-numeral sequence wins the tie
    y8, g8 = min_duplication_ratio(8, 2)
    assert y8.to_string() == "0000"
    assert g8 == 1.0


def test_flip_sequence_and_alternating():
    assert flip_sequence(5).to_string() == "01010"
    assert is_alternating(_seq("0101"))
    assert is_alternating(_seq("1010"))
    assert is_alternating(_seq("0"))
    assert not is_alternating(_seq("0110"))


def test_stirling_lower_bound_holds():
    for n in (8, 10, 12, 14):
        _, gamma = min_duplication_ratio(n, 2)
        floor = stirling_lower_bound(n, 2)
        assert floor == pytest.approx(2 ** (n // 2) / math.comb(n, n // 2), rel=1e-12)
        assert floor <= gamma + 1e-12


def _assert_table_matches_walk(table, n, m):
    oracle = walk_table(n, m)
    assert [r.y.to_string() for r in table.rows] == sorted(oracle)
    for row in table.rows:
        assert (row.max_count, row.x_star.to_string()) == oracle[row.y.to_string()], (n, m, row.y)


def test_sum_max_counts_and_table_match_walk_oracle():
    for n in range(13):
        for m in range(n + 1):
            oracle = walk_table(n, m)
            assert sum_max_counts(n, m) == sum(top for top, _ in oracle.values()), (n, m)
            _assert_table_matches_walk(mdm_table(n, m), n, m)


def test_table_matches_walk_oracle_across_row_blocks(monkeypatch):
    # a 1 KiB budget cuts every class's counts into one-row blocks, so the
    # maximum and the argmax extremes are merged across blocks
    monkeypatch.setattr(patcount, "SPLIT_BYTES", 1 << 10)
    for n, m in [(8, 0), (9, 3), (10, 5), (11, 8), (12, 6)]:
        _assert_table_matches_walk(mdm_table(n, m), n, m)
        assert sum_max_counts(n, m) == sum(top for top, _ in walk_table(n, m).values())


@pytest.mark.parametrize("n, m", [(1, 1), (6, 0), (9, 4), (12, 6), (12, 11)])
def test_pooled_table_and_resume_match_walk_oracle(tmp_path, n, m):
    _assert_table_matches_walk(mdm_table(n, m, threads=2), n, m)
    assert sum_max_counts(n, m, threads=2) == sum(top for top, _ in walk_table(n, m).values())
    path = tmp_path / "progress.ckpt"
    mdm_table(n, m, checkpoint_path=str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: len(lines) // 2]))  # cut mid-file, no final newline
    _assert_table_matches_walk(mdm_table(n, m, threads=2, checkpoint_path=str(path)), n, m)
    assert set(lines) <= set(path.read_text().splitlines())


def _assert_both_paths_match_dense(monkeypatch, reps, m, n, ties=True):
    # rep, maximum and every member's smallest maximizer from the batched
    # row-pruned product (PRUNE_MIN_N above n) and from the per-class pruned
    # one (PRUNE_MIN_N = n), each against the dense split_counts solve
    want = split_counts_solve(reps, m, n)
    if not ties:
        want = [(rep, top, {}) for rep, top, _ in want]
    for crossover in (n + 1, n):
        monkeypatch.setattr(patcount, "PRUNE_MIN_N", crossover)
        assert _solve_class(reps, m, n, ties) == want, (n, m, ties, crossover)
    return want


def test_pruned_solve_matches_dense_below_crossover(monkeypatch):
    # every length small enough for the dense product to be cheap
    for n in range(15):
        for m in range(n + 1):
            _assert_both_paths_match_dense(monkeypatch, _classes(m)[1], m, n)


@pytest.mark.parametrize(
    "n, m, sample",
    [(16, 6, None), (16, 8, None), (16, 12, None), (20, 5, 10), (20, 10, 10), (20, 15, 10)],
)
def test_pruned_solve_matches_dense_past_crossover(monkeypatch, n, m, sample):
    reps = _classes(m)[1]
    if sample:
        reps = sorted(random.Random(n * 100 + m).sample(reps, sample))
    for ties in (True, False):
        _assert_both_paths_match_dense(monkeypatch, reps, m, n, ties)


def test_largest_count_at_the_cap_is_exact_on_both_paths(monkeypatch):
    # 0^24 gives y = 0^12 all C(24, 12) = 2,704,156 patterns, the largest
    # count the search can meet; the alternating y peaks at C(18, 6)
    reps = [0, 0b010101010101]
    solved = _assert_both_paths_match_dense(monkeypatch, reps, 12, 24)
    assert [top for _, top, _ in solved] == [math.comb(24, 12), 18_564]


def _by_class_batch(monkeypatch, solve):
    # solve() with class batches of one output (no share: split_batch's
    # floor of one), of the default size and of every class of one length
    results = []
    for shares in (0, patcount.CLASS_TABLES, 1 << 40):
        monkeypatch.setattr(patcount, "CLASS_TABLES", shares)
        results.append(solve())
    return results


def test_class_batch_size_changes_no_result(monkeypatch):
    # every class at n <= 12, ties on and off, and the sum and table built
    # from them
    for n in range(13):
        for m in range(n + 1):
            reps = _classes(m)[1]
            one, default, whole = _by_class_batch(
                monkeypatch,
                lambda: (
                    _solve_class(reps, m, n, ties=True),
                    _solve_class(reps, m, n),
                    sum_max_counts(n, m),
                    mdm_table(n, m),
                ),
            )
            assert one == default == whole, (n, m)


@pytest.mark.parametrize("n", [16, 18])
def test_class_batch_size_changes_no_result_sampled(monkeypatch, n):
    # below and at PRUNE_MIN_N, sampled classes of five lengths, then a
    # whole sum and table
    for m in (0, 5, n // 2, n - 3, n):
        reps = _classes(m)[1]
        reps = sorted(random.Random(n * 100 + m).sample(reps, min(40, len(reps))))
        for ties in (True, False):
            one, default, whole = _by_class_batch(monkeypatch, lambda: _solve_class(reps, m, n, ties))
            assert one == default == whole, (n, m, ties)
    one, default, whole = _by_class_batch(monkeypatch, lambda: (sum_max_counts(n, 9), mdm_table(n, 7)))
    assert one == default == whole, n


def test_pruned_blocks_stay_within_the_budget(monkeypatch):
    want = mdm_table(16, 8).rows
    shapes, pruned_blocks = [], patcount.pruned_blocks

    def recording(*tables):
        for us, vs, block in pruned_blocks(*tables):
            assert block.shape == (len(us), len(vs))
            shapes.append((block.shape[0], block.nbytes))
            yield us, vs, block

    monkeypatch.setattr(patcount, "pruned_blocks", recording)
    monkeypatch.setattr(patcount, "PRUNE_MIN_N", 0)
    # with no budget every kept product goes one row at a time; at
    # 32 * 2^b bytes a quarter holds a whole row of 2^b columns, so blocks
    # take several rows and still fit it
    monkeypatch.setattr(patcount, "SPLIT_BYTES", 1)
    assert mdm_table(16, 8).rows == want
    assert {rows for rows, _ in shapes} == {1}
    shapes.clear()
    monkeypatch.setattr(patcount, "SPLIT_BYTES", 32 << 8)
    assert mdm_table(16, 8).rows == want
    assert max(rows for rows, _ in shapes) > 1
    assert max(nbytes for _, nbytes in shapes) <= (32 << 8) // 4


@pytest.mark.parametrize("n", range(16))
def test_dense_solve_matches_split_counts_oracle(monkeypatch, n):
    # every class below PRUNE_MIN_N, whole products and one-row blocks
    assert n < patcount.PRUNE_MIN_N
    wants = {m: split_counts_solve(_classes(m)[1], m, n) for m in range(n + 1)}
    for budget in (patcount.SPLIT_BYTES, 1 << 10):
        monkeypatch.setattr(patcount, "SPLIT_BYTES", budget)
        for m, want in wants.items():
            reps = [rep for rep, _, _ in want]
            assert _solve_class(reps, m, n, ties=True) == want
            assert _solve_class(reps, m, n) == [(rep, top, {}) for rep, top, _ in want]


def test_dense_blocks_stay_within_the_budget(monkeypatch):
    blocks, class_blocks = [], mdm.class_blocks

    def recording(reps, m, n):
        for cs, block, us, vs in class_blocks(reps, m, n):
            assert block.shape == (len(cs), us.shape[1], len(vs))
            blocks.append((list(cs), block.nbytes))
            yield cs, block, us, vs

    monkeypatch.setattr(mdm, "class_blocks", recording)
    # at 1 KiB (the last budget) a quarter holds one row of 2^b columns up
    # to n = 12, and a class's kept rows split over several blocks
    for budget, top_n in ((patcount.SPLIT_BYTES, patcount.PRUNE_MIN_N), (1 << 10, 13)):
        monkeypatch.setattr(patcount, "SPLIT_BYTES", budget)
        split = False
        for n in range(top_n):
            for m in {0, n // 2, n}:
                blocks.clear()
                reps = _classes(m)[1]
                _solve_class(reps, m, n, ties=True)
                assert max(nbytes for _, nbytes in blocks) <= budget // 4, (budget, n, m)
                order = [c for cs, _ in blocks for c in cs]
                assert order == sorted(order) and set(order) == set(range(len(reps)))
                split |= len(order) > len(set(order))
    assert split


def test_pruned_path_matches_walk_oracle(monkeypatch):
    # the dense-path oracle tests again, every class through the pruned product
    monkeypatch.setattr(patcount, "PRUNE_MIN_N", 0)
    test_sum_max_counts_and_table_match_walk_oracle()
    test_table_matches_walk_oracle_across_row_blocks(monkeypatch)


@pytest.mark.parametrize("n, m", [(1, 1), (6, 0), (9, 4), (12, 6), (12, 11)])
def test_pooled_pruned_table_and_resume_match_walk_oracle(monkeypatch, tmp_path, n, m):
    # forked pool workers inherit the lowered crossover
    monkeypatch.setattr(patcount, "PRUNE_MIN_N", 0)
    test_pooled_table_and_resume_match_walk_oracle(tmp_path, n, m)


def test_sum_max_counts():
    assert sum_max_counts(8, 4) == 548
    table = mdm_table(10, 5)
    assert sum_max_counts(10, 5) == sum(r.max_count for r in table.rows)
    assert sum_max_counts(10, 5, threads=2) == sum_max_counts(10, 5, threads=1)


def test_sum_of_maxima_within_split_bound():
    # maximizing #(u, y[:k]) and #(v, y[k:]) apart, for x = uv with
    # |u| = a, bounds every maximum, and the sum over y factorizes
    S = {(n, m): sum_max_counts(n, m) for n in range(15) for m in range(n + 1)}
    for (n, m), total in S.items():
        for a in range(1, n):
            split = sum(S[a, k] * S[n - a, m - k] for k in range(max(0, m - n + a), min(a, m) + 1))
            assert total <= split, (n, m, a)


def test_sum_closed_forms_and_duplication_bracket():
    # m = n: y is its own only maximizer; m = n - 1: the best x stretches
    # a longest run of y by one bit.  The two integer duplication
    # estimates count feasible inputs, so their sums cannot pass the maxima
    for n in range(1, 15):
        assert sum_max_counts(n, n) == 1 << n
        stretched = sum(max((l for _, l in runs(y)), default=0) + 1 for y in all_sequences(n - 1))
        assert sum_max_counts(n, n - 1) == stretched, n
        for m in range(1, n + 1):
            total = sum_max_counts(n, m)
            for approach in (DupApproach.ASSIGN_TO_LAST, DupApproach.ASSIGN_BY_LENGTH):
                assert dup_sum(n, m, approach) <= total, (n, m, approach)
    # the Gamma estimate counts no input and can pass the sum of the maxima
    assert dup_sum(5, 3, DupApproach.GAMMA) == pytest.approx(55.185185, rel=0, abs=1e-6)
    assert sum_max_counts(5, 3) == 52
