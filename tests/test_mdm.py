"""Tests for the exhaustive search and the duplication heuristics."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delcap import (
    BinarySequence,
    CapExceededError,
    DupApproach,
    approximate_dup_sequence,
    build_dup_sequence,
    canonical_form,
    count_deletion_patterns,
    dup_count_formula,
    duplication_ratio,
    flip_sequence,
    is_alternating,
    mdm_table,
    min_duplication_ratio,
    stirling_lower_bound,
    sum_max_counts,
)
from delcap import patcount
from delcap.mdm import _classes, _format_checkpoint_line, _parse_checkpoint, _solve_class
from oracle_utils import prefix_walk_counts, walk_table

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
    # every orbit member's maximizer is derived from the rep's count vector
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 11)
        m = rng.randint(1, n)
        y = BinarySequence.from_numeral(rng.getrandbits(m), m)
        [(_, max_count, stars)] = _solve_class([y.bits], m, n, ties=True)
        assert y.bits in stars
        for member, x_star in stars.items():
            counts = prefix_walk_counts(BinarySequence(member, m), n)
            assert max_count == counts.max()
            assert x_star == int(counts.argmax())


def test_dup_count_formula_and_sequence():
    y = _seq("0101010")
    x = build_dup_sequence(y, 2)
    assert x.to_string() == "00110011001100"
    assert dup_count_formula(y, 2) == 128
    assert count_deletion_patterns(x, y) == 128
    # two runs of unequal length
    y2 = _seq("011")
    assert build_dup_sequence(y2, 3).to_string() == "000111111"
    assert dup_count_formula(y2, 3) == math.comb(3, 1) * math.comb(6, 2)


def test_dup_sequence_cap():
    with pytest.raises(CapExceededError):
        build_dup_sequence(BinarySequence(0, 32), 3)


def test_dup_count_matches_direct_count():
    rng = random.Random(32)
    for _ in range(60):
        m = rng.randint(1, 7)
        F = rng.randint(1, 63 // m)
        y = BinarySequence.from_numeral(rng.getrandbits(m), m)
        x = build_dup_sequence(y, F)
        assert count_deletion_patterns(x, y) == dup_count_formula(y, F)


def test_approach_worked_examples():
    y = _seq("010001")
    to_last = approximate_dup_sequence(y, 15, DupApproach.ASSIGN_TO_LAST)
    by_length = approximate_dup_sequence(y, 15, DupApproach.ASSIGN_BY_LENGTH)
    assert to_last.to_string() == "001100000000111"
    assert by_length.to_string() == "001100000000011"


def test_approaches_agree_for_integer_stretch():
    rng = random.Random(33)
    for _ in range(30):
        m = rng.randint(1, 7)
        F = rng.randint(1, 63 // m)
        y = BinarySequence.from_numeral(rng.getrandbits(m), m)
        want = build_dup_sequence(y, F)
        for approach in (DupApproach.ASSIGN_TO_LAST, DupApproach.ASSIGN_BY_LENGTH):
            assert approximate_dup_sequence(y, F * m, approach) == want


def test_approximate_sequences_preserve_output():
    rng = random.Random(34)
    for _ in range(60):
        m = rng.randint(1, 10)
        n = rng.randint(m, min(40, 4 * m))
        y = BinarySequence.from_numeral(rng.getrandbits(m), m)
        for approach in (DupApproach.ASSIGN_TO_LAST, DupApproach.ASSIGN_BY_LENGTH):
            x = approximate_dup_sequence(y, n, approach)
            assert len(x) == n
            assert count_deletion_patterns(x, y) >= 1


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
    assert _canon(m)[v] == canonical_form(BinarySequence(v, m)).bits


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


def test_table_rows_sorted_and_complete():
    table = mdm_table(10, 4)
    assert [r.y.numeral() for r in table.rows] == list(range(16))
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


def test_sum_max_counts():
    assert sum_max_counts(8, 4) == 548
    table = mdm_table(10, 5)
    assert sum_max_counts(10, 5) == sum(r.max_count for r in table.rows)
    assert sum_max_counts(10, 5, threads=2) == sum_max_counts(10, 5, threads=1)
