"""Tests for the alternating-maximization capacity baseline."""

import math
import warnings

import numpy as np
import pytest

from delcap import (
    CapExceededError,
    baa_capacity,
    bdc_ml_bound_n,
    build_channel_matrix,
    dobrushin_sandwich,
    kkt_residual,
)
from delcap import baa, patcount
from delcap.baa import ChannelMatrix, _divergences, _input_divergences, _iterate, _newton, _newton_direction
from delcap.mdm import _classes
from oracle_utils import (
    dense_fold,
    direct_input_divergences,
    masked_input_divergences,
    masked_run,
    masked_step,
    newton_candidate,
    newton_direction,
    NewtonSchedule,
    plain_run,
    relaxation,
    reweight,
)


def _column(y: str) -> int:
    """The dense column of output y: 2^m - 1 + v for the numeral v of length m."""
    return (1 << len(y)) - 1 + (int(y, 2) if y else 0)


def _input_class(n: int) -> np.ndarray:
    """The row of the folded matrix that holds each input x."""
    canon, reps = _classes(n)
    return np.searchsorted(reps, canon)


def _assert_fold_of(w: ChannelMatrix, dense: ChannelMatrix) -> None:
    """w is the fold of the dense channel: w[C, O] the mean of the dense
    column of the rep of O over the inputs of C, h_C = h_x for x in C."""
    n, cls = w.n, _input_class(w.n)
    rep_cols = [(1 << m) - 1 + v for m in range(n + 1) for v in _classes(m)[1]]
    means = np.zeros_like(w.w)
    np.add.at(means, cls, dense.w[:, rep_cols])
    assert np.abs(w.w - means / np.bincount(cls)[:, None]).max() <= 1e-15, n
    assert np.abs(w.h[cls] - dense.h).max() <= 1e-12, n


def test_matrix_single_symbol():
    w = dense_fold(1, 0.3)
    assert w.w.shape == (2, 3)
    cols = [_column(y) for y in ("", "0", "1")]
    assert np.allclose(w.w[0, cols], [0.3, 0.7, 0.0], atol=1e-15)
    assert np.allclose(w.w[1, cols], [0.3, 0.0, 0.7], atol=1e-15)
    # folded: one input class {0, 1}, output classes {""} and {0, 1}
    w = build_channel_matrix(1, 0.3)
    assert np.allclose(w.w, [[0.3, 0.35]], rtol=0, atol=1e-15)
    assert w.t.tolist() == [1.0, 2.0] and w.s.tolist() == [2.0]


def test_matrix_two_symbols_hand_check():
    d = 0.4
    w = dense_fold(2, d)
    cols = {y: _column(y) for y in ("", "0", "1", "01", "10", "00")}
    x01 = w.w[0b01]
    assert x01[cols[""]] == pytest.approx(d * d, abs=1e-15)
    assert x01[cols["0"]] == pytest.approx(d * (1 - d), abs=1e-15)
    assert x01[cols["1"]] == pytest.approx(d * (1 - d), abs=1e-15)
    assert x01[cols["01"]] == pytest.approx((1 - d) * (1 - d), abs=1e-15)
    assert x01[cols["10"]] == 0.0
    x00 = w.w[0b00]
    assert x00[cols["0"]] == pytest.approx(2 * d * (1 - d), abs=1e-15)
    assert x00[cols["00"]] == pytest.approx((1 - d) * (1 - d), abs=1e-15)


def test_matrix_rows_are_distributions():
    w = dense_fold(6, 0.37)
    assert w.w.shape == (64, 2**7 - 1)
    assert np.abs(w.w.sum(axis=1) - 1.0).max() < 1e-12
    w = build_channel_matrix(6, 0.37)
    assert w.w.shape == (20, 43)
    assert np.abs(w.w @ w.t - 1.0).max() < 1e-12


@pytest.mark.parametrize("budget", [None, 1 << 12])
@pytest.mark.parametrize("d", [0.2, 0.7])
def test_matrix_matches_walk_built_matrix(monkeypatch, d, budget):
    # the small budget folds w from row blocks of single outputs
    if budget:
        monkeypatch.setattr(patcount, "SPLIT_BYTES", budget)
    for n in range(1, 11):
        _assert_fold_of(build_channel_matrix(n, d), dense_fold(n, d))


def _dense_reference(n, d, tol=1e-10, max_iter=20000):
    """(history, kkt residual, converged) of the loop on the dense channel
    from uniform."""
    dense = dense_fold(n, d)
    history, p, converged = _iterate(dense, tol, max_iter)
    return history, kkt_residual(dense, p), converged


_AGREEMENT_CASES = [(n, d, 1e-10) for n in range(1, 9) for d in (0.2, 0.5, 0.7)]


# (10, 0.5) takes 136 dense iterations to tol 1e-10; at tol 1e-4 the two
# loops stop on their own brackets, after 110
@pytest.mark.parametrize("n, d, tol", _AGREEMENT_CASES + [(9, 0.2, 1e-10), (10, 0.5, 1e-4)])
def test_fold_agrees_with_dense_fold(n, d, tol):
    w = build_channel_matrix(n, d)
    _assert_fold_of(w, dense_fold(n, d))
    assert w.s.sum() == 2**n
    lengths = np.repeat(np.arange(n + 1), [len(_classes(m)[1]) for m in range(n + 1)])
    assert np.bincount(lengths, w.t).tolist() == [2.0**m for m in range(n + 1)]
    history, kkt, converged = _dense_reference(n, d, tol)
    report = baa_capacity(n, d, tol)
    assert report.iterations == len(history)
    assert report.converged == converged
    assert np.abs(np.subtract(report.history, history)).max() <= 1e-12
    assert report.kkt_residual == pytest.approx(kkt, rel=0, abs=1e-12)


@pytest.mark.parametrize("n, d", [(5, 0.7), (6, 0.7), (7, 0.5), (8, 0.3)])
def test_newton_step_on_fold_unfolds_to_dense(n, d):
    # from the same invariant p, after 2^(n-3) plain updates from uniform, the
    # folded Newton step is the dense one; on the dense channel it solves the
    # bordered KKT system [J 1; p^T 0][du; lambda] = [D; 0] with J formed directly
    w, dense, cls = build_channel_matrix(n, d), dense_fold(n, d), _input_class(n)
    _, P, _ = plain_run(w, w.s / 2**n, max_iter=1 << (n - 3))
    p = P[cls] / w.s[cls]
    (D, info), (dense_D, dense_info) = masked_step(w, P), masked_step(dense, p)
    du, dense_du = _newton_direction(w, P, D), _newton_direction(dense, p, dense_D)
    assert np.abs(du[cls] - dense_du).max() <= 1e-12 * max(1.0, np.abs(du).max())
    J = (dense.w / (p @ dense.w)) @ dense.w.T * p
    bordered = np.block([[J, np.ones((2**n, 1))], [p, np.zeros(1)]])
    want = np.linalg.solve(bordered, np.append(dense_D, 0.0))[:-1]
    assert np.abs(dense_du - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    step = _newton(w, P, D, np.empty(w.w.shape[1]), info, float(D.max()) - info)
    dense_step = _newton(dense, p, dense_D, np.empty(dense.w.shape[1]), dense_info, float(dense_D.max()) - dense_info)
    assert step is not None and dense_step is not None
    new, dense_new = step[0][cls] / w.s[cls], dense_step[0]
    assert np.abs(np.log(new) - np.log(dense_new)).max() <= 1e-12
    assert step[2] == pytest.approx(dense_step[2], rel=0, abs=1e-12)


@pytest.mark.parametrize("columns", [1, 3, 64])
def test_newton_matrix_summed_in_column_blocks(monkeypatch, columns):
    # J summed over blocks of a few columns of w gives the direction of the
    # one-product oracle; at the default budget n <= 10 is one block
    w = build_channel_matrix(7, 0.5)
    _, p, _ = plain_run(w, w.s / 2**7, max_iter=16)
    D, _ = masked_step(w, p)
    want = newton_direction(w, p, D)
    monkeypatch.setattr(baa, "NEWTON_BLOCK_BYTES", 8 * len(p) * columns)
    got = _newton_direction(w, p, D)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


# at (7, 0.8) and (9, 0.7) the optimum wants a class below the double
# range, and the last five lost masses to underflow before every update
# held them at MASS_FLOOR per input
@pytest.mark.parametrize(
    "n, d",
    [(7, 0.7), (8, 0.7), (9, 0.6), (7, 0.8), (9, 0.7), (8, 0.8), (9, 0.9), (9, 0.95), (10, 0.8), (10, 0.95)],
)
def test_newly_converged_runs_certified_on_the_dense_channel(n, d):
    # the over-relaxed loop stopped these unconverged at 20,000 iterations;
    # the distribution the Newton steps reach, unfolded and scored by the
    # direct formula, closes Blahut's bracket over every class, and its
    # information is no lower than the plain loop's last
    w, cls = build_channel_matrix(n, d), _input_class(n)
    history, P, converged = _iterate(w, 1e-10, 20000)
    assert converged and (P / w.s >= baa.MASS_FLOOR).all()
    p = P[cls] / w.s[cls]
    D = direct_input_divergences(dense_fold(n, d), p)
    scale = n * math.log(2.0)
    assert (D.max() - p @ D) / scale <= 1e-10
    plain, _, plain_converged = plain_run(w, w.s / 2**n)
    assert not plain_converged
    assert history[-1] >= plain[-1] - 1e-10


def test_matrix_cap():
    with pytest.raises(CapExceededError):
        build_channel_matrix(15, 0.5)


def test_single_symbol_capacity_is_erasure():
    for d in (0.1, 0.25, 0.5, 0.9):
        report = baa_capacity(1, d)
        assert report.capacity_proxy == pytest.approx(1.0 - d, rel=0, abs=1e-12)
        assert report.converged
        # one input class, so D_C - lambda is exactly 0: nothing to round
        assert report.kkt_residual == 0.0


def test_history_monotone_and_bracket():
    report = baa_capacity(6, 0.5, tol=1e-10)
    hist = report.history
    assert all(b - a >= -1e-12 for a, b in zip(hist, hist[1:]))
    assert report.converged
    assert report.capacity_proxy == hist[-1]
    assert report.kkt_residual < 1e-8


def test_frozen_proxies():
    assert baa_capacity(4, 0.5).capacity_proxy == pytest.approx(0.332341, abs=1e-6)
    assert baa_capacity(8, 0.5).capacity_proxy == pytest.approx(0.26537577, abs=1e-7)


def test_quasi_degenerate_support_needs_long_run():
    # at n=6, d=0.7 some classes hold masses of 1e-19 to 1e-12 at the
    # optimum; the multiplicative update moves their ln p by about 1e-6 per
    # step and stopped on the bracket with a residual near 2e-7, but Newton
    # steps in ln p settle them before the bracket closes
    early = baa_capacity(6, 0.7, tol=1e-10)
    assert early.converged
    assert early.kkt_residual < 1e-8
    late = baa_capacity(6, 0.7, tol=1e-300, max_iter=50_000)
    assert late.kkt_residual < 1e-8
    assert late.capacity_proxy == pytest.approx(early.capacity_proxy, abs=1e-9)


# (6, 0.7) converges after 26 iterations; by 20 it has taken Newton steps
@pytest.mark.parametrize("n, d, max_iter", [(4, 0.5, 3), (6, 0.7, 20)])
def test_unconverged_residual_is_of_the_proxys_distribution(n, d, max_iter):
    report = baa_capacity(n, d, max_iter=max_iter)
    assert not report.converged and report.iterations == max_iter
    # rebuild the distribution whose information is the proxy, Newton steps included
    w = build_channel_matrix(n, d)
    _, p, _ = masked_run(w, w.s / 2**n, max_iter=max_iter)
    assert masked_step(w, p)[1] / (n * math.log(2.0)) == report.history[-1]
    assert report.kkt_residual == kkt_residual(w, p)


def test_proxy_below_raw_ml_bound():
    for n, d in [(4, 0.3), (6, 0.5), (8, 0.7)]:
        raw, _ = bdc_ml_bound_n(n, d)
        assert baa_capacity(n, d).capacity_proxy <= raw + 1e-9


def test_iterate_preserves_complement_symmetry():
    n, d = 5, 0.45
    w = dense_fold(n, d)
    p = np.full(2**n, 1.0 / 2**n)
    info_prev = -1.0
    for _ in range(50):
        D, info = masked_step(w, p)
        p, info = reweight(p, D), info / (n * math.log(2.0))
        assert info >= info_prev - 1e-12
        info_prev = info
    flipped = np.array([p[(2**n - 1) ^ v] for v in range(2**n)])
    assert np.abs(p - flipped).max() < 1e-9
    assert kkt_residual(w, p) < 1e-2  # 50 steps is far from converged


def test_kkt_residual_uniform_single_symbol():
    w = dense_fold(1, 0.3)
    assert kkt_residual(w, np.array([0.5, 0.5])) == pytest.approx(0.0, abs=1e-12)


def test_kkt_residual_checks_inputs_off_a_point_mass_support():
    # inputs with p_j exactly 0 are scored against lambda, not masked to 0;
    # the same p with 1e-13 on the other inputs already read 19.4
    w = dense_fold(2, 0.3)
    for p in ([1.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.5]):
        assert kkt_residual(w, np.array(p)) > 1e-3
    assert kkt_residual(w, np.array([1 - 3e-13, 1e-13, 1e-13, 1e-13])) > 1e-3


def test_kkt_residual_support_is_per_input_mass():
    # class 2 of n = 6 has four inputs and D_C < lambda; at 2e-12 its inputs
    # hold 5e-13 each, under KKT_SUPPORT_EPS, so it is off support as on the
    # dense channel, and D_C - lambda < 0 adds nothing
    n, d = 6, 0.7
    w, cls = build_channel_matrix(n, d), _input_class(n)
    _, p, _ = _iterate(w, 1e-10, 20000)
    assert w.s[2] == 4
    p[2] = 2e-12
    p /= p.sum()
    D = _input_divergences(w, p)
    assert D[2] < p @ D
    want = kkt_residual(dense_fold(n, d), p[cls] / w.s[cls])
    assert kkt_residual(w, p) == pytest.approx(want, rel=0, abs=1e-12)


def _test_distributions(size):
    rng = np.random.default_rng(5)
    uniform = np.full(size, 1.0 / size)
    random = rng.random(size) + 0.01
    sparse = rng.random(size) + 0.01
    if size > 1:  # n = 1 has one input class, which keeps its mass
        sparse[::2] = 0.0  # no input ending in 0, so some outputs get q(y) = 0
    return uniform, random / random.sum(), sparse / sparse.sum()


def test_divergences_match_direct_formula():
    # class masses spread evenly over each class's inputs, against the
    # direct formula on the dense channel
    for n in range(1, 9):
        cls = _input_class(n)
        for d in (0.1, 0.5, 0.9):
            w, dense = build_channel_matrix(n, d), dense_fold(n, d)
            for p in _test_distributions(len(w.s)):
                expected = direct_input_divergences(dense, p[cls] / w.s[cls])
                D, info = masked_step(w, p)
                assert np.abs(D[cls] - expected).max() <= 1e-12
                assert info == pytest.approx(float(p @ D), rel=0, abs=1e-12)
                assert info == pytest.approx(float(p[cls] / w.s[cls] @ expected), rel=0, abs=1e-12)
                unmasked = _input_divergences(w, p)
                assert np.array_equal(unmasked[p > 0], D[p > 0])
                new = reweight(p, D)
                direct = p[cls] / w.s[cls] * np.exp(expected)
                assert np.abs(new - np.bincount(cls, direct / direct.sum())).max() <= 1e-12


def test_divergences_match_masked_oracle_bit_for_bit():
    # on the folded channel; the sparse distribution leaves some q_O = 0
    for n in range(1, 11):
        for d in (0.1, 0.5, 0.9):
            w = build_channel_matrix(n, d)
            for p in _test_distributions(len(w.s)):
                assert np.array_equal(
                    _input_divergences(w, p), masked_input_divergences(w, p)
                ), (n, d)
                if not p.all():  # the loop's masses never reach 0
                    continue
                D = np.empty_like(p)
                info, top = _divergences(w, p, np.empty(w.w.shape[1]), D)
                want_D, want_info = masked_step(w, p)
                assert np.array_equal(D, want_D), (n, d)
                assert info == want_info and top == want_D.max(), (n, d)


# at (6, 0.95) and (8, 0.8) relaxed updates raise masses to MASS_FLOOR
@pytest.mark.parametrize("n, d", [(6, 0.7), (9, 0.2), (5, 0.7), (8, 0.3), (6, 0.95), (8, 0.8)])
def test_capacity_matches_masked_oracle_bit_for_bit(monkeypatch, n, d):
    w = build_channel_matrix(n, d)
    history, p, _ = masked_run(w, w.s / 2**n)
    report = baa_capacity(n, d)
    assert report.history == history
    assert report.iterations == len(history)
    monkeypatch.setattr(baa, "_input_divergences", masked_input_divergences)
    assert report.kkt_residual == kkt_residual(w, p)


_GRID_D = (0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)


@pytest.mark.parametrize("n", range(1, 9))
def test_relaxed_loop_against_plain_loop(n):
    # the plain update p exp(D) / sum is the reference: the over-relaxed run
    # never takes more iterations, converges wherever it converges, to the
    # same proxy, and its history never falls
    for d in _GRID_D:
        w = build_channel_matrix(n, d)
        plain, _, plain_converged = plain_run(w, w.s / 2**n)
        report = baa_capacity(n, d)
        assert report.iterations <= len(plain), d
        if plain_converged:
            assert report.converged, d
        if report.converged:  # a closed bracket certifies the distribution
            assert math.isfinite(report.kkt_residual), d
            assert report.capacity_proxy == pytest.approx(plain[-1], rel=0, abs=1e-9), d
        hist = report.history
        assert all(b - a >= -1e-12 for a, b in zip(hist, hist[1:])), d
        if (n, d) in ((6, 0.7), (8, 0.5)):  # 6,619 of 13,241 and 1,957 of 3,919
            assert report.iterations <= 0.55 * len(plain), d


@pytest.mark.parametrize("n", range(9, 13))
def test_relaxed_history_never_falls_past_the_grid(n):
    # past the plain-loop grid: low d runs to convergence, high d for its
    # first 400 updates, where the steps are largest; no history falls
    for d, max_iter in ((0.02, 20000), (0.1, 20000), (0.3, 20000), (0.8, 400), (0.95, 400)):
        report = baa_capacity(n, d, max_iter=max_iter)
        hist = report.history
        assert all(b - a >= -1e-12 for a, b in zip(hist, hist[1:])), d
        if report.converged:
            assert math.isfinite(report.kkt_residual), d


@pytest.mark.parametrize("n, d", [(9, 0.8), (10, 0.9)])
def test_open_runs_stop_at_max_iter_with_a_finite_residual(n, d):
    # these two still do not close the bracket in 20,000 iterations; with
    # every class mass at or above MASS_FLOOR no q_O is 0, so the residual
    # scores every class finitely (about 1.7e-3 and 6.2e-5)
    report = baa_capacity(n, d)
    assert report.converged is False and report.iterations == 20000
    assert 0.0 < report.kkt_residual < 1e-2


def test_no_warning_leaks_and_error_state_is_restored():
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, d in [(4, 0.5), (8, 0.5), (6, 0.7), (9, 0.2), (5, 0.7), (8, 0.3), (7, 0.8), (8, 0.8)]:
            baa_capacity(n, d)
    assert np.geterr() == before


def _direct_scores(w, p):
    D = direct_input_divergences(w, p)
    return D, float(p @ D)


def _direct_history(n, d, tol=1e-10, max_iter=20000):
    """Mutual-information history of the iteration driven by the direct
    formula on the dense channel: the over-relaxed update, and the Newton
    step when one is due and accepted."""
    w = dense_fold(n, d)
    p = np.full(2**n, 1.0 / 2**n)
    history, last, schedule = [], math.nan, NewtonSchedule(n)
    D, info = _direct_scores(w, p)
    while True:
        history.append(info / (n * math.log(2.0)))
        gap = float(D.max()) - info
        if gap / (n * math.log(2.0)) <= tol or len(history) == max_iter:
            return history
        mu, last = relaxation(last, gap), gap
        if len(history) >= schedule.due:
            step = newton_candidate(w, p, D, info, gap, _direct_scores)
            schedule.record(len(history), step is not None)
            if step is not None:
                p, D, info = step
                continue
        p = reweight(p, D, mu)
        D, info = _direct_scores(w, p)


def test_capacity_history_matches_direct_formula():
    for n, d in [(4, 0.3), (6, 0.5), (9, 0.2)]:
        expected = [f"{v:.12g}" for v in _direct_history(n, d)]
        report = baa_capacity(n, d)
        assert report.iterations == len(expected)
        assert [f"{v:.12g}" for v in report.history] == expected


def test_dobrushin_sandwich():
    lower, upper = dobrushin_sandwich(7, 0.4)
    assert upper == 0.4
    assert lower == pytest.approx(0.4 - math.log2(8) / 7, rel=0, abs=1e-15)
    with pytest.raises(ValueError):
        dobrushin_sandwich(4, -0.01)


def test_report_sandwich_uses_proxy():
    report = baa_capacity(3, 0.4)
    lower, upper = report.sandwich
    assert upper == report.capacity_proxy
    assert lower == pytest.approx(report.capacity_proxy - 2.0 / 3.0, abs=1e-12)
