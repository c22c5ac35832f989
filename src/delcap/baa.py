"""Blahut-Arimoto baseline for the finite-n deletion channel.

Builds the dense transition matrix over all inputs of length n and all
outputs of length 0..n (the empty output included, otherwise rows would sum
to 1 - d^n), runs the alternating-maximization iteration from the uniform
input, and reports the per-symbol capacity proxy with a convergence bracket,
the KKT residual of the final distribution, and the additive sandwich that
pins the true capacity under the proxy.  The per-input sum_y W ln W is
built once beside W, so an iteration costs two np.dot products, p W and
W ln q, into buffers allocated before the loop, and a log, subtract, max,
one nonzero count, dot, exp, multiply, sum and divide in place: nothing is
allocated per iteration.  The masked step (ln q = 0 where q(y) = 0, D_j = 0
where p_j = 0) redoes an iteration only on one of those exact zeros, which
multiplicative updates from the uniform start never make.

Input distributions are plain numpy vectors over the 2^n inputs, indexed by
numeral like everything else; internals work in nats, the API reports bits
per symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitseq import CapExceededError
from .patcount import counts_for_all_inputs  # noqa: F401  (the benchmark tracer wraps this name)
from .patcount import split_counts

# Dense matrix is 2^n x (2^(n+1) - 1) float64, 4.3 GB at n = 14; past that
# it stops fitting in ordinary memory.  The iteration holds only W beside
# vectors, but the cap stays until a larger n is measured.
BAA_MAX_N = 14

_LN2 = math.log(2.0)

# Below this mass an input is treated as off-support when scoring KKT
# optimality; multiplicative updates never produce exact zeros.
KKT_SUPPORT_EPS = 1e-12


@dataclass(frozen=True)
class ChannelMatrix:
    """Dense W(y|x) for block length n and deletion probability d.

    Row index is the numeral of x.  Columns run over output lengths 0..n,
    each length in numeral order: output v of length m is column
    2^m - 1 + v.  h[j] = sum_y w ln w (nats).
    """

    n: int
    d: float
    w: np.ndarray
    h: np.ndarray


@dataclass(frozen=True)
class BaaReport:
    n: int
    d: float
    iterations: int
    capacity_proxy: float
    history: list
    kkt_residual: float
    sandwich: tuple
    converged: bool


def build_channel_matrix(n: int, d: float) -> ChannelMatrix:
    """Dense transition matrix w[x, y] = #(x,y) (1-d)^len(y) d^(n-len(y)).

    Filled one output length at a time from the split kernel
    (`patcount.split_counts`): each block of counts is widened to float64,
    scaled and written straight into its slice of W's columns, so beside W
    the build holds one kernel batch, within `patcount.SPLIT_BYTES`, one
    widened block and no second matrix-sized array.  h gets its terms one
    column at a time in output order, with ln 1 = 0 where w = 0, so every
    h_j is the same left-to-right sum at any block size.
    """
    if n < 1:
        raise ValueError(f"block length {n} must be >= 1")
    if n > BAA_MAX_N:
        raise CapExceededError(f"dense matrix capped at n <= {BAA_MAX_N}, got {n}")
    if not 0.0 < d < 1.0:
        raise ValueError(f"deletion probability {d} outside (0, 1)")
    w = np.empty((1 << n, (1 << (n + 1)) - 1), dtype=np.float64)
    h = np.zeros(1 << n)
    for m in range(n + 1):
        scale = (1.0 - d) ** m * d ** (n - m)
        for first, x0, block in split_counts(range(1 << m), m, n):
            # widen the exact counts first: scaling in float32 would round W
            block = block.astype(np.float64)
            block *= scale
            rows, col = slice(x0, x0 + block.shape[1]), (1 << m) - 1 + first
            w[rows, col : col + len(block)] = block.T
            for terms in block * np.log(block + (block == 0.0)):
                h[rows] += terms
    assert abs(w.sum(axis=1) - 1.0).max() < 1e-12, "rows must be stochastic"
    return ChannelMatrix(n=n, d=d, w=w, h=h)


def _input_divergences(w: ChannelMatrix, p: np.ndarray) -> np.ndarray:
    """D_j = sum_y w ln(w/q) = h_j - sum_y w[j,y] ln q(y) nats, for every j;
    +inf where some y with w[j,y] > 0 has q(y) = 0, only possible off support."""
    q = np.dot(p, w.w)
    if np.count_nonzero(q) == q.size:  # no masking to do: the usual case
        return w.h - np.dot(w.w, np.log(q))
    dead = q <= 0.0
    D = w.h - w.w @ np.log(q, out=np.zeros_like(q), where=~dead)
    D[(w.w[:, dead] > 0.0).any(axis=1)] = np.inf
    return D


def _step(w: ChannelMatrix, p: np.ndarray) -> tuple[np.ndarray, float]:
    """(D, mutual information in nats) of p; D_j is 0 where p_j = 0, which
    leaves both the information and the update p_j exp(D_j) unchanged."""
    D = _input_divergences(w, p)
    if np.count_nonzero(p) < p.size:
        D = np.where(p > 0.0, D, 0.0)
    return D, float(np.dot(p, D))


def baa_capacity(
    n: int, d: float, tol: float = 1e-10, max_iter: int = 20000
) -> BaaReport:
    """Iterate from the uniform input until the capacity bracket closes.

    The bracket is (max_j D_j - sum_j p_j D_j) / n in bits: an upper and
    lower capacity estimate from the same divergences.  Non-convergence
    within max_iter is reported through the `converged` flag, not an error.
    The KKT residual is of the last distribution scored, the one whose
    information is the capacity proxy, converged or not.  The iteration
    allocates its two vectors once, before the loop.
    """
    if not tol > 0.0:  # NaN too: it would never stop the loop
        raise ValueError("tolerance must be positive")
    if max_iter < 1:
        raise ValueError("iteration cap must be >= 1")
    w = build_channel_matrix(n, d)
    history, p, converged = _iterate(w, np.full(1 << n, 1.0 / (1 << n)), tol, max_iter)
    proxy = history[-1]
    return BaaReport(
        n=n,
        d=d,
        iterations=len(history),
        capacity_proxy=proxy,
        history=history,
        kkt_residual=kkt_residual(w, p),
        sandwich=dobrushin_sandwich(n, proxy),
        converged=converged,
    )


def _iterate(w: ChannelMatrix, p: np.ndarray, tol: float, max_iter: int) -> tuple:
    """(history in bits per symbol, last p scored, converged) from a copy of p:
    `_step` and p exp(D) / sum, op for op, in place; an exact zero in q (max D
    not finite) or in p sends the iteration through `_step` itself."""
    W, h, scale = w.w, w.h, w.n * _LN2
    p = np.array(p, dtype=np.float64)
    q, D = np.empty(W.shape[1]), np.empty(W.shape[0])
    history: list[float] = []
    # ln 0 and 0 * ln 0 come only from an exact zero in q, and _step redoes that iteration
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            p.dot(W, out=q)
            np.log(q, out=q)
            W.dot(q, out=D)
            np.subtract(h, D, out=D)
            top = float(np.maximum.reduce(D))
            info = float(p.dot(D))
            if not math.isfinite(top) or np.count_nonzero(p) < p.size:
                D[...], info = _step(w, p)
                top = float(np.maximum.reduce(D))
            history.append(info / scale)
            converged = (top - info) / scale <= tol
            if converged or len(history) == max_iter:
                return history, p, converged
            np.multiply(p, np.exp(D, out=D), out=p)  # the residual is of the proxy's p
            np.divide(p, np.add.reduce(p), out=p)


def kkt_residual(w: ChannelMatrix, p: np.ndarray) -> float:
    """Distance of p from the capacity optimality conditions, bits per symbol.

    With D_j the per-input divergence and lambda their p-average, an optimal
    p has D_j = lambda wherever p_j > 0 and D_j <= lambda elsewhere.  The
    residual adds the worst on-support deviation |D_j - lambda| and the
    worst off-support excess max(0, D_j - lambda); inputs p leaves out
    entirely are checked too, and an infinite D_j gives an infinite residual.
    """
    p = np.asarray(p, dtype=np.float64)
    D = _input_divergences(w, p) / (w.n * _LN2)
    lam = float(p @ np.where(p > 0.0, D, 0.0))
    support = p > KKT_SUPPORT_EPS
    on = np.abs(D[support] - lam).max(initial=0.0)
    return float(on + (D[~support] - lam).max(initial=0.0))


def dobrushin_sandwich(n: int, c_n: float) -> tuple[float, float]:
    """(c_n - log2(n+1)/n, c_n): the true capacity sits inside this interval.

    The lower edge can go negative at small n, in which case it is vacuous
    but still reported as is.
    """
    if c_n < 0.0:
        raise ValueError("capacity proxy must be non-negative")
    return (c_n - math.log2(n + 1) / n, c_n)
