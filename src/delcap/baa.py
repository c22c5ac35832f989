"""Blahut-Arimoto baseline for the finite-n deletion channel, on symmetry classes.

Complement and reversal g act on inputs and outputs with W(gy|gx) = W(y|x),
and the uniform start and every update are invariant under them, so the
iteration runs exactly on class masses P over the folded matrix w of
`build_channel_matrix`, about 2^n/4 input by 2^(n+1)/4 output classes.  It
reports the per-symbol capacity proxy with its convergence bracket, the KKT
residual of the final distribution, and the additive sandwich around the
proxy, whose lower edge always holds and whose upper edge, the proxy, holds
only to within the closed bracket.  The update P exp(mu D) / sum is
over-relaxed by a scalar mu <= 2 from the last two brackets (see
`baa_capacity`), which about halves the iterations; such an iteration
costs two np.dot products, P w and w (t ln q), and allocates nothing.
Between them the loop takes damped Newton steps in ln P on the
optimality conditions (see `_newton_direction`), each of which builds and
solves an r x r system, r the number of input classes, at the cost of
about 2^(n-3) relaxed iterations; they settle class masses of 1e-19 that
the multiplicative update moves by 1e-6 in ln P per step.  Both moves
raise every input mass P_C / s_C to at least `MASS_FLOOR` (`_reweight`),
so no mass and no q_O underflows to 0 and every divergence is finite.  A
closed bracket, a max over every class, certifies the proxy; the KKT
residual measures the distribution.
Internals work in nats, the API reports bits per symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitseq import CapExceededError
from .mdm import _classes
from .patcount import counts_for_all_inputs  # noqa: F401  (the benchmark tracer wraps this name)
from .patcount import split_counts

# The folded matrix quadruples per n (266 MiB at 14); measured costs in README.
BAA_MAX_N = 14

_LN2 = math.log(2.0)

# Below this mass an input is treated as off-support when scoring KKT
# optimality; the loop's masses never fall below `MASS_FLOOR`.
KKT_SUPPORT_EPS = 1e-12

# Every update raises each input mass p_C / s_C below this to it.  Where
# the optimum wants a class below the double range, as at (9, 0.7), the
# class stays here and Newton's step in ln p settles the rest; such a class
# has D_C below the information, so it does not hold the bracket open.
# q_O, at least 1e-200 times some w[C, O], stays clear of the subnormals.
MASS_FLOOR = 1e-200

# Step sizes a Newton candidate tries, 1 down to 2^-NEWTON_HALVINGS.
NEWTON_HALVINGS = 5

# A Newton candidate whose information falls below the current one by less
# than this, bits per symbol, counts as not falling.  Next to the optimum the
# true difference is far below rounding, and the computed one is noise of a
# few 1e-16 that the summation order (fold or dense, BLAS kernel) decides;
# compared with 0, it would make the iteration count depend on that order.
NEWTON_SLACK = 1e-14

# Bytes of one scaled column block of w while J is summed (`_newton_direction`).
NEWTON_BLOCK_BYTES = 16 << 20


@dataclass(frozen=True)
class ChannelMatrix:
    """W(y|x) for block length n and deletion probability d, folded on classes.

    Rows are the input classes of `mdm._classes(n)` in rep order, s[C]
    members each; columns the output classes of `mdm._classes(m)` for
    m = 0..n, by length and then rep, t[O] members each.  w[C, O] is the
    mean over x in C of W(o|x) at the rep o of O, so w @ t = 1, and h[C] is
    sum_y W(y|x) ln W(y|x) nats for any x in C.  t = s = 1 is the dense W.
    """

    n: int
    d: float
    w: np.ndarray
    h: np.ndarray
    t: np.ndarray
    s: np.ndarray


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
    """The channel w[x, y] = #(x,y) (1-d)^len(y) d^(n-len(y)), folded.

    Only the output reps are counted, one length at a time, by the split
    kernel (`patcount.split_counts`).  Each block is widened to float64,
    scaled, and summed over the input class of each x by one bincount into
    its columns of w, and its w ln w terms (ln 1 = 0 where w = 0), times t,
    into h: by the symmetry, sum_{x in C} W(y|x) ln W(y|x) is the same for
    every y in O.  Beside w the build holds one kernel batch, within
    `patcount.SPLIT_BYTES`, and a few arrays the size of one block.
    """
    if n < 1:
        raise ValueError(f"block length {n} must be >= 1")
    if n > BAA_MAX_N:
        raise CapExceededError(f"channel matrix capped at n <= {BAA_MAX_N}, got {n}")
    if not 0.0 < d < 1.0:
        raise ValueError(f"deletion probability {d} outside (0, 1)")
    canon, reps = _classes(n)
    cls, rows = np.searchsorted(reps, canon), len(reps)  # cls[x]: the input class of x
    outs = [_classes(m) for m in range(n + 1)]
    t = np.concatenate([np.bincount(np.searchsorted(r, c)) for c, r in outs]).astype(np.float64)
    w, h, col = np.zeros((rows, len(t))), np.zeros(rows), 0
    for m, (_, out_reps) in enumerate(outs):
        scale = (1.0 - d) ** m * d ** (n - m)
        for first, x0, block in split_counts(out_reps, m, n):
            # widen the exact counts first: scaling in float32 would round W
            block = block.astype(np.float64)
            block *= scale
            k, width = block.shape
            at = (np.arange(0, k * rows, rows)[:, None] + cls[x0 : x0 + width]).ravel()
            cols = slice(col + first, col + first + k)
            w[:, cols] += np.bincount(at, block.ravel(), k * rows).reshape(k, rows).T
            terms = (block * np.log(block + (block == 0.0))).ravel()
            h += t[cols] @ np.bincount(at, terms, k * rows).reshape(k, rows)
        col += len(out_reps)
    s = np.bincount(cls).astype(np.float64)
    w /= s[:, None]
    h /= s
    assert abs(w @ t - 1.0).max() < 1e-12, "rows must be stochastic"
    return ChannelMatrix(n=n, d=d, w=w, h=h, t=t, s=s)


def _input_divergences(w: ChannelMatrix, p: np.ndarray) -> np.ndarray:
    """D_C = sum_y W ln(W/q) = h_C - sum_O t_O w[C,O] ln q_O nats for every
    class C, q = p w; +inf where some O with w[C,O] > 0 has q_O = 0, which
    only a p with exact zeros, such as a point mass, leaves."""
    q = np.dot(p, w.w)
    dead = q <= 0.0
    D = w.h - w.w @ (np.log(q, out=np.zeros_like(q), where=~dead) * w.t)
    D[(w.w[:, dead] > 0.0).any(axis=1)] = np.inf
    return D


def baa_capacity(
    n: int, d: float, tol: float = 1e-10, max_iter: int = 20000
) -> BaaReport:
    """Iterate from the uniform input, masses s / 2^n, until the bracket closes.

    The bracket is (max_C D_C - sum_C p_C D_C) / n in bits: an upper and
    lower capacity estimate from the same divergences.  Non-convergence
    within max_iter is reported through the `converged` flag, not an error.
    The KKT residual is of the last distribution scored, the one whose
    information is the capacity proxy, converged or not.

    Each relaxed update is p exp(mu D) / sum, D the divergences in nats,
    with every mass raised to the floor (`_reweight`).
    With g the bracket max D - info in nats of this iterate and g' the one
    before, mu is 1 on the first update, when g' <= 0 or either is not
    finite; 2 when the bracket did not shrink; else min(2, g' / (g' - g)),
    Aitken's 1 / (1 - r) for r = g / g', which extrapolates a bracket
    shrinking by r per step.  The cap is 2 because larger steps overshoot:
    at 3 the (9, 0.2) history falls, at 4 (9, 0.3) stops unconverged.
    Where one is due and accepted, a damped Newton step replaces the
    relaxed update (see `_iterate`).  Both keep every iterate invariant
    under complement and reversal, so the fold stays exact.
    """
    if not tol > 0.0:  # NaN too: it would never stop the loop
        raise ValueError("tolerance must be positive")
    if max_iter < 1:
        raise ValueError("iteration cap must be >= 1")
    w = build_channel_matrix(n, d)
    history, p, converged = _iterate(w, tol, max_iter)
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


def _iterate(w: ChannelMatrix, tol: float, max_iter: int) -> tuple:
    """(history in bits per symbol, last p scored, converged) from the
    uniform input, masses s / 2^n.

    Each pass scores p (`_divergences`) and then moves it, by a damped
    Newton step (`_newton`) when one is due and accepted, else by the
    relaxed update of `baa_capacity`.  A Newton step costs r^2 c flops for
    J and 2 r^3 / 3 for its solve against 4 r c for a relaxed iteration, r
    about 2^n / 4 input and c about 2 r output classes: at most about
    2^(n-3) relaxed iterations (measured at n = 12: 0.12 s, about 50).  So a
    Newton step is first due after 2^(n-3) iterations, again at once
    after an accepted step, and 2^(n-3) 2^(k-1) iterations after the k-th
    rejection in a row: at d >= 0.9 the candidates mostly overflow or
    lower the information and are refused.  The schedule reads only
    n and the history, so the fold and the dense channel decide alike.
    The relaxed update writes the new p over D, and D takes the old p's
    buffer: it allocates nothing.  A Newton step allocates its system and candidates."""
    scale = w.n * _LN2
    p, floor = w.s / (1 << w.n), MASS_FLOOR * w.s
    q, D = np.empty(w.w.shape[1]), np.empty(w.w.shape[0])
    history: list[float] = []
    last = math.nan  # the previous bracket in nats; none before the first update
    wait = 1 << max(w.n - 3, 0)
    due, misses = wait, 0
    # a Newton candidate that overflows is scored NaN and refused
    with np.errstate(invalid="ignore", over="ignore"):
        info, top = _divergences(w, p, q, D)
        while True:
            history.append(info / scale)
            gap = top - info
            converged = bool(gap / scale <= tol)
            if converged or len(history) == max_iter:
                return history, p, converged
            mu = 1.0
            if 0.0 < last < math.inf and math.isfinite(gap):
                mu = 2.0 if gap >= last else min(2.0, last / (last - gap))
            last = gap
            if len(history) >= due:
                step = _newton(w, p, D, q, info, gap)
                if step is not None:
                    p, D, info, top = step
                    due, misses = len(history) + 1, 0
                    continue
                misses += 1
                due = len(history) + (wait << (misses - 1))
            p, D = _reweight(p, D, mu, floor, D), p
            info, top = _divergences(w, p, q, D)


def _reweight(p: np.ndarray, v: np.ndarray, a: float, floor: np.ndarray, out: np.ndarray) -> np.ndarray:
    """p exp(a v) / sum written into out, which may be v, each mass raised
    to at least floor (which adds at most 2^n `MASS_FLOOR` to the sum of 1)."""
    np.multiply(v, a, out=out)
    np.multiply(p, np.exp(out, out=out), out=out)
    np.divide(out, np.add.reduce(out), out=out)
    return np.maximum(out, floor, out=out)


def _divergences(w: ChannelMatrix, p: np.ndarray, q: np.ndarray, D: np.ndarray) -> tuple[float, float]:
    """(information, max D) in nats, with D = h - w (t ln q), q = p w, written
    into D op for op as `_input_divergences` where q > 0.  Allocates nothing."""
    p.dot(w.w, out=q)
    np.log(q, out=q)
    np.multiply(q, w.t, out=q)
    w.w.dot(q, out=D)
    np.subtract(w.h, D, out=D)
    return float(p.dot(D)), float(np.maximum.reduce(D))


def _newton_direction(w: ChannelMatrix, p: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Newton's step du in u = ln p on the KKT system D_C = lambda, sum p = 1.

    dD_C / du_B = -J[C, B] with J = (w diag(t / q) w^T) diag(p), whose rows
    sum to 1 because w t = 1, so a class of tiny mass keeps a row of size 1.
    Linearized, J du + lambda 1 = D and p . du = 0, the bordered system; as
    J 1 = 1 its solution is du = y - (p . y) 1 with J y = D and lambda = p . y.
    J is summed as B B^T over column blocks B = w[:, k] sqrt(t / q)[k] of at
    most `NEWTON_BLOCK_BYTES`, so beside J the step holds one block, one
    block product and the solver's copy of J, never a matrix the size of w.
    Raises `np.linalg.LinAlgError` when J is singular.
    """
    W = w.w
    root = np.sqrt(w.t / p.dot(W))
    width = max(1, NEWTON_BLOCK_BYTES // (8 * W.shape[0]))
    J = np.zeros((W.shape[0], W.shape[0]))
    for first in range(0, W.shape[1], width):
        B = W[:, first : first + width] * root[first : first + width]
        J += B @ B.T  # B @ B.T runs as one symmetric rank-k update
    J *= p
    y = np.linalg.solve(J, D)
    return y - p.dot(y)


def _newton(w: ChannelMatrix, p: np.ndarray, D: np.ndarray, q: np.ndarray, info: float, gap: float):
    """(p, D, information, max D) of the first candidate `_reweight(p, du, a)`,
    a = 1, 1/2, ..., 2^-NEWTON_HALVINGS, whose information is finite and
    not below `info` by more than `NEWTON_SLACK`, and whose bracket
    max D - information is below `gap`; None when there is none or J is
    singular.  The information history therefore falls by at most
    `NEWTON_SLACK` on a Newton step.  q is scratch, overwritten."""
    try:
        du = _newton_direction(w, p, D)
    except np.linalg.LinAlgError:
        return None
    floor = MASS_FLOOR * w.s
    least = info - NEWTON_SLACK * w.n * _LN2
    new_D = np.empty(w.w.shape[0])
    for k in range(NEWTON_HALVINGS + 1):
        new = _reweight(p, du, 0.5**k, floor, np.empty_like(p))
        new_info, top = _divergences(w, new, q, new_D)
        if math.isfinite(top) and new_info >= least and top - new_info < gap:
            return new, new_D, new_info, top
    return None


def kkt_residual(w: ChannelMatrix, p: np.ndarray) -> float:
    """Distance of class masses p from the optimality conditions, bits per symbol.

    With D_C the divergence of each input of class C and lambda their
    p-average, an optimal p has D_C = lambda on support, where each input of
    C has mass p_C / s_C > KKT_SUPPORT_EPS, and D_C <= lambda elsewhere.  The
    residual adds the worst on-support |D_C - lambda| and the worst
    off-support max(0, D_C - lambda); classes p leaves out entirely are
    checked too, and an infinite D_C gives an infinite residual.
    """
    p = np.asarray(p, dtype=np.float64)
    D = _input_divergences(w, p) / (w.n * _LN2)
    lam = float(p @ np.where(p > 0.0, D, 0.0))
    support = p / w.s > KKT_SUPPORT_EPS
    on = np.abs(D[support] - lam).max(initial=0.0)
    return float(on + (D[~support] - lam).max(initial=0.0))


def dobrushin_sandwich(n: int, c_n: float) -> tuple[float, float]:
    """(c_n - log2(n+1)/n, c_n): the true capacity lies inside for c_n = C_n/n.

    For the proxy I(p)/n <= C_n/n that `baa_capacity` passes, the lower edge
    always holds and the upper edge only to within the closed bracket, when
    converged=yes; unconverged, the bracket top is the upper edge (0.115386
    at (9, 0.8), against the proxy's 0.113686).  The lower edge can go
    negative at small n, in which case it is vacuous but still reported.
    """
    if c_n < 0.0:
        raise ValueError("capacity proxy must be non-negative")
    return (c_n - math.log2(n + 1) / n, c_n)
