"""Convex dual solvers for max-entropy and Min-KL marginal matching, plus
dominating base points.

The dual objective is h(theta) = log Z(e^theta) - <theta, p>; its gradient is
the marginal mismatch.  Both duals run on every counting backend with the
same two kinds of step: gradient descent with Armijo backtracking and the
diagonal preconditioner p_e(1-p_e), and Newton steps on the covariance from
the oracle's second moments, with the same backtracking on h, to the
tolerance with a margin (Singh-Vishnoi 2014, Straszak-Vishnoi 2019:
second-order steps once the iterate is in the well-conditioned region).
When Newton fails, descent to the tolerance takes over.  A descent pass
stops after MAX_DESCENT_STEPS steps, the polish after NEWTON_MAX_STEPS;
|theta| > THETA_MAX is divergence, and a non-finite gradient or step stops
the solve at once.

The schedule and the start are chosen per dual.  The max-entropy dual
starts at the product measure, theta_e = log(p_e / (1 - p_e)), its optimum
when every subset is feasible, and descends to |grad| <= NEWTON_HANDOFF
before Newton: on the paper's matching instances descent from there takes
one or two steps, and a Newton step costs n(n+1)/2 pinned evaluations on
ksym-dp and matching-recursion, where Newton from the start was 12-60%
slower.  The KL projection starts at theta = 0, the base measure mu0 itself,
and goes to Newton at once.  Its targets are base points, every base has
the same size, and a dominating point lies within DELTA_SHRINK of a face,
so its optimum sits about log(1/DELTA_SHRINK) from any start (Straszak-
Vishnoi bound the dual optimum by the target's distance to the boundary):
descent crawls there (18 steps before 15 Newton steps on the 2-hat graph
with its terminal edge, against 17 Newton steps alone), and the product
measure is no guide (from its logit start the matrix-tree projection of a
12-edge `random-graphic-matroid`, 7 vertices, seed 0, stalled at
|grad| = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import GibbsDistribution
from .env import FACE_TOL, EnumerationBudgetError, element_pairs

THETA_MAX = 60.0
MAX_DESCENT_STEPS = 20000
NEWTON_MAX_STEPS = 60
DELTA_SHRINK = 1e-6
# |grad| at which descent hands over to Newton
NEWTON_HANDOFF = 1e-2
# Newton aims this far below tol: its steps from |grad| <= 1e-2 can otherwise
# stop just under tol, leaving marginals only tol-accurate; converging
# quadratically, it buys the margin with one step more or none
NEWTON_MARGIN = 1e-3
# h = log Z - <theta, p> cancels terms as large as sum|theta|, so its value is
# only good to about this fraction of them; the Armijo test allows that much,
# else steps whose true change in h is below rounding (the last Newton steps
# toward a tight tol) are refused at random
_H_ROUNDING = 1e-13


class BoundaryDivergenceError(RuntimeError):
    """The dual iterate diverged: the target looks boundary/outside."""

    def __init__(self, coord, direction, theta):
        self.coord = coord
        self.direction = direction
        self.theta = theta
        super().__init__(
            f"dual divergence: theta_{coord} driven to {'+' if direction > 0 else '-'}inf "
            f"(|theta| > {THETA_MAX}); target marginal looks boundary or outside")


@dataclass
class DualState:
    """The record of one `_solve_dual` run."""
    theta: np.ndarray
    descent_steps: int = 0
    newton_steps: int = 0
    grad_norm: float = math.inf
    fallback: bool = False      # the descend-to-tol pass ran


def dual_value(oracle, theta, p):
    w = np.exp(theta)
    lz = oracle.partition(w)
    if not isinstance(lz, float):
        lz = math.log(float(lz))
    return lz - float(np.dot(theta, p))


def dual_gradient(oracle, theta, p):
    return oracle.marginals(np.exp(theta)) - np.asarray(p, float)


def _check_bounded(theta):
    if float(np.abs(theta).max()) > THETA_MAX:
        coord = int(np.abs(theta).argmax())
        raise BoundaryDivergenceError(coord, 1 if theta[coord] > 0 else -1, theta)


def _armijo(oracle, p, theta, h, g, direction, t=1.0):
    """Backtrack from step t along `direction` until h falls by 1e-4 of the
    first-order prediction, or t drops below 1e-14.

    Returns (theta, h, lowered); `lowered` is False when t ran out first.
    Raises at once when g or the direction holds a NaN or an infinity (an
    oracle's non-finite marginal or second moment), which NaN > THETA_MAX
    would let run to the step limit; a plain RuntimeError, since it is no
    boundary divergence for the KL projection to retry.
    """
    dec = float(np.dot(g, direction))
    if not math.isfinite(dec):
        raise RuntimeError("dual gradient or step is not finite; the oracle returned "
                           "a non-finite marginal or second moment")
    slack = _H_ROUNDING * (1.0 + abs(h) + float(np.abs(theta).sum()))
    while True:
        cand = theta + t * direction
        hc = dual_value(oracle, cand, p)
        if hc <= h + 1e-4 * t * dec + slack:
            return cand, hc, True
        if t < 1e-14:
            return cand, hc, False
        t *= 0.5


def _descend(oracle, p, state, tol):
    """Preconditioned descent from state.theta until |grad| <= tol or
    MAX_DESCENT_STEPS steps; updates `state` in place."""
    precond = np.maximum(p * (1.0 - p), 1e-12)
    theta = state.theta
    h = dual_value(oracle, theta, p)
    g = dual_gradient(oracle, theta, p)
    for _ in range(MAX_DESCENT_STEPS):
        if float(np.abs(g).max()) <= tol:
            break
        direction = -g / precond
        # trust region: one iterate never moves any theta by more than 2
        dmax = float(np.abs(direction).max())
        if dmax > 2.0:
            direction = direction * (2.0 / dmax)
        theta, h, _ = _armijo(oracle, p, theta, h, g, direction)
        state.descent_steps += 1
        _check_bounded(theta)
        g = dual_gradient(oracle, theta, p)
    state.theta = theta
    state.grad_norm = float(np.abs(g).max())


def _newton_polish(oracle, p, state, tol):
    """Damped Newton from state.theta on the covariance M - marg marg^T of
    the oracle's second moments M; updates `state` and returns whether
    |grad| <= tol was met.

    Steps until |grad| <= NEWTON_MARGIN * tol, or until |grad| <= tol and a
    step no longer lowers it.  Stops early when the Hessian solve raises or
    a step does not lower h, and after NEWTON_MAX_STEPS steps.
    """
    theta = state.theta
    h = dual_value(oracle, theta, p)
    prev = math.inf
    for _ in range(NEWTON_MAX_STEPS):
        w = np.exp(theta)
        marg = oracle.marginals(w)
        g = marg - p
        state.grad_norm = float(np.abs(g).max())
        if state.grad_norm <= NEWTON_MARGIN * tol or tol >= state.grad_norm >= prev:
            return True
        prev = state.grad_norm
        H = oracle.second_moments(w)
        H -= marg[:, None] * marg
        H.flat[::p.size + 1] += 1e-14
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            break
        t = 1.0
        while float(np.abs(theta - t * step).max()) > THETA_MAX and t > 1e-8:
            t *= 0.5
        theta, h, lowered = _armijo(oracle, p, theta, h, g, -step, t)
        if not lowered:
            break
        state.theta = theta
        state.newton_steps += 1
        _check_bounded(theta)
    else:
        state.grad_norm = float(np.abs(dual_gradient(oracle, theta, p)).max())
    return state.grad_norm <= tol


def _solve_dual(oracle, target, tol, theta0=None):
    """DualState whose theta has |grad h(theta)| <= tol for the dual of
    marginal target `target`.

    Starts at theta0 (theta = 0, the base measure itself, when None):
    `solve_maxent` passes the product measure, `solve_kl_projection`
    passes none.  The max-entropy dual descends to max(tol,
    NEWTON_HANDOFF) and polishes with Newton (`_newton_polish`); the KL
    dual, whose oracle counts a base measure's bases, goes to Newton at
    once, so its `descent_steps` stay 0 unless the fallback ran (the
    module docstring says why).  When the gradient is still above tol
    after Newton, descent to tol runs from the last iterate and the
    record's `fallback` is set.
    """
    p = np.asarray(target, dtype=float)
    theta = np.zeros(p.size) if theta0 is None else np.array(theta0, dtype=float)
    state = DualState(theta=theta)
    # the KL dual (its oracle counts a base measure's bases) goes to Newton
    # at once: descent only evaluates the start
    handoff = math.inf if oracle.base is not None else max(tol, NEWTON_HANDOFF)
    _descend(oracle, p, state, handoff)
    # `not <=`: a NaN gradient norm is no convergence
    if not state.grad_norm <= tol and not _newton_polish(oracle, p, state, tol):
        state.fallback = True
        _descend(oracle, p, state, tol)
    if not state.grad_norm <= tol:
        raise RuntimeError(f"dual solver stalled: |grad| = {state.grad_norm:.3e}")
    return state


def solve_maxent(env, oracle, p, tol=1e-8):
    """Weights w of the max-entropy Gibbs law with marginals p.

    The dual starts at the product measure, theta_e = log(p_e / (1 - p_e)):
    the optimum itself when every subset is feasible, and close to it when
    few are not.  Raises BoundaryDivergenceError when p is not an interior
    target.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0) & (p < 1)):           # NaN fails both comparisons
        raise ValueError("target marginals must lie in (0,1)")
    w = np.exp(_solve_dual(oracle, p, tol, np.log(p / (1.0 - p))).theta)
    return GibbsDistribution(env, list(w), oracle=oracle)


def barycentric_base_point(base):
    """Average of the base indicators (a relative-interior point)."""
    return base.inc.mean(axis=0)


def is_boundary_base_point(matroid, q):
    """True when q sits within FACE_TOL of the boundary of the base polytope.

    Faces correspond to coordinates at 0/1 or proper tight rank constraints;
    checked on the matroid's rank table (None when the ground set is beyond
    its budget).
    """
    q = np.asarray(q, dtype=float)
    if np.any(q <= FACE_TOL) or np.any(q >= 1.0 - FACE_TOL):
        return True
    try:
        ranks = matroid.rank_table()
    except EnumerationBudgetError:
        return None
    # every nonempty proper subset: masks 1 .. 2^n - 2
    return bool(np.any(matroid.subset_sums(q)[1:-1] >= ranks[1:-1] - FACE_TOL))


def solve_kl_projection(oracle, q, tol=1e-8):
    """Tilt weights w with P_{mu_w}[e in B] = q_e (after boundary shrinking),
    mu_w the tilt of the base measure the oracle counts (`oracle.base`).

    Boundary base points are pre-shrunk toward the barycentric base point:
    q' = (1 - DELTA_SHRINK) q + DELTA_SHRINK qbar.  Returns (w, q_used, record), the record
    being the `DualState` of the solve that produced w.
    """
    q = np.asarray(q, dtype=float)
    boundary = is_boundary_base_point(oracle.base.matroid, q)
    # qbar enumerates the bases, so only a shrunk target reads it
    qbar = None if boundary is False else barycentric_base_point(oracle.base)
    target = q if qbar is None else (1 - DELTA_SHRINK) * q + DELTA_SHRINK * qbar
    try:
        state = _solve_dual(oracle, target, tol)
    except BoundaryDivergenceError:
        if qbar is None:
            raise
        target = (1 - DELTA_SHRINK) * target + DELTA_SHRINK * qbar
        try:
            state = _solve_dual(oracle, target, tol)
        except BoundaryDivergenceError as exc:
            raise RuntimeError(
                f"KL projection diverged even after delta-shrink: {exc}") from exc
    return np.exp(state.theta), target, state


def kl_diagnostics(state, q, q_used):
    """The `diagnostics` block of a KL-projection document: the dual solver's
    record and whether the target was delta-shrunk off the boundary.  The
    KL dual starts in Newton, so `descent_steps` is 0 unless the descent
    fallback ran (`descent_fallback`)."""
    return {"descent_steps": state.descent_steps, "newton_steps": state.newton_steps,
            "grad_norm": state.grad_norm, "descent_fallback": state.fallback,
            "delta_shrink": bool(np.any(q_used != q))}


def dominating_base_point(matroid, x):
    """Greedy coordinate raising: q >= x with q in the base polytope.

    Each coordinate (in index order) is raised by
    min(1 - q_e, min over T containing e of R(T) - q(T)).
    """
    n = matroid.n
    x = np.asarray(x, dtype=float)
    if matroid.variant == "uniform":
        # closed form: min over T ni e of min(|T|,k) - q(T) is attained by
        # taking e together with the largest remaining coordinates
        k = matroid.meta["k"]

        def slack(q, e):
            others = sorted((q[f] for f in range(n) if f != e), reverse=True)
            acc, size = q[e], 1
            best = min(size, k) - acc
            for v in others:
                acc += v
                size += 1
                best = min(best, min(size, k) - acc)
            return best

        q = x.copy()
        for e in range(n):
            inc = min(1.0 - q[e], slack(q, e))
            q[e] += max(inc, 0.0)
        return q

    ranks = matroid.rank_table()
    q = x.copy()
    qsum = matroid.subset_sums(q)
    for e in range(n):
        # views of the subsets holding e
        held, rk = element_pairs(qsum, e)[:, 1], element_pairs(ranks, e)[:, 1]
        inc = max(min(1.0 - q[e], float((rk - held).min())), 0.0)
        q[e] += inc
        held += inc
    r = matroid.rank_total
    if not abs(q.sum() - r) < 1e-9:
        raise RuntimeError(f"greedy fill ended at sum {q.sum()} != rank {r}")
    return q
