"""Convex dual solvers for max-entropy and Min-KL marginal matching, plus
dominating base points.

The dual objective is h(theta) = log Z(e^theta) - <theta, p>; its gradient is
the marginal mismatch.  We run gradient descent with Armijo backtracking and
the diagonal preconditioner p_e(1-p_e), and (on enumerable instances) finish
with Newton steps using exact pairwise marginals so interior targets are met
to very tight tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import ENUM_BACKENDS
from .dist import GibbsDistribution
from .env import EnumerationBudgetError

THETA_MAX = 60.0


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
    theta: np.ndarray
    step: float = 1.0
    gradient: np.ndarray = None
    iterations: int = 0
    converged: bool = False


def dual_value(oracle, theta, p):
    w = np.exp(theta)
    lz = oracle.partition(w)
    if not isinstance(lz, float):
        lz = math.log(float(lz))
    return lz - float(np.dot(theta, p))


def dual_gradient(oracle, theta, p):
    return oracle.marginals(np.exp(theta)) - np.asarray(p, float)


def _descend(oracle, p, tol, max_iters, theta_max, theta0):
    p = np.asarray(p, dtype=float)
    n = p.size
    theta = np.zeros(n) if theta0 is None else np.array(theta0, dtype=float)
    precond = np.maximum(p * (1.0 - p), 1e-12)
    state = DualState(theta=theta)

    h = dual_value(oracle, theta, p)
    g = dual_gradient(oracle, theta, p)
    for it in range(max_iters):
        state.iterations = it
        if float(np.abs(g).max()) <= tol:
            state.converged = True
            break
        direction = -g / precond
        # trust region: one iterate never moves any theta by more than 2
        dmax = float(np.abs(direction).max())
        if dmax > 2.0:
            direction = direction * (2.0 / dmax)
        # Armijo backtracking from unit step
        t = 1.0
        dec = float(np.dot(g, direction))
        while True:
            cand = theta + t * direction
            hc = dual_value(oracle, cand, p)
            if hc <= h + 1e-4 * t * dec or t < 1e-14:
                break
            t *= 0.5
        theta, h = cand, hc
        state.step = t
        if float(np.abs(theta).max()) > theta_max:
            coord = int(np.abs(theta).argmax())
            raise BoundaryDivergenceError(coord, 1 if theta[coord] > 0 else -1, theta)
        g = dual_gradient(oracle, theta, p)
    state.theta = theta
    state.gradient = g
    return state


def _newton_polish(oracle, p, theta, tol, theta_max, max_steps=60):
    """Damped Newton on enumerable oracles using exact covariance."""
    p = np.asarray(p, dtype=float)
    for _ in range(max_steps):
        w = np.exp(theta)
        marg = oracle.marginals(w)
        g = marg - p
        if float(np.abs(g).max()) <= tol:
            return theta, True
        M = oracle.second_moments(w)
        H = M - np.outer(marg, marg)
        H = H + 1e-14 * np.eye(p.size)
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            return theta, False
        t = 1.0
        while float(np.abs(theta - t * step).max()) > theta_max and t > 1e-8:
            t *= 0.5
        theta = theta - t * step
        if float(np.abs(theta).max()) > theta_max:
            coord = int(np.abs(theta).argmax())
            raise BoundaryDivergenceError(coord, 1 if theta[coord] > 0 else -1, theta)
    return theta, float(np.abs(dual_gradient(oracle, theta, p)).max()) <= tol


def _solve_dual(oracle, target, tol, max_iters, theta_max, theta0):
    """theta with |grad h(theta)| <= tol for the dual of marginal target `target`.

    Descends to max(tol, 1e-6), then polishes with Newton where the exact
    covariance exists (enumeration backends), and descends again to tol when
    the polish fails or, on other backends, when tol is below the coarse one.
    """
    coarse = max(tol, 1e-6)
    theta = _descend(oracle, target, coarse, max_iters, theta_max, theta0).theta
    ok = coarse <= tol
    if oracle.backend in ENUM_BACKENDS:
        theta, ok = _newton_polish(oracle, target, theta, tol, theta_max)
    if not ok:
        theta = _descend(oracle, target, tol, max_iters, theta_max, theta).theta
    gnorm = float(np.abs(dual_gradient(oracle, theta, target)).max())
    if gnorm > tol:
        raise RuntimeError(f"dual solver stalled: |grad| = {gnorm:.3e}")
    return theta


def solve_maxent(env, oracle, p, tol=1e-8, max_iters=20000, theta_max=THETA_MAX,
                 theta0=None):
    """Weights w of the max-entropy Gibbs law with marginals p.

    Raises BoundaryDivergenceError when p is not an interior target.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0) & (p < 1)):           # NaN fails both comparisons
        raise ValueError("target marginals must lie in (0,1)")
    w = np.exp(_solve_dual(oracle, p, tol, max_iters, theta_max, theta0))
    return GibbsDistribution(env, list(w), oracle=oracle)


def barycentric_base_point(base):
    """Average of the enumerated base indicators (a relative-interior point)."""
    bases = base.enumerate_bases()
    n = base.matroid.n
    qbar = np.zeros(n)
    for B in bases:
        for e in B:
            qbar[e] += 1.0
    return qbar / len(bases)


def is_boundary_base_point(matroid, q, tol=1e-12, max_n=14):
    """True when q sits on the boundary of the base polytope.

    Faces correspond to coordinates at 0/1 or proper tight rank constraints;
    checked by subset enumeration (None when the ground set is too large).
    """
    n = matroid.n
    q = np.asarray(q, dtype=float)
    if np.any(q <= tol) or np.any(q >= 1.0 - tol):
        return True
    if n > max_n:
        return None
    full = (1 << n) - 1
    for mask in range(1, full):
        T = frozenset(e for e in range(n) if mask >> e & 1)
        if sum(q[e] for e in T) >= matroid.rank(T) - tol:
            return True
    return False


def solve_kl_projection(base, oracle, q, tol=1e-8, delta=1e-6, max_iters=20000,
                        theta_max=THETA_MAX):
    """Tilt weights w with P_{mu_w}[e in B] = q_e (after boundary shrinking).

    Boundary base points are pre-shrunk toward the barycentric base point:
    q' = (1-delta) q + delta qbar.  Returns (w, q_used).
    """
    q = np.asarray(q, dtype=float)
    qbar = barycentric_base_point(base)
    boundary = is_boundary_base_point(base.matroid, q)
    target = q if boundary is False else (1 - delta) * q + delta * qbar

    def attempt(tgt):
        return np.exp(_solve_dual(oracle, tgt, tol, max_iters, theta_max, None))

    try:
        w = attempt(target)
        return w, target
    except BoundaryDivergenceError:
        if boundary is False:
            raise
        shrunk = (1 - delta) * target + delta * qbar
        try:
            w = attempt(shrunk)
        except BoundaryDivergenceError as exc:
            raise RuntimeError(
                f"KL projection diverged even after delta-shrink: {exc}") from exc
        return w, shrunk


def dominating_base_point(matroid, x, enum_max_n=20):
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

    if n > enum_max_n:
        raise EnumerationBudgetError(
            f"dominating_base_point enumeration limited to n <= {enum_max_n}")
    q = x.copy()
    masks = np.arange(1, 1 << n, dtype=np.int64)
    ranks = np.array([matroid.rank(frozenset(e for e in range(n) if mask >> e & 1))
                      for mask in masks], dtype=float)
    member = np.array([(masks >> e) & 1 for e in range(n)], dtype=bool)  # n x (2^n - 1)
    qsum = member.T.astype(float) @ q
    for e in range(n):
        sel = member[e]
        slack = float((ranks[sel] - qsum[sel]).min())
        inc = max(min(1.0 - q[e], slack), 0.0)
        q[e] += inc
        qsum[sel] += inc
    r = matroid.rank_total
    if not abs(q.sum() - r) < 1e-9:
        raise RuntimeError(f"greedy fill ended at sum {q.sum()} != rank {r}")
    return q
