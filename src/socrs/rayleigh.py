"""Weakly-Rayleigh witness pipeline and Rayleigh-property checkers.

Pipeline for a matroid with full-support Rayleigh base measure mu0 and
activation vector x in b*P:
  (i)   dominate: base point q >= x/b in the base polytope,
  (ii)  Min-KL projection: tilt weights w with mu_w marginals q,
  (iii) thin each sampled base with inside-base retention b/(1+b) composed
        with the coordinatewise factor s_e = x_e/(b q_e),
giving an implicit law mu* over independent sets with marginals x/(1+b) and
stationary caps at x.

Every step reads mu0's one base family (`BaseMeasure.family`, built once); the
check tabulates a plain {set: mass} dict the same way (`counting.family_of`).

Step (iii) and the Rayleigh check's superset sums P[T subseteq B] are one
subset transform on a dense 2^n table, `_thin` (keep = tau, drop = 1 - tau
for the thinning; keep = drop = 1 for the superset sums).  The check runs
it on a (tilts, 2^n) array, one block of tilts at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import BaseMeasure, CountingOracle, family_of
from .dist import ExplicitDistribution
from .env import SUBSET_TABLE_MAX_N, EnumerationBudgetError, matroid_environment
from .maxent import DualState, dominating_base_point, kl_diagnostics, solve_kl_projection
from .sampling import RngStream


# doubles per block of Rayleigh-check tilts: each tilt takes a 2^n table
TILT_BLOCK_DOUBLES = 1 << 20


class NotRayleighError(RuntimeError):
    pass


@dataclass
class RayleighWitness:
    base: BaseMeasure
    q: np.ndarray
    q_used: np.ndarray          # post delta-shrink marginal targets
    w: np.ndarray
    tau: np.ndarray             # net per-element retention
    s: np.ndarray               # coordinatewise thinning factor x_e/(b q_e)
    b: float
    x: np.ndarray
    oracle: CountingOracle
    solver: DualState           # record of the KL projection's dual solve

    @property
    def matroid(self):
        return self.base.matroid

    def env(self):
        return matroid_environment(self.matroid)

    def to_doc(self):
        return {
            "q": list(map(float, self.q)),
            "w": list(map(float, self.w)),
            "tau": list(map(float, self.tau)),
            "s": list(map(float, self.s)),
            "b": self.b,
            "x": list(map(float, self.x)),
            "diagnostics": kl_diagnostics(self.solver, self.q, self.q_used),
        }


def build_witness(matroid, mu0, x, b=1.0, tol=1e-9, check_rayleigh=True, rng=None):
    """Chain dominate -> KL-project -> thin.  Returns a RayleighWitness."""
    x = np.asarray(x, dtype=float)
    y = x / b
    if check_rayleigh and matroid.n <= 12:
        ok, worst, _ = rayleigh_check(mu0, trials=20, rng=rng)
        if not ok:
            raise NotRayleighError(f"base measure fails the Rayleigh inequality by {worst}")
    q = dominating_base_point(matroid, y)
    # materialize reads this oracle's tilted base law, set by set
    oracle = CountingOracle("enumeration", base=mu0)
    w, q_used, solver = solve_kl_projection(mu0, oracle, q, tol=tol)
    # thin against the marginals the projected measure actually has (q_used,
    # the delta-shrunk targets), so mu* marginals are x/(1+b) to solver tol
    s = x / (b * q_used)
    tau = (b / (1.0 + b)) * s
    return RayleighWitness(base=mu0, q=q, q_used=q_used, w=w, tau=tau, s=s,
                           b=float(b), x=x, oracle=oracle, solver=solver)


def _thin(masks, probs, n, keep, drop):
    """Mask-indexed 2^n table of the law with mass probs[..., i] on the set
    masks[i] (distinct masks), thinned element by element: a set holding e
    keeps keep[e] of its mass and passes drop[e] of it to the set without e.
    Leading axes of probs are separate laws, transformed together."""
    _check_table_size(n)
    law = np.zeros(probs.shape[:-1] + (1 << n,))
    law[..., masks] = probs
    for e in range(n):
        # views: pair[..., 1, :] are the sets holding e, pair[..., 0, :] the same sets without e
        pair = law.reshape(probs.shape[:-1] + (-1, 2, 1 << e))
        pair[..., 0, :] += drop[e] * pair[..., 1, :]
        pair[..., 1, :] *= keep[e]
    return law


def _check_table_size(n):
    if n > SUBSET_TABLE_MAX_N:
        raise EnumerationBudgetError(
            f"subset table limited to n <= {SUBSET_TABLE_MAX_N} elements (n = {n})")


def materialize(witness):
    """Explicit mu* table over independent sets (n <= 20 elements): the
    witness oracle's tilted base law, each base thinned element by element."""
    env = witness.env()
    probs = witness.oracle._set_probs(witness.w)
    n = env.n
    masks = witness.base.family()[2] @ (1 << np.arange(n))
    law = _thin(masks, probs, n, witness.tau, 1.0 - witness.tau)
    support = {frozenset(e for e in range(n) if mask >> e & 1): float(law[mask])
               for mask in np.flatnonzero(law).tolist()}
    return ExplicitDistribution(env, support, tol=1e-9)


def pi_conditional(witness, e, T):
    """P[e in S | S_-e = T] under mu*, from the thinned masses of T and T + e."""
    T = frozenset(T)
    if e in T:
        raise ValueError("e must not lie in T")
    m = witness.matroid
    if not m.is_independent(T | {e}):
        return 0.0
    a = witness.oracle.thinned_mass(witness.w, witness.tau, T)
    bb = witness.oracle.thinned_mass(witness.w, witness.tau, T | {e})
    denom = a + bb
    if float(denom) == 0.0:
        raise ValueError("conditioning on a null event")
    return bb / denom


def rayleigh_check(measure, trials=100, rng=None):
    """Check the Rayleigh inequality P[T+e in B] <= P[T in B] P[e in B] for
    every e and every T not holding e, under the measure itself and under
    `trials` random log-uniform tilts w in [e^-5, e^5]^E.

    Returns (passed, worst_violation, witness_info); the info holds the tilt
    and the (e, T) of the worst violation: the first tilt, then the first e,
    then the first T in mask order on ties.  The tilts are drawn as one
    (trials, n) block of uniforms and evaluated TILT_BLOCK_DOUBLES >> n at a
    time, each block's superset sums in one subset transform.
    """
    rng = rng or RngStream(0)
    if isinstance(measure, BaseMeasure):
        n = measure.matroid.n
    else:
        measure = {frozenset(B): v for B, v in measure.items()}
        n = 1 + max((e for B in measure for e in B), default=-1)
    _check_table_size(n)
    if n == 0:
        return True, -np.inf, None

    _, masses, inc = family_of(measure, n) if isinstance(measure, dict) else measure.family()
    masks = inc @ (1 << np.arange(n))
    inc = inc.astype(float)
    logm0 = np.log(np.array([float(v) for v in masses]))
    logw = np.vstack([np.zeros(n), rng.uniform((trials, n)) * 10.0 - 5.0])
    ones = np.ones(n)
    worst, info = -np.inf, None
    block = max(1, TILT_BLOCK_DOUBLES >> n)
    for t0 in range(0, trials + 1, block):
        # a mat-vec per tilt: one product over the block may round differently
        logp = np.array([logm0 + inc @ lw for lw in logw[t0:t0 + block]])
        p = np.exp(logp - logp.max(axis=1, keepdims=True))
        up = _thin(masks, p / p.sum(axis=1, keepdims=True), n, ones, ones)  # up[t, T] = P[T subseteq B]
        k = len(p)
        best = np.empty((k, n))         # best[t, e]: largest violation at (t, e)
        where = np.empty((k, n), dtype=np.int64)
        for e in range(n):
            pair = up.reshape(k, -1, 2, 1 << e)
            # viol[t, hi, lo] for T = hi << (e + 1) | lo: flat order is mask order
            viol = (pair[:, :, 1, :] - pair[:, :, 0, :] * up[:, 1 << e, None, None]).reshape(k, -1)
            where[:, e] = viol.argmax(axis=1)
            best[:, e] = viol[np.arange(k), where[:, e]]
        i = int(best.argmax())
        if best.flat[i] > worst:
            worst = float(best.flat[i])
            t, e = divmod(i, n)
            hi, lo = divmod(int(where.flat[i]), 1 << e)
            T = hi << (e + 1) | lo
            info = {"tilt": np.exp(logw[t0 + t]).tolist(), "e": e,
                    "T": [f for f in range(n) if T >> f & 1]}
    passed = worst <= 1e-12
    return passed, worst, info
