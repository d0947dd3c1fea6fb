"""Weakly-Rayleigh witness pipeline and Rayleigh-property checkers.

Pipeline for a matroid with full-support Rayleigh base measure mu0 and
activation vector x in b*P:
  (i)   dominate: base point q >= x/b in the base polytope,
  (ii)  Min-KL projection: tilt weights w with mu_w marginals q,
  (iii) thin each sampled base with inside-base retention b/(1+b) composed
        with the coordinatewise factor s_e = x_e/(b q_e),
giving an implicit law mu* over independent sets with marginals x/(1+b) and
stationary caps at x.

The witness is built from mu0 alone (its matroid is mu0.matroid).  Every step
and the Rayleigh check read mu0's bases by position in the family of the
matroid's one environment (`BaseMeasure.positions`, `masses`, `inc`, each
built once), and mu* is a law on that family's positions.

Step (iii) and the Rayleigh check's superset sums P[T subseteq B] are one
subset transform on a dense 2^n table indexed by bitmask, as step (i)'s rank
table is, `_thin` (keep = tau, drop = 1 - tau for the thinning; keep = drop
= 1 for the superset sums).  The check runs it on a (tilts, 2^n) array, one
block of tilts at a time, and pairs each T + e with T by `env.element_pairs`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import BaseMeasure, CountingOracle
from .dist import ExplicitDistribution
from .env import element_pairs, matroid_environment, subset_table_size
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


def build_witness(mu0, x, b=1.0, tol=1e-9, rng=None):
    """Chain dominate -> KL-project -> thin on mu0's matroid, after a Rayleigh
    check of mu0 (20 tilts from rng) up to 12 elements.  Returns a RayleighWitness."""
    x = np.asarray(x, dtype=float)
    if mu0.matroid.n <= 12:
        ok, worst, _ = rayleigh_check(mu0, trials=20, rng=rng)
        if not ok:
            raise NotRayleighError(f"base measure fails the Rayleigh inequality by {worst}")
    q = dominating_base_point(mu0.matroid, x / b)
    # materialize reads this oracle's tilted base law, set by set
    oracle = CountingOracle("enumeration", base=mu0)
    w, q_used, solver = solve_kl_projection(oracle, q, tol=tol)
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
    law = np.zeros(probs.shape[:-1] + (subset_table_size(n),))
    law[..., masks] = probs
    for e in range(n):
        pair = element_pairs(law, e)
        pair[..., 0, :] += drop[e] * pair[..., 1, :]
        pair[..., 1, :] *= keep[e]
    return law


def materialize(witness):
    """mu* as a law on its matroid's family positions (n <= 20 elements): the
    witness oracle's tilted base law, each base thinned element by element,
    read at the family's masks; the sets of mass zero are left out."""
    n = witness.matroid.n
    bits = 1 << np.arange(n)
    probs = witness.oracle._set_probs(witness.w)
    law = _thin(witness.base.inc @ bits, probs, n, witness.tau, 1.0 - witness.tau)
    env = matroid_environment(witness.matroid)
    mass = law[env.family().inc @ bits]
    pos = np.flatnonzero(mass)
    return ExplicitDistribution.on_family(env, pos, mass[pos], tol=1e-9)


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
    every e and every T not holding e, under the base measure itself and
    under `trials` random log-uniform tilts w in [e^-5, e^5]^E.

    Returns (passed, worst_violation, witness_info); the info holds the tilt
    and the (e, T) of the worst violation: the first tilt, then the first e,
    then the first T in mask order on ties.  The tilts are drawn as one
    (trials, n) block of uniforms and evaluated TILT_BLOCK_DOUBLES >> n at a
    time, each block's superset sums in one subset transform.
    """
    rng = rng or RngStream(0)
    n = measure.matroid.n
    subset_table_size(n)
    if n == 0:
        return True, -np.inf, None

    masks = measure.inc @ (1 << np.arange(n))
    inc = measure.inc.astype(float)
    m0 = measure.masses[:1] if measure.kind == "uniform" else measure.masses    # one log if equal
    logm0 = np.broadcast_to(np.log(np.array([float(v) for v in m0])), len(measure.masses))
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
            pair = element_pairs(up, e)
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
