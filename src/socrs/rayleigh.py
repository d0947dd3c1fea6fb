"""Weakly-Rayleigh witness pipeline and Rayleigh-property checkers.

Pipeline for a matroid with full-support Rayleigh base measure mu0 and
activation vector x in b*P:
  (i)   dominate: base point q >= x/b in the base polytope,
  (ii)  Min-KL projection: tilt weights w with mu_w marginals q,
  (iii) thin each sampled base with inside-base retention b/(1+b) composed
        with the coordinatewise factor s_e = x_e/(b q_e),
giving an implicit law mu* over independent sets with marginals x/(1+b) and
stationary caps at x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import BaseMeasure, CountingOracle
from .dist import ExplicitDistribution
from .env import matroid_environment
from .maxent import DualState, dominating_base_point, kl_diagnostics, solve_kl_projection


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


def build_witness(matroid, mu0, x, b=1.0, tol=1e-9, delta=1e-6,
                  check_rayleigh=True, rng=None):
    """Chain dominate -> KL-project -> thin.  Returns a RayleighWitness."""
    x = np.asarray(x, dtype=float)
    y = x / b
    if check_rayleigh and matroid.n <= 12:
        ok, worst, _ = rayleigh_check(mu0, trials=20, rng=rng)
        if not ok:
            raise NotRayleighError(f"base measure fails the Rayleigh inequality by {worst}")
    q = dominating_base_point(matroid, y)
    # enumeration keeps the Newton polish available
    oracle = CountingOracle("enumeration", base=mu0)
    w, q_used, solver = solve_kl_projection(mu0, oracle, q, tol=tol, delta=delta)
    # thin against the marginals the projected measure actually has (q_used,
    # the delta-shrunk targets), so mu* marginals are x/(1+b) to solver tol
    s = x / (b * q_used)
    tau = (b / (1.0 + b)) * s
    return RayleighWitness(base=mu0, q=q, q_used=q_used, w=w, tau=tau, s=s,
                           b=float(b), x=x, oracle=oracle, solver=solver)


def materialize(witness):
    """Explicit mu* table over independent sets (enumerable instances): the
    witness oracle's tilted base law, each base thinned element by element."""
    env = witness.env()
    bases, _ = witness.oracle._family()
    probs = witness.oracle._set_probs(witness.w)
    tau = witness.tau
    support = {}
    for B, p in zip(bases, probs):
        p = float(p)
        members = sorted(B)
        for mask in range(1 << len(members)):
            T = frozenset(members[i] for i in range(len(members)) if mask >> i & 1)
            pr = p
            for e in members:
                pr *= tau[e] if e in T else (1.0 - tau[e])
            support[T] = support.get(T, 0.0) + pr
    return ExplicitDistribution(env, support, tol=1e-9)


def pi_conditional(witness, e, T, oracle=None):
    """P[e in S | S_-e = T] under mu*, via thinned-mass coefficient extraction."""
    T = frozenset(T)
    if e in T:
        raise ValueError("e must not lie in T")
    m = witness.matroid
    if not m.is_independent(T | {e}):
        return 0.0
    oracle = oracle or witness.oracle
    a = oracle.thinned_mass(witness.w, witness.tau, T)
    bb = oracle.thinned_mass(witness.w, witness.tau, T | {e})
    denom = a + bb
    if float(denom) == 0.0:
        raise ValueError("conditioning on a null event")
    return bb / denom


def rayleigh_check(measure, trials=100, rng=None, full=True):
    """Check the Rayleigh inequality P[T in B] P[e in B] >= P[T+e in B]
    under random log-uniform tilts w in [e^-5, e^5]^E.

    Checks the pairwise form always and the full (T, e) form when `full`.
    Returns (passed, worst_violation, witness_info).
    """
    from .sampling import RngStream
    rng = rng or RngStream(0)
    if isinstance(measure, BaseMeasure):
        table = measure.to_table()
        n = measure.matroid.n
    else:
        table = {frozenset(B): v for B, v in measure.items()}
        n = 1 + max((e for B in table for e in B), default=-1)

    bases = sorted(table, key=lambda B: tuple(sorted(B)))
    masks = np.array([sum(1 << e for e in B) for B in bases], dtype=np.int64)
    logm0 = np.log(np.array([float(table[B]) for B in bases]))

    worst = -np.inf
    info = None
    size = 1 << n
    membership = [(masks >> e) & 1 for e in range(n)]
    for t in range(trials + 1):
        if t == 0:
            logw = np.zeros(n)
        else:
            logw = np.asarray(rng.uniform(n)) * 10.0 - 5.0
        logp = logm0 + np.array([sum(logw[e] for e in B) for B in bases])
        logp -= logp.max()
        p = np.exp(logp)
        p /= p.sum()
        # superset sums: up[T] = P[T subseteq B]
        up = np.zeros(size)
        np.add.at(up, masks, p)
        idx = np.arange(size)
        for e in range(n):
            bit = 1 << e
            without = idx[(idx & bit) == 0]
            up[without] += up[without | bit]
        # check P[T] P[e] >= P[T + e] for e not in T
        singles = np.array([up[1 << e] for e in range(n)])
        for e in range(n):
            bit = 1 << e
            if full:
                Ts = idx[(idx & bit) == 0]
            else:  # pairwise form only: T a singleton
                Ts = np.array([1 << f for f in range(n) if f != e], dtype=np.int64)
                if Ts.size == 0:
                    continue
            viol = up[Ts | bit] - up[Ts] * singles[e]
            i = int(viol.argmax())
            if viol[i] > worst:
                worst = float(viol[i])
                info = {"tilt": np.exp(logw).tolist(), "e": e,
                        "T": [f for f in range(n) if int(Ts[i]) >> f & 1]}
    passed = worst <= 1e-12
    return passed, worst, info
