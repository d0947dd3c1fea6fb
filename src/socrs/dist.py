"""Distributions over feasible sets and the stationary-LP machinery.

The stationary LP (over distributions nu on the feasible family) is

    max alpha
    s.t.  P[e in S]               >= alpha * x_e          (selectability)
          P[e in S | S_-e = T]    <= x_e                  (stationary caps)

with the cap linearized as (1-x_e) nu(T+e) <= x_e nu(T), which is valid for
every T including nu(T)=0 and removes the positivity side condition.  Its
caps are the pairs (e, T) with T+e feasible.  Every reader of an explicit
law takes them, and the one table of conditionals `stationary_conditionals`,
over `env.family()`.  A Gibbs law nu(S) ~ w^S needs neither: its
conditional is rho_e = w_e / (1 + w_e) at every such T, so its caps are
rho_e <= x_e for each element some feasible set holds, and its marginals
are sums over the family's incidence matrix.

The exact solver eliminates nu(empty) = 1 - sum_{S != empty} nu(S), so over
z = (nu(S) for S != empty, alpha) >= 0 every row is <= with a nonnegative
right-hand side:

    alpha x_e - sum_{S ni e} nu(S)                    <= 0    (selectability)
    (1-x_e) nu(T+e) - x_e nu(T)                        <= 0    (caps, T != empty)
    (1-x_e) nu({e}) + x_e sum_{S != empty} nu(S)       <= x_e  (caps, T = empty)
    sum_{S != empty} nu(S)                             <= 1    (nu(empty) >= 0)

so the simplex starts at z = 0, the point mass on the empty set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._rat import R, as_rational, rat_str
from .counting import CountingOracle
from .env import EnumerationBudgetError, EnvironmentError_
from . import simplex


class NonEnumerableError(EnumerationBudgetError):
    """Exact verification and the replay's cap check need an enumerable environment."""


class NullConditioningError(ValueError):
    """Conditioning on an event of probability zero."""


# Most feasible sets the exact rational LP takes on.
EXACT_LP_MAX_SETS = 5000

# Float slack of the stationary cap q_e(T) <= x_e, shared by the policy, the
# exact expansion, the replay kernels and the LP verifier.
CAP_SLACK = 1e-9


class CapViolationError(RuntimeError):
    def __init__(self, e, T, q, xe):
        self.e, self.T, self.q, self.xe = e, frozenset(T), q, xe
        super().__init__(
            f"witness violates stationary caps: q_{e}({sorted(self.T)}) = {float(q):.12g} "
            f"> x_{e} = {float(xe):.12g}")


def check_cap(e, T, q, xe):
    """Raise CapViolationError unless q_e(T) <= x_e (up to CAP_SLACK)."""
    if float(q) > float(xe) + CAP_SLACK:
        raise CapViolationError(e, T, q, xe)


class ExplicitDistribution:
    """A probability law over feasible sets, given as an explicit table.

    `support` maps each set to its mass.  A law built on the family's
    positions (`on_family`) keeps those positions and their masses as
    arrays and builds `support` on its first read; the exact readers
    (`family_masses` and all that reads it) work on the arrays alone.
    """

    def __init__(self, env, support, tol=1e-12):
        support = {frozenset(S): p for S, p in support.items()}
        for S in support:
            if not env.is_feasible(S):
                raise EnvironmentError_(f"support set {sorted(S)} is infeasible")
        self._fill(env, list(support.values()), tol)
        self._support = dict(zip(support, self.masses.tolist()))
        # the family positions of the support's sets, in its order; None
        # when the law was given by its sets
        self.positions = None

    @classmethod
    def on_family(cls, env, positions, probs, tol=1e-12):
        """The law with mass probs[i] on env.family().sets[positions[i]]: sets
        of the enumerated family at distinct positions, so their feasibility
        is not checked again and their positions are kept."""
        self = cls.__new__(cls)
        self.positions = np.asarray(positions, dtype=np.intp)
        self._support = None
        return self._fill(env, probs, tol)

    def _fill(self, env, probs, tol):
        """Store the masses probs, checked as one array, as `masses`.  A law
        with a float mass is a float law: a mass below -tol raises, one in
        [-tol, 0) becomes 0, the total, summed in order, must lie within tol
        of 1, and `masses` is a float array.  Otherwise the masses are exact
        numbers, none negative, summing to exactly 1, kept as they are in an
        object array."""
        p = np.asarray(probs)
        self.env = env
        self.exact = not p.size or p.dtype.kind != "f" and not any(
            issubclass(t, float) for t in set(map(type, p.tolist())))
        if self.exact:
            if (p < 0).any():
                raise ValueError("negative probability")
            probs = p.tolist()
            total = sum(probs)
            if total != 1:
                raise ValueError(f"probabilities sum to {total}, not 1")
            p = np.array(probs, dtype=object)
        else:
            p = np.asarray(p, dtype=float)
            low = p.min()
            if low < -tol:
                raise ValueError("negative probability")
            if low < 0:
                p = np.where(p < 0, 0.0, p)
            total = float(np.cumsum(p)[-1])
            if abs(total - 1.0) > tol:
                raise ValueError(f"probabilities sum to {total}, not 1")
        self.masses = p
        self._conditionals = {}     # stationary_conditionals' arrays, by mode
        return self

    @property
    def support(self):
        """{set: mass}; for a law on positions, built from the enumerated
        family's sets on the first read."""
        if self._support is None:
            # through enumerate_feasible, so that a traced run counts the
            # sets this builds
            sets = self.env.enumerate_feasible()
            self._support = dict(zip(map(sets.__getitem__, self.positions.tolist()),
                                     self.masses.tolist()))
        return self._support

    def family_positions(self):
        """The family positions of the support's sets, in its order."""
        if self.positions is not None:
            return self.positions
        index = self.env.family().index
        return np.array([index[S] for S in self.support], dtype=np.intp)

    def sets(self):
        return sorted(self.support, key=lambda S: (len(S), tuple(sorted(S))))

    def prob(self, S):
        return self.support.get(frozenset(S), R(0) if self.exact else 0.0)

    def marginal(self, e):
        return sum((p for S, p in self.support.items() if e in S),
                   R(0) if self.exact else 0.0)

    def to_explicit(self):
        return self


class GibbsDistribution:
    """Hard-core law on the feasible family: nu(S) proportional to prod w_e.

    The law is exact (rational) when no weight is a float."""

    def __init__(self, env, w, oracle=None):
        if any(float(v) <= 0 for v in w):
            raise ValueError("Gibbs weights must be positive")
        self.env = env
        self.w = list(w)
        self.oracle = oracle

    @property
    def rho(self):
        """rho_e = w_e / (1 + w_e), exact for an exact law."""
        return [v / (1 + v) for v in (map(as_rational, self.w) if self.exact else self.w)]

    @property
    def exact(self):
        return not any(isinstance(v, float) for v in self.w)

    def _set_probs(self):
        """nu(S) of every set in family order, read from an enumeration
        oracle over self.env (self.oracle when it is one, so its cached
        incidence matrix is reused): floats from the oracle's tilt, or the
        exact masses over their sum."""
        oracle = self.oracle
        if oracle is None or oracle.backend != "enumeration" or oracle.env is not self.env:
            oracle = CountingOracle("enumeration", env=self.env)
        if not self.exact:
            return oracle._set_probs(self.w)
        masses = oracle._masses_rational([as_rational(v) for v in self.w])
        Z = sum(masses)
        return [m / Z for m in masses]

    def to_explicit(self):
        """The explicit table over the family's positions."""
        probs = self._set_probs()
        return ExplicitDistribution.on_family(self.env, np.arange(len(probs)), probs)

    def _marginals(self):
        """P[e in S] for every e, as a list: each sum runs over the sets in
        family order, the additions an explicit table's verification makes."""
        probs = np.asarray(self._set_probs())
        s, e = np.divmod(np.flatnonzero(self.env.incidence()), self.env.n)
        marg = np.full(self.env.n, R(0) if self.exact else 0.0, dtype=probs.dtype)
        np.add.at(marg, e, probs[s])    # unbuffered: each sum runs in family order
        return marg.tolist()

    def marginal(self, e):
        return self._marginals()[e]


@dataclass
class StationaryReport:
    alpha_achieved: object
    violated_caps: list = field(default_factory=list)   # (e, T, conditional, x_e)
    max_cap_excess: object = 0

    def passes(self, alpha, tol=0.0):
        return not self.violated_caps and float(self.alpha_achieved) >= float(alpha) - tol

    def to_doc(self):
        def ser(v):
            return rat_str(v) if not isinstance(v, float) else v
        return {
            "alpha_achieved": ser(self.alpha_achieved),
            "max_cap_excess": ser(self.max_cap_excess),
            "violated_caps": [
                {"e": e, "T": sorted(T), "conditional": ser(c), "x_e": ser(x)}
                for (e, T, c, x) in self.violated_caps
            ],
        }


def family_masses(table, exact):
    """mu[p] = the explicit law's mass on S_p, over its family's positions and
    the sentinel's (mass 0).  Exact mode keeps the table's numbers in an
    object array; float mode converts them to floats."""
    fam = table.env.family()
    mu = np.zeros(len(fam) + 1, dtype=object if exact else float)
    mu[table.family_positions()] = table.masses
    return mu


def total_variation(a, b):
    """Total variation distance between two explicit laws on one environment,
    as a float: exactly 0.0 for two equal exact laws."""
    if a.env is not b.env:
        raise ValueError("total variation needs two laws on one environment")
    exact = a.exact and b.exact
    return float(np.abs(family_masses(a, exact) - family_masses(b, exact)).sum() / 2)


def conditional_without(dist, e, T):
    """P[e in S | S_-e = T].

    For a Gibbs law this is rho_e when T+e is feasible and 0 otherwise; for
    an explicit table it is mu(T+e) / (mu(T) + mu(T+e)).
    """
    T = frozenset(T)
    if e in T:
        raise ValueError("e must not lie in T")
    if isinstance(dist, GibbsDistribution):
        if not dist.env.is_feasible(T | {e}):
            return 0.0 if isinstance(dist.w[e], float) else R(0)
        return dist.rho[e]
    a, b = dist.prob(T), dist.prob(T | {e})
    if a + b == 0:
        raise NullConditioningError(f"P[S_-e = {sorted(T)}] = 0")
    return b / (a + b)


def stationary_conditionals(table, exact):
    """(mu, q, null) of an explicit law over its family's positions, the
    sentinel's row included: mu[p] is the mass of S_p and, with T = S_p - e,
    q[p, e] = P[e in S | S_-e = T] = mu(T+e) / (mu(T) + mu(T+e)), one
    division per cap, 0 where T+e is infeasible or where null[p, e] marks
    mu(T) + mu(T+e) = 0.  Exact mode keeps the table's numbers in object
    arrays; float mode converts them to floats.  Built once per law and
    mode, so the arrays are read-only.
    """
    cached = table._conditionals.get(exact)
    if cached is not None:
        return cached
    fam = table.env.family()
    mu = family_masses(table, exact)
    null = np.repeat((mu == 0)[:, None], table.env.n, axis=1)
    q = np.zeros(null.shape, dtype=mu.dtype)
    s, e, t = fam.caps
    b, den = mu[s], mu[t] + mu[s]
    ok = den != 0
    cond = np.zeros(len(s), dtype=mu.dtype)
    cond[ok] = b[ok] / den[ok]
    q[s, e] = q[t, e] = cond
    null[s, e] = null[t, e] = ~ok
    for a in (mu, q, null):
        a.flags.writeable = False
    table._conditionals[exact] = mu, q, null
    return mu, q, null


def verify_stationary_lp(dist, x, alpha, tol=CAP_SLACK):
    """Exhaustively check selectability at alpha and all stationary caps.

    An explicit law is checked cap by cap over `stationary_conditionals`:
    pairs (e,T) with P[S_-e = T] = 0 are skipped, and violations are listed
    by the family position of T, then by e.  A Gibbs law is checked in
    closed form, with no table: q_e(T) = rho_e for every T with T+e
    feasible, so its caps are rho_e <= x_e for each element some feasible
    set holds, and a violated one is listed once, with T = empty, in
    element order.  Either way alpha comes from P[e in S] summed over the
    sets in family order, so both give the same bits for one law.  Exact
    over the enumerated family; raises for non-enumerable environments.
    """
    env = dist.env
    gibbs = isinstance(dist, GibbsDistribution)
    try:
        if gibbs:
            capped = np.flatnonzero(env.incidence().any(axis=0)).tolist()
        else:
            fam = env.family()
    except EnumerationBudgetError as exc:
        raise NonEnumerableError(
            f"environment not enumerable, so its stationary caps cannot be checked: {exc}"
        ) from exc

    exact = dist.exact
    zero = R(0) if exact else 0.0
    xs = [as_rational(v) if exact and not isinstance(v, float) else float(v) for v in x]

    if gibbs:
        marg = dist._marginals()
        rho = dist.rho if exact else [float(v) for v in dist.rho]
        excess = [rho[e] - xs[e] for e in capped]
        violations = [(e, frozenset(), rho[e], x[e])
                      for e, d in zip(capped, excess) if float(d) > tol]
        worst = max([zero, *excess])
    else:
        mu, q, null = stationary_conditionals(dist.to_explicit(), exact)
        s, e, t = fam.caps
        marg = np.full(env.n, zero, dtype=q.dtype)
        np.add.at(marg, e, mu[s])       # unbuffered: each sum runs in family order
        marg = marg.tolist()

        s, e, t = fam.caps.compress(~null[s, e], axis=1)   # null conditioning events are skipped
        excess = q[s, e] - np.array(xs, dtype=q.dtype)[e]
        bad = np.flatnonzero(excess.astype(float) > tol)
        violations = [(int(e[i]), fam.sets[t[i]], q.item(s[i], e[i]), x[e[i]])
                      for i in bad[np.lexsort((e[bad], t[bad]))]]
        if exact:
            worst = max([zero, *excess.tolist()])
        else:       # the largest excess, floored at 0.0: never -0.0
            top = float(excess.max(initial=0.0))
            worst = top if top > 0 else zero
    alpha_achieved = min(float(m) / xe if isinstance(xe, float) else m / xe
                         for m, xe in zip(marg, xs))
    return StationaryReport(alpha_achieved, violations, worst)


def addability_prob(dist, e):
    """P[Add(e)] = P[S_-e + e feasible], plus the factorization residual
    |p_e - P[Add(e)] * rho_e| which is an exact identity for Gibbs laws."""
    if not isinstance(dist, GibbsDistribution):
        raise TypeError("addability factorization is a Gibbs identity")
    fam = dist.env.family()
    table = dist.to_explicit()
    zero = R(0) if table.exact else 0.0
    mu = family_masses(table, table.exact)
    add = sum(mu[fam.up[fam.down[:, e], e] != len(fam)].tolist(), zero)
    marg = sum(mu[:-1][fam.inc[:, e]].tolist(), zero)
    return add, abs(marg - add * dist.rho[e])


def solve_stationary_lp_exact(env, x):
    """Exact rational optimum of the stationary LP on an enumerable family
    of at most EXACT_LP_MAX_SETS sets.

    The rows above, in that order (selectability by element, the caps in
    `fam.caps` order, then nu(empty) >= 0), go to the simplex in its own
    form, built from the family's arrays: row i is a {column: int} dict of
    its nonzeros with an int rhs, over a positive row denominator, and a
    float64 guide holds every exact entry rounded once.  With x_e =
    p_e / d_e (lowest terms) a row's denominator is d_e:

        selectability e     -d_e on each S ni e, p_e on alpha; rhs 0
        cap (S, e, T != 0)  -p_e on T, d_e - p_e on S; rhs 0
        cap (S, e, 0)       p_e on every S' != empty, d_e on S; rhs p_e

    since x_e + (1 - x_e) = 1 on S itself.

    Returns (alpha, witness ExplicitDistribution).
    """
    fam = env.family()
    if len(fam) > EXACT_LP_MAX_SETS:
        raise EnumerationBudgetError(
            f"|F| = {len(fam)} exceeds the rational simplex budget {EXACT_LP_MAX_SETS}")
    x = [as_rational(v) for v in x]
    num = [v.numerator for v in x]
    dx = [v.denominator for v in x]
    # variables: mu_S at column (position - 1) for every S but the empty set,
    # then alpha; the guide's last column is the rhs
    nv = len(fam)
    ALPHA = nv - 1
    caps = fam.caps
    n, k = len(x), caps.shape[1]
    rows, rhs, den = [], [], []
    # selectability: alpha*x_e - sum_{S ni e} mu_S <= 0
    holds = fam.inc[1:].T
    for p, d, sets in zip(num, dx, holds):
        row = dict.fromkeys(np.flatnonzero(sets).tolist(), -d)
        if p:
            row[ALPHA] = p
        rows.append(row)
    rhs += [0] * n
    den += dx
    # caps: (1-x_e) mu(T+e) - x_e mu(T) <= 0, with mu(empty) = 1 - sum mu_S
    for s, e, t in caps.T.tolist():
        p, d = num[e], dx[e]
        if t:
            row, b = {t - 1: -p, s - 1: d - p}, 0
        else:
            row, b = dict.fromkeys(range(ALPHA), p), p
            row[s - 1] = d
        if not p or p == d:
            row = {j: a for j, a in row.items() if a}
        rows.append(row)
        rhs.append(b)
        den.append(d)
    # mu(empty) >= 0
    rows.append(dict.fromkeys(range(ALPHA), 1))
    rhs.append(1)
    den.append(1)

    # the guide: float(x_e) and float(1 - x_e), each rounded from the exact value
    xf = np.array([p / d for p, d in zip(num, dx)])
    sf = np.array([(d - p) / d for p, d in zip(num, dx)])
    G = np.zeros((n + k + 1, nv + 1))
    G[:n, :ALPHA][holds] = -1.0
    G[:n, ALPHA] = xf
    r, (s, e, t) = n + np.arange(k), caps
    on_t = t != 0               # the other caps read mu(empty)
    G[r[on_t], t[on_t] - 1] = -xf[e[on_t]]
    G[r[on_t], s[on_t] - 1] = sf[e[on_t]]
    r, s, e = r[~on_t], s[~on_t], e[~on_t]
    G[r, :ALPHA] = xf[e, None]
    G[r, s - 1] = 1.0
    G[r, nv] = xf[e]
    G[-1, :ALPHA] = G[-1, nv] = 1.0
    c = [0] * ALPHA + [1]

    # den and guide go by keyword: perfbench's tracer counts a 4th
    # positional argument as A_eq rows
    opt, z = simplex.solve_lp(c, rows, rhs, den=den, guide=G)
    pos = [j for j in range(ALPHA) if z[j]]
    probs = [z[j] for j in pos]
    empty = 1 - sum(probs, R(0))
    pos = [j + 1 for j in pos]
    if empty:
        pos, probs = [0] + pos, [empty] + probs
    return opt, ExplicitDistribution.on_family(env, pos, probs)


def symmetric_uniform_bound(n, k, q):
    """P[Bin(n-1,q) < k] / P[Bin(n,q) <= k]; exact for rational q."""
    import warnings
    from math import comb
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    q = Fraction(q) if not isinstance(q, float) else q
    if n * q != k:
        warnings.warn("symmetric instance normally has n*q = k")

    def binom_cdf_lt(m, p, kk):
        # P[Bin(m,p) < kk]
        return sum(comb(m, j) * p**j * (1 - p)**(m - j) for j in range(min(kk, m + 1)))

    num = binom_cdf_lt(n - 1, q, k)
    den = binom_cdf_lt(n, q, k + 1)
    return num / den
