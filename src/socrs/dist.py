"""Distributions over feasible sets and the stationary-LP machinery.

The stationary LP (over distributions nu on the feasible family) is

    max alpha
    s.t.  P[e in S]               >= alpha * x_e          (selectability)
          P[e in S | S_-e = T]    <= x_e                  (stationary caps)

with the cap linearized as (1-x_e) nu(T+e) <= x_e nu(T), which is valid for
every T including nu(T)=0 and removes the positivity side condition.  Its
caps are the pairs (e, T) with T+e feasible; `stationary_caps` lists them.

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

from ._rat import R, as_rational, rat_str
from .counting import CountingOracle
from .env import EnumerationBudgetError, EnvironmentError_
from . import simplex


class NonEnumerableError(EnumerationBudgetError):
    """Exact verification and the replay's cap check need an enumerable environment."""


class NullConditioningError(ValueError):
    """Conditioning on an event of probability zero."""


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
    """A probability law over feasible sets, given as an explicit table."""

    def __init__(self, env, support, tol=1e-12):
        self.env = env
        self.support = {}
        total = 0
        for S, p in support.items():
            S = frozenset(S)
            if not env.is_feasible(S):
                raise EnvironmentError_(f"support set {sorted(S)} is infeasible")
            if isinstance(p, float):
                if p < -tol:
                    raise ValueError("negative probability")
                p = max(p, 0.0)
            elif p < 0:
                raise ValueError("negative probability")
            self.support[S] = p
            total = total + p
        exact = not any(isinstance(p, float) for p in self.support.values())
        if exact:
            if total != 1:
                raise ValueError(f"probabilities sum to {total}, not 1")
        elif abs(float(total) - 1.0) > tol:
            raise ValueError(f"probabilities sum to {float(total)}, not 1")
        self.exact = exact

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
    """Hard-core law on the feasible family: nu(S) proportional to prod w_e."""

    def __init__(self, env, w, oracle=None):
        if any(float(v) <= 0 for v in w):
            raise ValueError("Gibbs weights must be positive")
        self.env = env
        self.w = list(w)
        self.oracle = oracle

    @property
    def rho(self):
        return [v / (1 + v) for v in self.w]

    def to_explicit(self):
        """The explicit table, read from an enumeration oracle over self.env
        (self.oracle when it is one, so its cached incidence matrix is reused)."""
        oracle = self.oracle
        if oracle is None or oracle.backend != "enumeration" or oracle.env is not self.env:
            oracle = CountingOracle("enumeration", env=self.env)
        sets, _ = oracle._family()
        if any(isinstance(v, float) for v in self.w):
            probs = oracle._set_probs(self.w)
            return ExplicitDistribution(self.env, {S: float(p) for S, p in zip(sets, probs)})
        masses = oracle._masses_rational([as_rational(v) for v in self.w])
        Z = sum(masses)
        return ExplicitDistribution(self.env, {S: m / Z for S, m in zip(sets, masses)})

    def marginal(self, e):
        return self.to_explicit().marginal(e)


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


def total_variation(a, b):
    """Total variation distance between two explicit laws, as a float."""
    keys = set(a.support) | set(b.support)
    return float(sum(abs(a.prob(S) - b.prob(S)) for S in keys) / 2)


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
    a = dist.prob(T)
    b = dist.prob(T | {e})
    denom = a + b
    if denom == 0:
        raise NullConditioningError(f"P[S_-e = {sorted(T)}] = 0")
    return b / denom


def stationary_caps(sets):
    """The caps (e, T, T+e) of the stationary LP over an enumerated family.

    Each S in family order, then each e in S ascending, with T = S - e; T is
    in the family because feasible families are downward closed.
    """
    for S in sets:
        for e in sorted(S):
            yield e, S - {e}, S


def verify_stationary_lp(dist, x, alpha, tol=CAP_SLACK):
    """Exhaustively check selectability at alpha and all stationary caps.

    Pairs (e,T) with P[S_-e = T] = 0 are skipped.  Violations are listed by
    the family position of T, then by e.  Exact over the enumerated
    support; raises for non-enumerable environments.
    """
    env = dist.env
    try:
        sets = env.enumerate_feasible()
    except EnumerationBudgetError as exc:
        raise NonEnumerableError(
            f"environment not enumerable, so its stationary caps cannot be checked: {exc}"
        ) from exc

    table = dist.to_explicit()
    exact = table.exact
    zero = R(0) if exact else 0.0
    xs = [as_rational(v) if exact and not isinstance(v, float) else float(v) for v in x]

    marg = [zero] * env.n
    for S, p in table.support.items():
        for e in S:
            marg[e] += p

    alpha_achieved = None
    for e in range(env.n):
        ratio = float(marg[e]) / xs[e] if isinstance(xs[e], float) else marg[e] / xs[e]
        if alpha_achieved is None or ratio < alpha_achieved:
            alpha_achieved = ratio

    violations = []
    max_excess = zero
    for e, T, Te in stationary_caps(sets):
        a = table.support.get(T, zero)
        b = table.support.get(Te, zero)
        if a + b == 0:
            continue  # zero-probability conditioning event: skipped
        cond = b / (a + b)
        excess = cond - xs[e]
        if float(excess) > tol:
            violations.append((e, T, cond, x[e]))
        if excess > max_excess:
            max_excess = excess
    pos = {S: i for i, S in enumerate(sets)}
    violations.sort(key=lambda v: (pos[v[1]], v[0]))
    return StationaryReport(alpha_achieved, violations, max_excess)


def addability_prob(dist, e):
    """P[Add(e)] = P[S_-e + e feasible], plus the factorization residual
    |p_e - P[Add(e)] * rho_e| which is an exact identity for Gibbs laws."""
    if not isinstance(dist, GibbsDistribution):
        raise TypeError("addability factorization is a Gibbs identity")
    env = dist.env
    table = dist.to_explicit()
    zero = R(0) if table.exact else 0.0
    add = zero
    for S, p in table.support.items():
        if env.is_feasible((S - {e}) | {e}):
            add += p
    p_e = table.marginal(e)
    residual = abs(p_e - add * dist.rho[e])
    return add, residual


def solve_stationary_lp_exact(env, x, budget=5000):
    """Exact rational optimum of the stationary LP on an enumerable family.

    Returns (alpha, witness ExplicitDistribution).
    """
    sets = env.enumerate_feasible()
    if len(sets) > budget:
        raise EnumerationBudgetError(
            f"|F| = {len(sets)} exceeds the rational simplex budget {budget}")
    x = [as_rational(v) for v in x]
    # variables: mu_S for every S but the empty set (sets[0]), then alpha
    col = {S: i for i, S in enumerate(sets[1:])}
    nv = len(sets)
    ALPHA = nv - 1

    A_ub, b_ub = [], []
    # selectability: alpha*x_e - sum_{S ni e} mu_S <= 0
    for e in range(env.n):
        row = [R(0)] * nv
        for S, i in col.items():
            if e in S:
                row[i] = R(-1)
        row[ALPHA] = x[e]
        A_ub.append(row)
        b_ub.append(R(0))
    # caps: (1-x_e) mu(T+e) - x_e mu(T) <= 0, with mu(empty) = 1 - sum mu_S
    for e, T, Te in stationary_caps(sets):
        row = [R(0)] * nv
        if T:
            row[col[T]] -= x[e]
            b_ub.append(R(0))
        else:
            row[:ALPHA] = [x[e]] * ALPHA
            b_ub.append(x[e])
        row[col[Te]] += 1 - x[e]
        A_ub.append(row)
    # mu(empty) >= 0
    A_ub.append([R(1)] * ALPHA + [R(0)])
    b_ub.append(R(1))
    c = [R(0)] * ALPHA + [R(1)]

    opt, z = simplex.solve_lp(c, A_ub, b_ub)
    mu = [1 - sum(z[:ALPHA])] + z[:ALPHA]
    support = {S: Fraction(int(p.numerator), int(p.denominator))
               for S, p in zip(sets, mu) if p != 0}
    witness = ExplicitDistribution(env, support)
    return Fraction(int(opt.numerator), int(opt.denominator)), witness


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
