"""Weighted generating-polynomial oracles.

A CountingOracle evaluates Z(w) = sum over the relevant set family of
mu0(S) prod_{e in S} w_e (mu0 = 1 on environment families), per-element
marginal sums, constrained sums (pinned include/exclude blocks via
forward-difference interpolation), and the coefficient extraction used for
thinned base measures.

Every backend and every forward difference is written once.  The precision
mode decides only the arithmetic and the form of the result:
  * "rational": exact rationals throughout; partition and marginal_sum
    return Z itself.
  * "double": floats; partition/marginal_sum return log-magnitudes (-inf
    for zero), constrained_count/thinned_mass plain floats, since their
    interpolation sums are signed and are taken relative to the largest
    log term.
The closed-form backends run their kernels in the mode's (one, zero).  The
enumeration backends read exact masses mu0(S) w^S from one loop in rational
mode; in double mode the cached incidence matrix gives all per-set
log-masses log mu0(S) + sum_{e in S} log w_e in one matmul (-inf for sets
holding a zero weight), and one logsumexp turns them into log Z and the
normalised set probabilities that partition, marginal_sum, marginals and
second_moments read, and that dist.GibbsDistribution.to_explicit and
rayleigh.materialize read as explicit tables.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, factorial

import numpy as np

from ._rat import R, as_rational

MATCHING_MEMO_CAP = 1_000_000


class CountingOverflowError(OverflowError):
    """Double-mode value exceeded float range; rerun in exact-rational mode."""


class SingularRepresentationError(RuntimeError):
    """A determinantal representation with singular A A^T was supplied."""


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def det_bareiss(M):
    """Fraction-free Bareiss determinant over exact numbers."""
    M = [row[:] for row in M]
    n = len(M)
    if n == 0:
        return R(1)
    sign = 1
    prev = R(1)
    for k in range(n - 1):
        if M[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if piv is None:
                return R(0)
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) / prev
            M[i][k] = R(0)
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def det_double(M):
    """Partial-pivot LU determinant for float matrices."""
    A = np.array(M, dtype=float)
    n = A.shape[0]
    if n == 0:
        return 1.0
    sign, logdet = np.linalg.slogdet(A)
    if sign == 0:
        return 0.0
    val = sign * math.exp(logdet)
    return val


# ---------------------------------------------------------------------------
# base measures
# ---------------------------------------------------------------------------

class BaseMeasure:
    """A full-support probability measure on the bases of a matroid.

    kinds: "explicit-table" (normalized mass table), "determinantal"
    (mu0(B) proportional to det(A_B)^2), "uniform-spanning-tree".
    """

    def __init__(self, kind, matroid, table=None, A=None):
        self.kind = kind
        self.matroid = matroid
        self.A = None               # determinantal: A and det(A A^T)
        self.gram_det = None
        self.table = None           # uniform-spanning-tree: built on the first mass()
        if kind == "explicit-table":
            total = sum(table.values())
            # normalization is exact when the masses are rationals
            self.table = {frozenset(B): v / total for B, v in table.items()}
        elif kind == "determinantal":
            self.A = [list(map(as_rational, row)) for row in A]
            self.gram_det = det_bareiss(_mat_mul_t(self.A, self.A))
            if self.gram_det == 0:
                raise SingularRepresentationError("A A^T is singular")
        elif kind == "uniform-spanning-tree":
            if matroid.variant != "graphic":
                raise ValueError("uniform-spanning-tree needs a graphic matroid")
        else:
            raise ValueError(f"unknown base measure kind {kind}")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def uniform_on_bases(matroid):
        if matroid.variant == "graphic":
            return BaseMeasure("uniform-spanning-tree", matroid)
        bases = matroid.bases()
        return BaseMeasure("explicit-table", matroid,
                           table={B: R(1, len(bases)) for B in bases})

    @staticmethod
    def determinantal(A):
        from .env import Matroid
        m = Matroid.linear([[Fraction(v) for v in row] for row in A])
        return BaseMeasure("determinantal", m, A=A)

    @staticmethod
    def explicit(matroid, table):
        return BaseMeasure("explicit-table", matroid, table=table)

    def enumerate_bases(self):
        if self.kind == "explicit-table":
            return sorted(self.table, key=lambda B: tuple(sorted(B)))
        return self.matroid.bases()

    def mass(self, B):
        """Normalized mu0(B)."""
        B = frozenset(B)
        if self.kind == "determinantal":
            cols = sorted(B)
            sub = [[row[c] for c in cols] for row in self.A]
            return det_bareiss(_mat_mul_t(sub, sub)) / self.gram_det
        if self.table is None:
            bases = self.matroid.bases()
            self.table = {T: R(1, len(bases)) for T in bases}
        return self.table.get(B, 0)

    def to_table(self):
        return {B: self.mass(B) for B in self.enumerate_bases()}


def _mat_mul_t(A, B):
    """A @ B^T for row-major exact matrices."""
    return [[sum(a * b for a, b in zip(ra, rb)) for rb in B] for ra in A]


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

# backends that evaluate by summing over an enumerated (set, mu0) family
ENUM_BACKENDS = ("enumeration", "tabulated-base-measure")
_ENV_BACKENDS = {"enumeration", "matching-recursion", "ksym-dp"}
_BASE_BACKENDS = {"matrix-tree", "cauchy-binet", *ENUM_BACKENDS}
# the base-measure kind each closed-form backend evaluates
_BACKEND_MEASURE = {"matrix-tree": "uniform-spanning-tree", "cauchy-binet": "determinantal"}


class CountingOracle:
    def __init__(self, backend, env=None, base=None, mode="double"):
        if mode not in ("double", "rational"):
            raise ValueError("mode must be 'double' or 'rational'")
        self.backend = backend
        self.env = env
        self.base = base
        self.mode = mode
        # the mode's arithmetic: its number type and its unit and zero
        if mode == "rational":
            self._num, self._one, self._zero = as_rational, R(1), R(0)
        else:
            self._num, self._one, self._zero = float, 1.0, 0.0

        if base is not None:
            if backend not in _BASE_BACKENDS:
                raise ValueError(f"backend {backend} not valid for base measures")
            need = _BACKEND_MEASURE.get(backend)
            if need is not None and base.kind != need:
                raise ValueError(f"backend {backend} needs a {need} measure, not {base.kind}")
            self.n = base.matroid.n
        elif env is not None:
            if backend not in _ENV_BACKENDS:
                raise ValueError(f"backend {backend} not valid for environments")
            if backend == "matching-recursion" and "edges" not in env.meta:
                raise ValueError("matching-recursion needs a graph environment")
            if backend == "ksym-dp" and env.kind != "k-uniform":
                raise ValueError("ksym-dp needs a k-uniform environment")
            self.n = env.n
        else:
            raise ValueError("need an env or a base measure")

        self._sets = None           # enumeration cache: list of frozensets
        self._inc = None            # and its set x element incidence matrix

    # -- enumeration support ---------------------------------------------

    def _family(self):
        if self._sets is None:
            if self.base is not None:
                self._sets = self.base.enumerate_bases()
                self._weights0 = [self.base.mass(B) for B in self._sets]
            else:
                self._sets = self.env.enumerate_feasible()
                self._weights0 = [R(1)] * len(self._sets)
        return self._sets, self._weights0

    def _masses_rational(self, w):
        """Exact mu0(S) w^S for every enumerated set S, in family order."""
        sets, m0 = self._family()
        masses = []
        for S, mu in zip(sets, m0):
            t = as_rational(mu)
            for f in S:
                t *= w[f]
            masses.append(t)
        return masses

    def _enum_rational(self, w, e=None):
        """Exact sum of mu0(S) w^S over the family, or over its sets holding e."""
        sets, _ = self._family()
        total = R(0)
        for S, t in zip(sets, self._masses_rational(w)):
            if e is None or e in S:
                total += t
        return total

    def _log_masses(self, w):
        """log mu0(S) + sum_{e in S} log w_e for every enumerated set S.

        Sets holding a weight <= 0 get -inf.  The masking pass only runs
        when some weight is <= 0: the dual solvers call this with positive
        weights on every step.
        """
        if self._inc is None:
            sets, m0 = self._family()
            if self.base is None:       # the family's own incidence; every mu0(S) = 1
                self._inc = self.env.incidence().astype(float)
                self._logm0 = np.zeros(len(sets))
            else:
                self._inc = np.zeros((len(sets), self.n))
                for i, S in enumerate(sets):
                    self._inc[i, list(S)] = 1.0
                self._logm0 = np.array([math.log(float(v)) if float(v) > 0 else -np.inf
                                        for v in m0])
        w = np.asarray(w, dtype=float)
        pos = w > 0
        if pos.all():
            return self._inc @ np.log(w) + self._logm0
        logmass = self._inc @ np.log(np.where(pos, w, 1.0)) + self._logm0
        logmass[self._inc @ ~pos > 0] = -np.inf
        return logmass

    def _tilt(self, w):
        """(log Z, per-set probabilities) of the w-tilted family; (-inf, None) for Z = 0."""
        logmass = self._log_masses(w)
        m = logmass.max()
        if m == -math.inf:
            return -math.inf, None
        p = np.exp(logmass - m)
        s = p.sum()
        return float(m) + math.log(s), p / s

    def _set_probs(self, w):
        lz, p = self._tilt(w)
        if p is None:
            raise ZeroDivisionError("every set has zero mass under w")
        return p

    # -- core evaluation: plain value in rational mode, log in double -----

    def _weights(self, w):
        """w checked for length and converted to the mode's number type."""
        if len(w) != self.n:
            raise ValueError("weight vector length mismatch")
        return [self._num(v) for v in w]

    def _value(self, s, M=0):
        """s e^M in the mode's output form: s itself in rational mode (where
        M = 0), log(s) + M in double mode (-inf for s <= 0)."""
        if self.mode == "rational":
            return s
        return math.log(s) + M if s > 0 else -math.inf

    def _g(self, w):
        """Z(w) of mode-typed weights w, as `_value` gives it."""
        if self.backend in ENUM_BACKENDS:
            return self._enum_rational(w) if self.mode == "rational" else self._tilt(w)[0]
        one, zero = self._one, self._zero
        if self.backend == "matching-recursion":
            val = _matching_partition(self.env.meta["edges"], w, one)
        elif self.backend == "ksym-dp":
            val = _esym_truncated_sum(w, self.env.meta["k"], one, zero)
        elif self.backend == "matrix-tree":
            val = _matrix_tree_g(self.base, w, one, zero)
        else:
            val = _cauchy_binet_g(self.base, w, one, zero)
        return self._value(val)

    def _alternating_sum(self, terms):
        """sum c Z(v) over the (c, v) in `terms`, as (s, M) with the sum
        equal to s e^M: exact s and M = 0 in rational mode; in double mode M
        is the largest log Z(v), so s stays in range (M = -inf when every
        Z(v) is 0)."""
        zs = [(c, self._g(v)) for c, v in terms]
        if self.mode == "rational":
            return sum(c * z for c, z in zs), 0
        M = max(z for _, z in zs)
        if M == -math.inf:
            return 0.0, M
        return sum(c * math.exp(z - M) for c, z in zs), M

    # -- public operations -------------------------------------------------

    def partition(self, w):
        return self._g(self._weights(w))

    def marginal_sum(self, w, e):
        """Z restricted to sets containing e (= w_e dZ/dw_e)."""
        w = self._weights(w)
        one, zero = self._one, self._zero
        if self.backend == "matching-recursion":
            edges = self.env.meta["edges"]
            u, v = edges[e]
            sub = {i: f for i, f in enumerate(edges) if i != e and u not in f and v not in f}
            return self._value(w[e] * _matching_partition_sub(sub, w, one))
        if self.backend == "ksym-dp":
            rest = w[:e] + w[e + 1:]
            return self._value(w[e] * _esym_truncated_sum(rest, self.env.meta["k"] - 1, one, zero))
        if self.backend in ENUM_BACKENDS:
            if self.mode == "rational":
                return self._enum_rational(w, e)
            lz, p = self._tilt(w)
            return self._value(0.0 if p is None else float(p @ self._inc[:, e]), lz)
        # determinant backends: multi-affinity gives marginal = Z(w) - Z(w | w_e = 0)
        w0 = list(w)
        w0[e] = zero
        return self._value(*self._alternating_sum([(1, w), (-1, w0)]))

    def _ratio(self, num, z):
        """num / z of two values in `_value`'s form, as a probability."""
        if self.mode == "rational":
            return num / z
        return 0.0 if num == -math.inf else math.exp(num - z)

    def marginal_probability(self, w, e):
        """P[e in S] under the w-tilted measure."""
        return self._ratio(self.marginal_sum(w, e), self.partition(w))

    def marginals(self, w):
        if self.backend in ENUM_BACKENDS and self.mode == "double":
            p = self._set_probs(w)          # builds self._inc on the first call
            return self._inc.T @ p
        z = self.partition(w)
        return np.array([float(self._ratio(self.marginal_sum(w, e), z)) for e in range(self.n)])

    def second_moments(self, w):
        """Matrix M with M[e,f] = P[e in S and f in S]; enumeration backends only."""
        p = self._set_probs(w)
        return self._inc.T @ (self._inc * p[:, None])

    def constrained_count(self, w, I, J):
        """Sum over sets containing all of I and none of J, by interpolation.

        Evaluates the oracle on the (|I|+1) x (|J|+1) grid of rescaled weight
        vectors and combines with signed binomial forward-difference
        coefficients.  Exact-rational mode is required beyond 8 pinned
        elements: the alternating sums are catastrophically ill-conditioned.
        """
        I, J = sorted(set(I)), sorted(set(J))
        if set(I) & set(J):
            raise ValueError("include and exclude sets must be disjoint")
        d, m = len(I), len(J)
        if d + m > 8 and self.mode != "rational":
            raise ValueError("more than 8 pinned elements requires rational mode")
        w = self._weights(w)

        def scaled(a, b):
            ww = list(w)
            for i in I:
                ww[i] = ww[i] * (1 + a)
            for j in J:
                ww[j] = ww[j] * b
            return ww

        s, M = self._alternating_sum(
            [((-1) ** (d - a) * comb(d, a) * (-1) ** (b - 1) * comb(m + 1, b), scaled(a, b))
             for a in range(d + 1) for b in range(1, m + 2)])
        val = s / factorial(d)
        if self.mode == "rational":
            return val
        if not math.isfinite(val):
            raise CountingOverflowError("interpolation sum overflowed; use rational mode")
        if M > 700:
            raise CountingOverflowError("interpolation values overflow double; use rational mode")
        return val * math.exp(M)

    def thinned_mass(self, w, tau, T):
        """Value proportional to mu*(T): prod_{i in T} tau_i times the
        degree-|T| coefficient of g along the T-block scaling, over Z(w).

        The coefficient is extracted with the |T|-step forward difference at
        nodes t = 1..|T|+1; elements outside T keep the weight w (1 - tau).
        """
        T = sorted(set(T))
        d = len(T)
        w = self._weights(w)
        tau = [self._num(v) for v in tau]

        def wt(t):
            return [w[i] * t if i in T else w[i] * (1 - tau[i]) for i in range(self.n)]

        s, M = self._alternating_sum([((-1) ** (d - a) * comb(d, a), wt(1 + a))
                                      for a in range(d + 1)])
        lead = s / factorial(d)
        tt = self._one
        for i in T:
            tt *= tau[i]
        if self.mode == "rational":
            return tt * lead / self._g(w)
        val = tt * lead * math.exp(M - self._g(w))
        if not math.isfinite(val):
            raise CountingOverflowError("thinned-mass extraction overflowed; use rational mode")
        return max(val, 0.0)


# ---------------------------------------------------------------------------
# backend kernels
# ---------------------------------------------------------------------------

def _matching_partition(edges, w, one):
    """Matching generating polynomial via Z(G) = Z(G-e) + w_e Z(G-u-v)."""
    sub = {i: edges[i] for i in range(len(edges))}
    return _matching_partition_sub(sub, w, one)


def _matching_partition_sub(sub, w, one):
    return _mp_rec(frozenset(sub), {i: e for i, e in sub.items()}, w, one, {})


def _mp_rec(key, edges, w, one, memo):
    if not key:
        return one
    if key in memo:
        return memo[key]
    e = min(key)
    u, v = edges[e]
    rest = key - {e}
    # delete e
    val = _mp_rec(rest, edges, w, one, memo)
    # take e: drop everything touching u or v
    rest2 = frozenset(i for i in rest if u not in edges[i] and v not in edges[i])
    val = val + w[e] * _mp_rec(rest2, edges, w, one, memo)
    if len(memo) < MATCHING_MEMO_CAP:
        memo[key] = val
    return val


def _esym_truncated_sum(w, k, one, zero):
    """Sum of elementary symmetric polynomials e_0 + ... + e_k of w."""
    if k < 0:
        return zero
    dp = [zero] * (k + 1)
    dp[0] = one
    for x in w:
        for j in range(min(k, len(w)), 0, -1):
            dp[j] = dp[j] + dp[j - 1] * x
    total = zero
    for v in dp:
        total = total + v
    return total


def _reduced_laplacian(base, w, zero):
    """The weighted graph Laplacian with its first row and column dropped."""
    m = base.matroid
    nv = m.meta["n_vertices"]
    L = [[zero] * nv for _ in range(nv)]
    for e, (u, v) in enumerate(m.meta["edges"]):
        if u == v:
            continue
        L[u][u] += w[e]
        L[v][v] += w[e]
        L[u][v] -= w[e]
        L[v][u] -= w[e]
    return [row[1:] for row in L[1:]]


def _matrix_tree_g(base, w, one, zero):
    """Normalized spanning-tree generating value det L_red(w) / #trees."""
    det = det_double if isinstance(one, float) else det_bareiss
    return (det(_reduced_laplacian(base, w, zero))
            / det(_reduced_laplacian(base, [one] * len(w), zero)))


def _cauchy_binet_g(base, w, one, zero):
    """det(A diag(w) A^T) / det(A A^T) = sum_B mu0(B) w^B."""
    gram = _mat_mul_t([[a * x for a, x in zip(row, w)] for row in base.A], base.A)
    if isinstance(one, float):
        return det_double(gram) / float(base.gram_det)
    return det_bareiss(gram) / base.gram_det
