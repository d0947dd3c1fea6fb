"""Weighted generating-polynomial oracles.

A CountingOracle evaluates Z(w) = sum over the relevant set family of
mu0(S) prod_{e in S} w_e (mu0 = 1 on environment families), and the same
sum over the sets that hold all of a pinned-in block I and none of a
pinned-out block J.  That one pinned evaluation, `_g`, gives every
operation: partition (no pins), per-element marginal sums (one pin),
constrained counts, and the thinned base masses (a count pinned on T at
weights w(1 - tau) off T).  Each backend reduces the pins to a smaller
instance of itself (self-reduction, Jerrum-Valiant-Vazirani 1986):
  * enumeration filters the enumerated family: an environment's feasible
    sets, or a base measure's `family` (any kind);
  * matching-recursion drops the edges of J and every edge touching I;
  * ksym-dp drops I and J and lowers k by |I|;
  * the determinantal backends (cauchy-binet on a determinantal measure,
    and matrix-tree on a uniform measure of a graphic matroid, with A the
    reduced signed incidence matrix, so A W A^T is the reduced Laplacian)
    take one determinant of A_R W_R A_R^T bordered by the columns A_I.

The precision mode decides only the arithmetic and the form of the result.
Every operation reads its weights as one array of the mode's numbers
(`_weights`), which a float array passes through unconverted in double
mode, so an evaluation builds no per-weight Python list beyond what a
backend's scalar loop reads:
  * "rational": exact rationals throughout; partition and marginal_sum
    return Z itself.
  * "double": floats; partition/marginal_sum return log-magnitudes (-inf
    for zero), constrained_count/thinned_mass plain floats, and `pinned`
    the log of a pinned count.  Determinants stay in log form from slogdet
    on, ksym-dp runs its DP on w / max(w, 1), and matching-recursion runs
    on log-weights with a two-term log-sum-exp, so Z far outside float
    range is fine on every backend.
Marginals and second moments P[e, f in S] are ratios of pinned counts to
one Z: n + 1 evaluations for the marginals and n(n + 1)/2 more for the
second moments, on every backend but double-mode enumeration, which reads
both off its set probabilities.  The enumeration backend reads exact
masses mu0(S) w^S from one loop in rational mode; in double mode the
family's incidence matrix gives all per-set log-masses log mu0(S) +
sum_{e in S} log w_e in one matmul (-inf for sets holding a zero weight),
and one logsumexp turns them into log Z and the normalised set
probabilities that partition, marginal_sum, marginals and second_moments
read, and that dist.GibbsDistribution.to_explicit and rayleigh.materialize
read as explicit tables.  The oracle keeps the last such tilt, so these
reads at one weight vector share one evaluation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress

import numpy as np

from ._rat import R, as_rational

MATCHING_MEMO_CAP = 1_000_000


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
    """(sign, log |det M|) of a float matrix by partial-pivot LU; the log
    form keeps determinants far outside float range usable."""
    sign, logdet = np.linalg.slogdet(np.asarray(M, dtype=float))
    return float(sign), float(logdet)


# ---------------------------------------------------------------------------
# base measures
# ---------------------------------------------------------------------------

class BaseMeasure:
    """A full-support probability measure on the bases of a matroid.

    kinds: "explicit-table" (a given mass table, normalized), "determinantal"
    (mu0(B) proportional to det(A_B)^2) and "uniform" (equal masses).  Every
    reader takes the one base family that `family` builds.
    """

    def __init__(self, kind, matroid, table=None, A=None):
        self.kind = kind
        self.matroid = matroid
        self.A = None               # determinantal: A and det(A A^T)
        self.gram_det = None
        self.table = None           # uniform: filled with the family
        self._family = None
        if kind == "explicit-table":
            total = sum(table.values())
            # normalization is exact when the masses are rationals
            self.table = {frozenset(B): v / total for B, v in table.items()}
        elif kind == "determinantal":
            self.A = [list(map(as_rational, row)) for row in A]
            self.gram_det = det_bareiss(_mat_mul_t(self.A, self.A))
            if self.gram_det == 0:
                raise SingularRepresentationError("A A^T is singular")
        elif kind != "uniform":
            raise ValueError(f"unknown base measure kind {kind}")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def uniform_on_bases(matroid):
        return BaseMeasure("uniform", matroid)

    @staticmethod
    def determinantal(A):
        from .env import Matroid
        m = Matroid.linear([[Fraction(v) for v in row] for row in A])
        return BaseMeasure("determinantal", m, A=A)

    @staticmethod
    def explicit(matroid, table):
        return BaseMeasure("explicit-table", matroid, table=table)

    def family(self):
        """`family_of` the bases (the table's, else the matroid's) at their
        exact masses, one `mass` per base; built on the first call."""
        if self._family is None:
            bases = self.matroid.bases() if self.table is None else self.table
            if self.kind == "uniform":
                self.table = dict.fromkeys(bases, R(1, len(bases)))
            self._family = family_of({B: self.mass(B) for B in bases}, self.matroid.n)
        return self._family

    def mass(self, B):
        """Normalized mu0(B)."""
        B = frozenset(B)
        if self.kind == "determinantal":
            cols = sorted(B)
            sub = [[row[c] for c in cols] for row in self.A]
            return det_bareiss(_mat_mul_t(sub, sub)) / self.gram_det
        if self.table is None:
            self.family()           # a uniform measure's table comes with its family
        return self.table.get(B, 0)

    def to_table(self):
        return dict(zip(*self.family()[:2]))


def family_of(table, n):
    """(the sets of a {set: mass} table in lexicographic order, their masses,
    the read-only bool set x element incidence over n elements)."""
    sets = sorted(table, key=sorted)
    inc = np.array([[e in S for e in range(n)] for S in sets], dtype=bool).reshape(len(sets), n)
    inc.flags.writeable = False
    return sets, [table[S] for S in sets], inc


def _mat_mul_t(A, B):
    """A @ B^T for row-major exact matrices."""
    return [[sum(a * b for a, b in zip(ra, rb)) for rb in B] for ra in A]


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

_ENV_BACKENDS = {"enumeration", "matching-recursion", "ksym-dp"}
# the base-measure kind each closed-form backend evaluates
_BACKEND_MEASURE = {"matrix-tree": "uniform", "cauchy-binet": "determinantal"}


class CountingOracle:
    def __init__(self, backend, env=None, base=None, mode="double"):
        if mode not in ("double", "rational"):
            raise ValueError("mode must be 'double' or 'rational'")
        self.backend = backend
        self.env = env
        self.base = base
        self.mode = mode
        # the mode's unit and zero
        self._one, self._zero = (R(1), R(0)) if mode == "rational" else (1.0, 0.0)

        if base is not None:
            if backend != "enumeration" and backend not in _BACKEND_MEASURE:
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

        self._inc = None            # enumeration: the float incidence `_log_masses` builds
        self._last_tilt = None      # (weights' bytes, _tilt's result) of the last tilt
        if backend in _BACKEND_MEASURE:
            # the determinantal measure's r x n matrix A in the mode's numbers,
            # and det(A A^T) (its log in double mode)
            if backend == "matrix-tree":
                m = base.matroid
                if m.variant != "graphic":
                    raise ValueError("matrix-tree needs a graphic matroid")
                A = np.zeros((m.meta["n_vertices"], self.n), dtype=int)
                for e, (u, v) in enumerate(m.meta["edges"]):
                    A[u, e] += 1
                    A[v, e] -= 1        # a loop's column stays zero
                A = A[1:]
            else:
                A = np.array(base.A, dtype=object)
            self._A = A.astype(object if mode == "rational" else float)
            gram = self._A @ self._A.T
            if mode == "rational":
                self._gram = det_bareiss(gram.tolist())
                singular = self._gram == 0
            else:
                sign, self._gram = det_double(gram)
                singular = sign <= 0
            if singular:            # matrix-tree: the graph is disconnected
                raise SingularRepresentationError("A A^T is singular")

    # -- enumeration support ---------------------------------------------

    def _family(self):
        """(the read-only bool set x element incidence, the exact mu0 of each
        set) of the enumerated family: a base measure's, or an environment's
        with mu0 = 1."""
        if self.base is not None:
            _, m0, inc = self.base.family()
            return inc, m0
        inc = self.env.incidence()
        return inc, [R(1)] * len(inc)

    def _masses_rational(self, w):
        """Exact mu0(S) w^S for every enumerated set S, in family order.
        With no base measure mu0(S) = 1, and w^S = w^P w_m along the
        family's parent pointers (P = S - m, m = max(S)); a base measure's
        masses multiply over each incidence row's elements."""
        if self.base is None:
            masses = [R(1)]
            for P, m in self.env.family().levels:
                masses += [masses[p] * w[e] for p, e in zip(P.tolist(), m.tolist())]
            return masses
        inc, m0 = self._family()
        masses = list(map(as_rational, m0))
        for p, f in zip(*(a.tolist() for a in np.nonzero(inc))):
            masses[p] *= w[f]
        return masses

    def _log_masses(self, w):
        """log mu0(S) + sum_{e in S} log w_e for every enumerated set S.

        Sets holding a weight <= 0 get -inf.  The masking pass only runs
        when some weight is <= 0: the dual solvers call this with positive
        weights on every step.
        """
        if self._inc is None:
            inc, m0 = self._family()
            self._inc = inc.astype(float)
            # log mu0: 0 on an environment's family, where mu0 = 1
            self._logm0 = np.zeros(len(inc)) if self.base is None else np.array(
                [math.log(float(v)) if float(v) > 0 else -np.inf for v in m0])
        w = np.asarray(w, dtype=float)
        pos = w > 0
        if pos.all():
            return self._inc @ np.log(w) + self._logm0
        logmass = self._inc @ np.log(np.where(pos, w, 1.0)) + self._logm0
        logmass[self._inc @ ~pos > 0] = -np.inf
        return logmass

    def _tilt(self, w):
        """(log Z, per-set probabilities) of the w-tilted family; (-inf, None)
        for Z = 0.  The last evaluation is kept, keyed on the weights' bytes,
        so the dual's value, marginals and second moments at one iterate
        share one tilt; its probabilities are read-only."""
        key = np.asarray(w, dtype=float).tobytes()
        if self._last_tilt is None or self._last_tilt[0] != key:
            lz, p = _log_normalise(self._log_masses(w))
            if p is not None:
                p.flags.writeable = False
            self._last_tilt = key, (lz, p)
        return self._last_tilt[1]

    def _set_probs(self, w):
        lz, p = self._tilt(w)
        if p is None:
            raise ZeroDivisionError("every set has zero mass under w")
        return p

    # -- core evaluation: plain value in rational mode, log in double -----

    def _weights(self, w):
        """w checked for length, as one array of the mode's numbers: floats
        in double mode (a float array passes through as it is), rationals
        in an object array in rational mode."""
        if len(w) != self.n:
            raise ValueError("weight vector length mismatch")
        if self.mode == "double":
            return np.asarray(w, dtype=float)
        return np.array([as_rational(v) for v in w], dtype=object)

    def _value(self, s):
        """s in the mode's output form: s itself in rational mode, log(s) in
        double mode (-inf for s <= 0)."""
        if self.mode == "rational":
            return s
        return math.log(s) if s > 0 else -math.inf

    def _g(self, w, I=(), J=()):
        """Z(w) of weights w as `_weights` gives them, summed over the sets
        that hold all of I and none of J (disjoint), as `_value` gives it."""
        I, J = list(I), list(J)
        if self.backend == "enumeration":
            if self.mode == "double" and not (I or J):
                return self._tilt(w)[0]
            inc, _ = self._family()
            keep = inc[:, I].all(1) & ~inc[:, J].any(1)
            if self.mode == "rational":
                return sum(compress(self._masses_rational(w), keep), R(0))
            return _log_normalise(self._log_masses(w)[keep])[0]
        rest = [i for i in range(self.n) if i not in I and i not in J]
        one, zero = self._one, self._zero
        rational = self.mode == "rational"
        # w^I: a product in rational mode, a sum of logs in double mode,
        # where the product may leave float range
        w_in = math.prod(w[I].tolist(), start=one) if rational else _log_prod(w[I].tolist())
        if self.backend in _BACKEND_MEASURE:
            # sum_{B >= I, B & J = {}} det(A_B)^2 w^B / det(A A^T)
            #   = (-1)^|I| w^I det [[A_R W_R A_R^T, A_I], [A_I^T, 0]] / det(A A^T)
            A, d = self._A, len(I)
            K = (A[:, rest] * w[rest]) @ A[:, rest].T
            if d:
                K = np.block([[K, A[:, I]], [A[:, I].T, np.zeros((d, d), dtype=A.dtype)]])
            if rational:
                return (-1) ** d * w_in * det_bareiss(K.tolist()) / self._gram
            sign, logdet = det_double(K)
            if (-1) ** d * sign <= 0:
                return -math.inf
            return logdet + w_in - self._gram
        if self.backend == "ksym-dp":
            k, ws = self.env.meta["k"] - len(I), w[rest]
            if rational:
                return w_in * sum(_esym(ws.tolist(), k, one, zero), zero)
            # e_j(w) = M^j e_j(w / M) with M = max(w, 1) keeps the DP in float range
            M = float(ws.max(initial=1.0))
            log_e = [j * math.log(M) + self._value(v)
                     for j, v in enumerate(_esym((ws / M).tolist(), k, one, zero))]
            return w_in + _log_normalise(np.array(log_e))[0]
        # matching-recursion: I must be a matching; then drop every edge touching it
        edges = self.env.meta["edges"]
        ends = [v for i in I for v in edges[i]]
        if len(set(ends)) < len(ends):
            return self._value(zero)
        free = frozenset(i for i in rest if set(ends).isdisjoint(edges[i]))
        if rational:
            return w_in * _mp_rec(free, edges, w.tolist(), one, {}, False)
        logw = [math.log(v) if v > 0 else -math.inf for v in w.tolist()]
        return w_in + _mp_rec(free, edges, logw, 0.0, {}, True)

    # -- public operations -------------------------------------------------

    def partition(self, w):
        return self._g(self._weights(w))

    def marginal_sum(self, w, e):
        """Z restricted to sets containing e (= w_e dZ/dw_e)."""
        return self._g(self._weights(w), [e])

    def _ratio(self, num, z):
        """num / z of two values in `_value`'s form, as a probability."""
        if self.mode == "rational":
            return num / z
        return 0.0 if num == -math.inf else math.exp(num - z)

    def marginal_probability(self, w, e):
        """P[e in S] under the w-tilted measure."""
        return self._ratio(self.marginal_sum(w, e), self.partition(w))

    def marginals(self, w):
        if self.backend == "enumeration" and self.mode == "double":
            p = self._set_probs(w)          # builds self._inc on the first call
            return self._inc.T @ p
        w = self._weights(w)
        z = self.partition(w)
        return np.array([float(self._ratio(self._g(w, [e]), z)) for e in range(self.n)])

    def second_moments(self, w):
        """Matrix M with M[e,f] = P[e in S and f in S]."""
        if self.backend == "enumeration" and self.mode == "double":
            p = self._set_probs(w)
            return self._inc.T @ (self._inc * p[:, None])
        w = self._weights(w)
        z = self._g(w)
        M = np.empty((self.n, self.n))
        for e in range(self.n):
            for f in range(e, self.n):
                M[e, f] = M[f, e] = float(self._ratio(self._g(w, sorted({e, f})), z))
        return M

    def pinned(self, w, I=(), J=()):
        """Sum over sets containing all of I and none of J, in the form
        `partition` returns: a log-magnitude in double mode."""
        I, J = set(I), set(J)
        if I & J:
            raise ValueError("include and exclude sets must be disjoint")
        return self._g(self._weights(w), sorted(I), sorted(J))

    def constrained_count(self, w, I, J):
        """`pinned` as a plain number: a float in double mode, which
        overflows past e^709."""
        val = self.pinned(w, I, J)
        return val if self.mode == "rational" else math.exp(val)

    def conditional(self, num, den):
        """num / den of two `pinned` values as a float probability, taken
        from the logs in double mode; ZeroDivisionError when den is zero."""
        if den == self._value(self._zero):
            raise ZeroDivisionError("zero pinned count")
        return float(self._ratio(num, den))

    def thinned_mass(self, w, tau, T):
        """mu*(T) of the base measure thinned by tau: prod_{i in T} tau_i times
        Z over the bases holding T at weights w on T and w (1 - tau) off T,
        over Z(w)."""
        T = sorted(set(T))
        w, tau = self._weights(w), self._weights(tau)
        wt = w * (1 - tau)
        wt[T] = w[T]
        tt = math.prod(tau[T].tolist(), start=self._one)
        return tt * self._ratio(self._g(wt, T), self._g(w))


def _log_normalise(logmass):
    """(log sum e^logmass, e^logmass / that sum); (-inf, None) when the sum is 0."""
    m = logmass.max(initial=-math.inf)
    if m == -math.inf:
        return -math.inf, None
    p = np.exp(logmass - m)
    s = p.sum()
    return float(m) + math.log(s), p / s


# ---------------------------------------------------------------------------
# backend kernels
# ---------------------------------------------------------------------------

def _matching_partition(edges, w, one):
    """Matching generating polynomial via Z(G) = Z(G-e) + w_e Z(G-u-v)."""
    return _mp_rec(frozenset(range(len(edges))), edges, w, one, {}, False)


def _mp_rec(key, edges, w, one, memo, log):
    """Matching polynomial of the edges indexed by `key`; with `log` set, w
    holds log-weights, `one` is 0.0 and the result is the polynomial's log."""
    if not key:
        return one
    if key in memo:
        return memo[key]
    e = min(key)
    u, v = edges[e]
    rest = key - {e}
    # delete e
    val = _mp_rec(rest, edges, w, one, memo, log)
    # take e: drop everything touching u or v
    rest2 = frozenset(i for i in rest if u not in edges[i] and v not in edges[i])
    take = _mp_rec(rest2, edges, w, one, memo, log)
    val = _log_add(val, w[e] + take) if log else val + w[e] * take
    if len(memo) < MATCHING_MEMO_CAP:
        memo[key] = val
    return val


def _log_add(a, b):
    """log(e^a + e^b) of two floats, either of them possibly -inf."""
    if a < b:
        a, b = b, a
    if b == -math.inf:
        return a
    return a + math.log1p(math.exp(b - a))


def _esym(w, k, one, zero):
    """Elementary symmetric polynomials [e_0, ..., e_k] of w; [] for k < 0."""
    if k < 0:
        return []
    dp = [zero] * (k + 1)
    dp[0] = one
    for x in w:
        for j in range(min(k, len(w)), 0, -1):
            dp[j] = dp[j] + dp[j - 1] * x
    return dp


def _log_prod(values):
    """log of a product of floats as a sum of logs, since the product itself
    may leave float range; -inf when a factor is <= 0."""
    values = list(values)
    if any(v <= 0 for v in values):
        return -math.inf
    return sum(math.log(v) for v in values)
