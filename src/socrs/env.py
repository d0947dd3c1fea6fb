"""Ground sets, downward-closed feasibility environments, and matroids.

Elements are dense integer ids 0..n-1.  An Environment bundles a ground set
with a feasibility test for one of the supported constraint families
(matchings on graphs, hypergraph matchings, k-uniform, matroid independence).
Its feasible family is enumerated once, level by level as arrays, and
indexed by position (`Environment.family()`): the incidence matrix, the
down/up move tables and the stationary caps every exact reader works on.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress
from fractions import Fraction
from dataclasses import dataclass, field

import numpy as np


class EnvironmentError_(ValueError):
    """Raised for malformed environments or out-of-range elements."""


class EnumerationBudgetError(RuntimeError):
    """Raised when a feasible family is too large for enumeration."""


ENUMERATION_CAP = 2_000_000
ORACLE_BLOCK = 4096     # most oracle calls between two budget checks (one set's if n is more)
# elements up to which a dense table over all 2^n subsets is built: the rank
# table and the Rayleigh pipeline's subset transform
SUBSET_TABLE_MAX_N = 20
PIVOT_TOL = 1e-9        # float rank: smaller pivots are zero, within 10x ambiguous
FACE_TOL = 1e-12        # a point this close to a face of a polytope lies on it


class IllConditionedMatrixError(RuntimeError):
    """Pivot magnitude fell into the ambiguous band [PIVOT_TOL/10, PIVOT_TOL)."""


# ---------------------------------------------------------------------------
# Matroids
# ---------------------------------------------------------------------------

class Matroid:
    """A matroid given by a rank oracle.

    variant is one of "uniform", "graphic", "linear", "explicit".
    """

    def __init__(self, n, variant, rank_fn, meta=None):
        self.n = n
        self.variant = variant
        self._rank = rank_fn
        self.meta = meta or {}
        self.rank_total = rank_fn(frozenset(range(n)))
        self._bases = None
        self._rank_table = None

    def rank(self, T):
        T = frozenset(T)
        for e in T:
            if not (0 <= e < self.n):
                raise EnvironmentError_(f"element {e} out of range [0,{self.n})")
        return self._rank(T)

    def is_independent(self, T):
        T = frozenset(T)
        return self.rank(T) == len(T)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def uniform(n, k):
        if not (0 <= k <= n):
            raise EnvironmentError_("uniform matroid needs 0 <= k <= n")
        return Matroid(n, "uniform", lambda T: min(len(T), k), {"k": k})

    @staticmethod
    def graphic(n_vertices, edges):
        """Graphic matroid of a multigraph; elements are edge indices."""
        edges = [tuple(e) for e in edges]
        for (u, v) in edges:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise EnvironmentError_("edge endpoint out of range")

        def rank(T):
            # incremental cycle detection with union-find
            parent = list(range(n_vertices))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            r = 0
            for e in sorted(T):
                u, v = edges[e]
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    r += 1
            return r

        return Matroid(len(edges), "graphic",
                       rank, {"n_vertices": n_vertices, "edges": edges})

    @staticmethod
    def linear(A):
        """Linear matroid of the columns of A (r x n).

        Integer/rational entries get exact rational elimination; floats use
        partial pivoting with tolerance PIVOT_TOL, flagging ambiguous pivots.
        """
        rows = [list(row) for row in A]
        ncols = len(rows[0]) if rows else 0
        exact = all(
            isinstance(v, (int, Fraction)) or float(v).is_integer()
            for row in rows for v in row
        )

        def rank(T):
            cols = sorted(T)
            if not cols:
                return 0
            if exact:
                M = [[Fraction(row[c]) for c in cols] for row in rows]
                return _rational_rank(M)
            M = [[float(row[c]) for c in cols] for row in rows]
            return _float_rank(M)

        return Matroid(ncols, "linear", rank, {"A": rows, "exact": exact})

    @staticmethod
    def explicit(n, independent_sets):
        """Matroid from an explicit table of independent sets."""
        table = {frozenset(s) for s in independent_sets}
        if frozenset() not in table:
            raise EnvironmentError_("explicit matroid must contain the empty set")

        def rank(T):
            T = frozenset(T)
            return max(len(I) for I in table if I <= T)

        return Matroid(n, "explicit", rank, {"independent_sets": table})

    def rank_table(self):
        """(member, ranks) over the nonempty subsets of the ground set, the
        i-th being the bitmask i + 1: member[e, i] tells whether e lies in it
        and ranks[i] is its rank.  Built on the first call, read-only;
        raises EnumerationBudgetError beyond SUBSET_TABLE_MAX_N elements."""
        if self._rank_table is None:
            n = self.n
            if n > SUBSET_TABLE_MAX_N:
                raise EnumerationBudgetError(
                    f"rank table limited to n <= {SUBSET_TABLE_MAX_N} elements (n = {n})")
            masks = np.arange(1, 1 << n, dtype=np.int64)
            member = np.array([(masks >> e) & 1 for e in range(n)], dtype=bool)
            ranks = np.array([self._rank(frozenset(e for e in range(n) if mask >> e & 1))
                              for mask in range(1, 1 << n)], dtype=np.int64)
            member.flags.writeable = ranks.flags.writeable = False
            self._rank_table = member, ranks
        return self._rank_table

    def subset_sums(self, x):
        """sum_{e in T} x_e for every subset T of the rank table, added in
        element order as a Python sum over T would add them."""
        member, _ = self.rank_table()
        acc = np.zeros(member.shape[1])
        for e, v in enumerate(x):
            acc += v * member[e]
        return acc

    def bases(self):
        """All bases (independent sets of full rank), enumerated on the first call."""
        if self._bases is None:
            env = matroid_environment(self)
            self._bases = [S for S in env.enumerate_feasible() if len(S) == self.rank_total]
        return list(self._bases)


def _rational_rank(M):
    nrows, ncols = len(M), len(M[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = M[r][c]
        for i in range(r + 1, nrows):
            if M[i][c] != 0:
                f = M[i][c] / inv
                for j in range(c, ncols):
                    M[i][j] -= f * M[r][j]
        r += 1
    return r


def _float_rank(M):
    nrows, ncols = len(M), len(M[0])
    r = 0
    for c in range(ncols):
        piv = max(range(r, nrows), key=lambda i: abs(M[i][c]), default=None)
        if piv is None or r >= nrows:
            break
        mag = abs(M[piv][c])
        if PIVOT_TOL / 10 <= mag < PIVOT_TOL:
            raise IllConditionedMatrixError(
                f"pivot magnitude {mag:.3e} inside ambiguity band "
                f"[{PIVOT_TOL/10:.1e},{PIVOT_TOL:.1e})")
        if mag < PIVOT_TOL:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, nrows):
            f = M[i][c] / M[r][c]
            for j in range(c, ncols):
                M[i][j] -= f * M[r][j]
        r += 1
    return r


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------

class Environment:
    """n elements plus a downward-closed feasibility oracle.

    `edges`, when given, lists each element's vertices, for families whose
    feasible sets are exactly the sets of vertex-disjoint elements
    (matchings): the enumeration then filters its candidates by which
    elements share a vertex instead of calling the oracle.
    """

    def __init__(self, n, kind, feasible_fn, meta=None, edges=None):
        self.n = n
        self.kind = kind
        self._feasible = feasible_fn
        self.meta = meta or {}
        self._edges = edges
        self._levels = None
        self._inc = None
        self._family = None

    def is_feasible(self, S):
        S = frozenset(S)
        for e in S:
            if not (0 <= e < self.n):
                raise EnvironmentError_(f"element {e} out of range [0,{self.n})")
        return self._feasible(S)

    def enumerate_feasible(self, cap=ENUMERATION_CAP):
        """All feasible sets, sorted by size then lexicographically.

        Built level by level on the first call and cached.  Level k+1
        extends each level-k set S, in order, by each feasible extension
        e > max(S), ascending, which is (size, lex) order.  By downward
        closure S + e is feasible only if e extends S's parent too, so the
        candidates are the parent's extensions beyond max(S); the
        shares-a-vertex matrix filters them, or else the oracle, one call
        per candidate.  Raises EnumerationBudgetError once the family
        exceeds `cap`: before a level's sets are built when they are known
        from the matrix, and after at most one block of oracle calls past
        the cap otherwise.
        """
        if self._levels is None:
            self._levels = self._enumerate(cap)
        sets = self._levels[0]
        if len(sets) > cap:
            raise _budget_error(cap)
        return list(sets)

    def _enumerate(self, cap):
        """(sets, levels): the family in order and, for each level above
        the empty set, the positions of S - max(S) and max(S) of its sets."""
        n = self.n
        allow = np.arange(n) > np.arange(n)[:, None]        # allow[e, f]: f may follow e
        if self._edges is not None:                         # and shares no vertex with e
            rows, cols, vertex = [], [], {}
            for e, verts in enumerate(self._edges):
                for v in verts:
                    rows.append(e)
                    cols.append(vertex.setdefault(v, len(vertex)))
            on = np.zeros((n, len(vertex)), dtype=np.float32)   # exact: counts stay small
            on[rows, cols] = 1
            allow &= on @ on.T == 0
        sets, levels, lo = [frozenset()], [], 0     # lo: where the last level begins
        ext = np.ones((1, n), dtype=bool)   # the candidates beyond max(S) of each set
        while True:
            if self._edges is None:
                level = self._oracle_level(ext, sets, lo, cap)
                rows, cols = np.nonzero(ext)
            else:
                if len(sets) + np.count_nonzero(ext) > cap:
                    raise _budget_error(cap)
                rows, cols = np.nonzero(ext)
                level = [sets[lo + i] | {e} for i, e in zip(rows.tolist(), cols.tolist())]
            if not level:
                return sets, levels
            levels.append((lo + rows, cols))
            lo = len(sets)
            sets += level
            ext = ext[rows] & allow[cols]

    def _oracle_level(self, ext, sets, lo, cap):
        """The feasible S + e over the candidates `ext` marks for the sets
        from position lo on, one oracle call each, a block of sets at a time;
        `ext` keeps only the feasible.  Raises once the family passes cap."""
        level, step = [], max(1, ORACLE_BLOCK // max(self.n, 1))
        for r0 in range(0, len(ext), step):
            block = ext[r0:r0 + step]           # a view: the answers land in ext
            rows, cols = np.nonzero(block)
            cand = [sets[lo + r0 + i] | {e} for i, e in zip(rows.tolist(), cols.tolist())]
            ok = list(map(self._feasible, cand))
            block[rows, cols] = ok
            level += compress(cand, ok)
            if len(sets) + len(level) > cap:
                raise _budget_error(cap)
        return level

    def incidence(self):
        """inc[p, e]: whether e lies in the p-th set of `enumerate_feasible`,
        a read-only bool matrix built once, level by level from the parent
        pointers (inc[S] = inc[S - max S] + max S), with no move tables."""
        if self._inc is None:
            sets = self._levels[0] if self._levels else self.enumerate_feasible()
            inc = np.zeros((len(sets), self.n), dtype=bool)
            lo = 1
            for P, e in self._levels[1]:
                hi = lo + len(P)
                inc[lo:hi] = inc[P]
                inc[np.arange(lo, hi), e] = True
                lo = hi
            inc.flags.writeable = False
            self._inc = inc
        return self._inc

    def family(self):
        """The enumerated family by position, built once, as a `Family`.

        sets[p] is the p-th set in `enumerate_feasible` order, index its
        inverse, inc the `incidence()`, and position len(sets) a sentinel
        for every infeasible set.  down[p, e] and up[p, e] are the
        positions of S_p - e and S_p + e (the sentinel's row maps to itself).
        caps = (s, e, t) lists each e in S_s with S_t = S_s - e: each set in
        family order, then e ascending.  The tables are filled level by level
        from parent pointers: with P = S - max(S), S - max(S) is P and
        S - a = (P - a) + max(S) for the other a in S.
        """
        if self._family is None:
            sets = self.enumerate_feasible()
            inc = self.incidence()
            N = len(sets)
            down = np.repeat(np.arange(N + 1, dtype=np.int32)[:, None], self.n, axis=1)
            up = np.full_like(down, N)
            lo = 1
            for P, e in self._levels[1]:
                hi = lo + len(P)
                s = np.arange(lo, hi)
                block = np.where(inc[P], up[down[P], e[:, None]], s[:, None])
                block[s - lo, e] = P
                down[lo:hi] = block
                r, a = np.nonzero(inc[lo:hi])
                up[down[lo + r, a], a] = up[lo + r, a] = lo + r
                lo = hi
            s, e = np.nonzero(inc)
            caps = np.stack([s, e, down[s, e]]).astype(np.int64)
            self._family = Family(sets, dict(zip(sets, range(N))), down, up, caps, inc)
        return self._family


Family = namedtuple("Family", "sets index down up caps inc")


def _budget_error(cap):
    return EnumerationBudgetError(f"feasible family too large for enumeration (cap {cap})")


def _disjoint_edges(edge_vertices, S):
    seen = set()
    for e in S:
        for v in edge_vertices[e]:
            if v in seen:
                return False
            seen.add(v)
    return True


def _edge_environment(n, kind, edges, meta):
    """Disjoint-edge environment over `edges` (vertex tuples); an edge
    repeating a vertex is refused."""
    for e, verts in enumerate(edges):
        if len(set(verts)) != len(verts):
            raise EnvironmentError_(f"edge {e} = {list(verts)} repeats a vertex")
    return Environment(n, kind, lambda S: _disjoint_edges(edges, S), meta, edges=edges)


def matching_environment(edges, n_vertices=None, sides=None):
    """Matchings of a graph.  Elements are edge indices.

    `sides`, when given, labels each vertex 0/1 and marks the environment
    bipartite (every edge must cross).  A loop (u, u) raises.
    """
    edges = [tuple(e) for e in edges]
    if n_vertices is None:
        n_vertices = 1 + max((max(e) for e in edges), default=-1)
    kind = "general-matching"
    if sides is not None:
        for (u, v) in edges:
            if sides[u] == sides[v]:
                raise EnvironmentError_(f"edge ({u},{v}) does not cross the bipartition")
        kind = "bipartite-matching"
    return _edge_environment(len(edges), kind, edges,
                             {"edges": edges, "n_vertices": n_vertices, "sides": sides})


def hypergraph_matching_environment(edges):
    """Hypergraph matchings: edges are vertex lists, feasibility is disjointness.

    The rank bound L (max edge size) is derived from the edge lists.  An
    edge repeating a vertex raises.
    """
    edges = [tuple(sorted(e)) for e in edges]
    L = max((len(e) for e in edges), default=0)
    return _edge_environment(len(edges), "hypergraph-matching", edges,
                             {"edges": edges, "L": L})


def k_uniform_environment(n, k):
    return Environment(n, "k-uniform", lambda S: len(S) <= k, {"k": k})


def matroid_environment(m):
    return Environment(m.n, "matroid", m.is_independent, {"matroid": m})


# ---------------------------------------------------------------------------
# Activation vectors and polytope membership
# ---------------------------------------------------------------------------

@dataclass
class ActivationVector:
    x: list
    scale: float = 1.0

    def __post_init__(self):
        self.x = [float(v) for v in self.x]
        for v in self.x:
            if not (0.0 < v <= 1.0):
                raise EnvironmentError_("activation probabilities must lie in (0,1]")


@dataclass
class MembershipReport:
    status: str                     # inside-relint | boundary | outside | undetermined
    failed_constraint: str = ""
    detail: dict = field(default_factory=dict)


def _vertex_loads(edges, x, n_vertices):
    loads = [0.0] * n_vertices
    for e, verts in enumerate(edges):
        for v in verts:
            loads[v] += x[e]
    return loads


def check_membership(env, x):
    """Locate x relative to the feasibility polytope conv{1_S : S feasible}.

    Necessary conditions (vertex loads, size sums, rank constraints) are
    checked exactly where available; environments whose polytope has no known
    complete inequality description at this desk scale report "undetermined"
    when the necessary conditions pass strictly.
    """
    if isinstance(x, ActivationVector):
        x = x.x
    x = [float(v) for v in x]
    if len(x) != env.n:
        raise EnvironmentError_("activation vector length mismatch")
    tol = FACE_TOL
    for e, v in enumerate(x):
        if v < -tol:
            return MembershipReport("outside", f"x_{e} < 0", {"e": e})

    hit_boundary = any(abs(v - 1.0) <= tol for v in x) or any(abs(v) <= tol for v in x)

    if env.kind in ("general-matching", "bipartite-matching", "hypergraph-matching"):
        edges = env.meta["edges"]
        n_vertices = env.meta.get("n_vertices")
        if n_vertices is None:
            n_vertices = 1 + max(v for e in edges for v in e)
        loads = _vertex_loads(edges, x, n_vertices)
        worst = max(range(len(loads)), key=lambda v: loads[v], default=None)
        if worst is not None and loads[worst] > 1.0 + tol:
            return MembershipReport("outside", f"vertex {worst} load {loads[worst]:.6f} > 1",
                                    {"vertex": worst, "load": loads[worst]})
        tight = worst is not None and loads[worst] >= 1.0 - tol
        if env.kind == "bipartite-matching":
            # the bipartite matching polytope is exactly the load polytope
            if tight or hit_boundary:
                return MembershipReport("boundary")
            return MembershipReport("inside-relint")
        # odd-set / packing constraints are not certified here, so we never
        # promote to inside-relint or boundary on necessary conditions alone
        if tight or hit_boundary:
            return MembershipReport("undetermined", "load tight (necessary conditions only)")
        return MembershipReport("undetermined", "necessary conditions pass strictly")

    if env.kind == "k-uniform":
        k = env.meta["k"]
        s = sum(x)
        if s > k + tol:
            return MembershipReport("outside", f"sum {s:.6f} > k={k}")
        if s >= k - tol or hit_boundary:
            return MembershipReport("boundary")
        return MembershipReport("inside-relint")

    if env.kind == "matroid":
        m = env.meta["matroid"]
        try:
            member, ranks = m.rank_table()
        except EnumerationBudgetError:
            return MembershipReport("undetermined", "ground set too large for rank enumeration")
        sx = m.subset_sums(x)
        over = np.flatnonzero(sx > ranks + tol)
        if over.size:
            i = over[0]
            T = [e for e in range(m.n) if member[e, i]]
            return MembershipReport("outside", f"rank constraint on {T}",
                                    {"T": T, "sum": float(sx[i]), "rank": int(ranks[i])})
        tight = bool(np.any(sx >= ranks - tol))
        return MembershipReport("boundary" if tight or hit_boundary else "inside-relint")

    return MembershipReport("undetermined", f"unknown kind {env.kind}")
