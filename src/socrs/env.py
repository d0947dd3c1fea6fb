"""Ground sets, downward-closed feasibility environments, and matroids.

Elements are dense integer ids 0..n-1.  An Environment bundles a ground set
with a feasibility test for one of the supported constraint families
(matchings on graphs, hypergraph matchings, k-uniform, matroid independence).
Its feasible family is enumerated once, level by level, as parent pointers
(`Environment.family()`), and indexed by position: the incidence matrix,
the down/up move tables and the stationary caps every exact reader works on
are built from those pointers, and so are the family's sets as frozensets,
but only when something reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress

import numpy as np


class EnvironmentError_(ValueError):
    """Raised for malformed environments or out-of-range elements."""


class EnumerationBudgetError(RuntimeError):
    """Raised when a feasible family is too large for enumeration."""


ENUMERATION_CAP = 2_000_000
ORACLE_BLOCK = 4096     # most oracle calls between two budget checks (one set's if n is more)
# elements up to which a dense table over all 2^n subsets, indexed by bitmask
# (`subset_table_size`), is built: ranks, subset sums and the Rayleigh subset transform
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
        """ranks[mask]: the rank of every subset of the ground set by bitmask,
        ranks[0] = 0.  Built on the first call, read-only; beyond
        SUBSET_TABLE_MAX_N elements `subset_table_size` raises."""
        if self._rank_table is None:
            size = subset_table_size(self.n)
            if self.variant == "graphic":
                ranks = _graphic_ranks(self.meta["edges"])
            else:
                ranks = np.array([self._rank(frozenset(e for e in range(self.n) if mask >> e & 1))
                                  for mask in range(size)], dtype=np.int64)
            ranks.flags.writeable = False
            self._rank_table = ranks
        return self._rank_table

    def subset_sums(self, x):
        """sums[mask] = sum_{e in T} x_e for every subset T by bitmask, built
        one element at a time as `_graphic_ranks` is, so each sum adds T's
        elements in ascending order as a Python sum over sorted(T) would."""
        if len(x) != self.n:
            raise ValueError(f"subset sums need {self.n} values, got {len(x)}")
        sums = np.zeros(subset_table_size(self.n))
        for e, v in enumerate(np.asarray(x, dtype=float)):
            sums[1 << e:2 << e] = sums[:1 << e] + v
        return sums

    def bases(self):
        """All bases (independent sets of full rank), enumerated on the first call."""
        if self._bases is None:
            env = matroid_environment(self)
            self._bases = [S for S in env.enumerate_feasible() if len(S) == self.rank_total]
        return list(self._bases)


def subset_table_size(n):
    """2^n, the length of a dense table over every subset of n elements, by
    bitmask; raises EnumerationBudgetError beyond SUBSET_TABLE_MAX_N."""
    if n > SUBSET_TABLE_MAX_N:
        raise EnumerationBudgetError(
            f"subset table limited to n <= {SUBSET_TABLE_MAX_N} elements (n = {n})")
    return 1 << n


def element_pairs(table, e):
    """A view of a mask-indexed table (last axis) as (..., 2^(n-e-1), 2, 2^e):
    [..., 1, :] are the subsets holding e and [..., 0, :] the same subsets
    without e, both in mask order."""
    return table.reshape(table.shape[:-1] + (-1, 2, 1 << e))


def _edge_ends(edges):
    """(u, v, nv): each edge's endpoints as two index arrays, the nv vertices
    the edges touch numbered 0..nv-1 in sorted order."""
    index = {v: i for i, v in enumerate(sorted({v for edge in edges for v in edge}))}
    u, v = np.array([[index[a] for a in edge] for edge in edges], dtype=np.intp).reshape(-1, 2).T
    return u, v, len(index)


def _graphic_ranks(edges):
    """Rank of every edge subset of a multigraph, indexed by bitmask, built
    one edge at a time: the masks in [2^e, 2^(e+1)) are those in [0, 2^e)
    plus edge e, whose rank rises by one when e joins two components.  Each
    mask keeps a component label per vertex the edges touch."""
    n = len(edges)
    ends_u, ends_v, nv = _edge_ends(edges)
    ranks = np.zeros(1 << n, dtype=np.int64)
    labels = np.empty((1 << max(n - 1, 0), nv), dtype=np.min_scalar_type(nv))
    labels[0] = np.arange(nv)
    for e, (u, v) in enumerate(zip(ends_u, ends_v)):
        lab = labels[:1 << e]
        lu, lv = lab[:, u, None], lab[:, v, None]
        ranks[1 << e:2 << e] = ranks[:1 << e] + (lu != lv)[:, 0]
        if e + 1 < n:       # e merges u's component into v's
            labels[1 << e:2 << e] = np.where(lab == lu, lv, lab)
    return ranks


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
        self._family = None

    def is_feasible(self, S):
        S = frozenset(S)
        for e in S:
            if not (0 <= e < self.n):
                raise EnvironmentError_(f"element {e} out of range [0,{self.n})")
        return self._feasible(S)

    def enumerate_feasible(self, cap=None):
        """All feasible sets, sorted by size then lexicographically: the
        enumerated family's `sets`."""
        return list(self.family(cap).sets)

    def incidence(self):
        """The enumerated family's incidence matrix `Family.inc`."""
        return self.family().inc

    def family(self, cap=None):
        """The enumerated family by position, as a `Family` whose tables
        (sets, index, inc, down, up, caps) are built on their first read.

        Enumerated level by level on the first call and cached.  Level k+1
        extends each level-k set S, in order, by each feasible extension
        e > max(S), ascending, which is (size, lex) order.  By downward
        closure S + e is feasible only if e extends S's parent too, so the
        candidates are the parent's extensions beyond max(S); the
        shares-a-vertex matrix filters them, or for a graphic matroid the
        component labels each set keeps per vertex (e must join two of S's
        components), or else the oracle, one call per candidate set (which
        the family then keeps as its sets).
        Raises EnumerationBudgetError once the family exceeds `cap`
        (ENUMERATION_CAP when None, read at call time): before a level is
        built when it is known from the matrix, and after at most one block
        of oracle calls past the cap otherwise.
        """
        cap = ENUMERATION_CAP if cap is None else cap
        if self._family is None:
            self._family = self._enumerate(cap)
        if len(self._family) > cap:
            raise _budget_error(cap)
        return self._family

    def _enumerate(self, cap):
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
        m = self.meta.get("matroid")
        labels = None           # graphic: a component label per vertex of each set
        if m is not None and m.variant == "graphic":
            u, v, nv = _edge_ends(m.meta["edges"])
            labels = np.arange(nv, dtype=np.min_scalar_type(nv))[None]
        # the oracle's candidates are sets, so its family keeps them
        sets = [frozenset()] if self._edges is None and labels is None else None
        size, levels, lo = 1, [], 0     # lo: where the last level begins
        ext = np.ones((1, n), dtype=bool)   # the candidates beyond max(S) of each set
        while True:
            if sets is not None:
                sets += self._oracle_level(ext, sets, lo, cap)
            else:
                if labels is not None:      # S + e is a forest: e joins two components
                    ext &= labels[:, u] != labels[:, v]
                if size + np.count_nonzero(ext) > cap:
                    raise _budget_error(cap)
            rows, cols = np.nonzero(ext)
            if not len(rows):
                return Family(n, levels, sets)
            levels.append((lo + rows, cols))
            lo = size
            size += len(rows)
            if labels is not None:          # e merges u's component into v's
                lab = labels[rows]
                at = np.arange(len(rows))
                lu, lv = lab[at, u[cols], None], lab[at, v[cols], None]
                labels = np.where(lab == lu, lv, lab)
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


class Family:
    """An enumerated feasible family by position, built from parent pointers.

    Position p holds the p-th set S_p in `enumerate_feasible` order, and
    position len(family) is a sentinel for every infeasible set.  `levels`
    lists, for each level above the empty set, the positions of
    P = S - max(S) and the elements max(S) of its sets.  Each table is built
    from them on its first read, and is read-only:

    - sets[p] = S_p as a frozenset, and index its inverse (an oracle's
      enumeration keeps its candidate sets instead);
    - inc[p, e]: whether e lies in S_p, as inc[S] = inc[P] + max(S);
    - caps = (s, e, t): each e in S_s with S_t = S_s - e, each set in family
      order, then e ascending.  S - max(S) is P, and S - a = (P - a) + max(S)
      for the other a in S;
    - down[p, e] and up[p, e]: the positions of S_p - e and S_p + e,
      scattered from the caps (the sentinel's row maps to itself).

    The family holds no reference to its environment, so the two form no
    reference cycle.
    """

    def __init__(self, n, levels, sets=None):
        self.n = n
        self.levels = levels
        self._size = 1 + sum(len(P) for P, _ in levels)
        if sets is not None:
            self.sets = sets

    def __len__(self):
        return self._size

    @cached_property
    def sets(self):
        sets = [frozenset()]
        for P, e in self.levels:
            sets += [sets[p] | {v} for p, v in zip(P.tolist(), e.tolist())]
        return sets

    @cached_property
    def index(self):
        return dict(zip(self.sets, range(len(self))))

    @cached_property
    def inc(self):
        inc = np.zeros((len(self), self.n), dtype=bool)
        lo = 1
        for P, e in self.levels:
            hi = lo + len(P)
            inc[lo:hi] = inc[P]
            inc[np.arange(lo, hi), e] = True
            lo = hi
        inc.flags.writeable = False
        return inc

    @cached_property
    def caps(self):
        # level by level, the sets' elements E and the positions T of S - E
        # as (sets, level) matrices: a set S = P + m keeps P's caps as
        # (P - a) + m, looked up by (P - a, m) among the last level's sets,
        # and gains (S, m, P)
        n, parts = self.n, []
        E = T = np.zeros((1, 0), dtype=np.intp)     # level 0: the empty set
        child = np.zeros(0, dtype=np.int32)
        start, last, below = 1, 0, 0    # where this level, the last and the one below begin
        for P, m in self.levels:
            rows = P - last
            E = np.hstack([E[rows], m[:, None]])
            T = np.hstack([child[(T[rows] - below) * n + m[:, None]], P[:, None]])
            parts.append(np.stack([np.repeat(np.arange(start, start + len(P)), E.shape[1]),
                                   E.ravel(), T.ravel()]))
            # child[i * n + e]: the position of S + e for the last level's
            # i-th set S, where S + e is on this level
            child = np.empty((start - last) * n, dtype=np.int32)
            child[rows * n + m] = np.arange(start, start + len(P))
            below, last, start = last, start, start + len(P)
        caps = (np.concatenate(parts, axis=1) if parts else np.zeros((3, 0))).astype(np.int64)
        caps.flags.writeable = False
        return caps

    @cached_property
    def _moves(self):
        N, (s, e, t) = len(self), self.caps
        down = np.repeat(np.arange(N + 1, dtype=np.int32)[:, None], self.n, axis=1)
        up = np.full_like(down, N)
        down[s, e] = t
        up[t, e] = up[s, e] = s
        down.flags.writeable = up.flags.writeable = False
        return down, up

    @property
    def down(self):
        return self._moves[0]

    @property
    def up(self):
        return self._moves[1]


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
            ranks = m.rank_table()
        except EnumerationBudgetError:
            return MembershipReport("undetermined", "ground set too large for rank enumeration")
        sx = m.subset_sums(x)
        over = np.flatnonzero(sx > ranks + tol)
        if over.size:
            mask = int(over[0])
            T = [e for e in range(m.n) if mask >> e & 1]
            return MembershipReport("outside", f"rank constraint on {T}",
                                    {"T": T, "sum": float(sx[mask]), "rank": int(ranks[mask])})
        tight = bool(np.any(sx[1:] >= ranks[1:] - tol))     # the empty set is always tight
        return MembershipReport("boundary" if tight or hit_boundary else "inside-relint")

    return MembershipReport("undetermined", f"unknown kind {env.kind}")
