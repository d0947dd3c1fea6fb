"""Exact simplex on integer rows for tiny linear programs.

`solve_lp` returns the vertex that Bland's rule (cycling-free; Bland, Math.
Oper. Res. 1977) reaches from the slack basis z = 0, which a nonnegative
right-hand side makes feasible.  It gets there in up to three steps.

The LP form.  Every step reads one form of the LP.  Row i is a sparse
{column: int} dict of its nonzeros, with an int rhs b_i and a positive int
row denominator d_i: the exact row is those ints over d_i.  Beside it, the
guide is a float64 (m, n + 1) array of the exact entries, the rhs in its
last column, each rounded once.  A caller that holds its LP in that form
passes `den=` (the d_i, with the dicts as A_ub and the ints as b_ub) and
`guide=` by keyword; `dist.solve_stationary_lp_exact` builds both from the
family's arrays.  Without them `solve_lp` converts exact-number rows
(sequences or {column: value} dicts) into the form, and builds the guide
from the ints (int / int is correctly rounded, so every guide entry is
float() of the exact value).

Proposal.  The same Bland pivots run on a float64 copy of the guide, the
condensed tableau: the smallest nonbasic variable index with a negative reduced cost
enters, and a ratio tie goes to the smallest basic index, with signs and
ties read to a tolerance of TOL.  This pass only proposes a final basis.  It
decides nothing and never raises.

Certificate.  The proposed basis is checked exactly (Applegate-Cook-Dash-
Espinoza, Oper. Res. Lett. 2007; Gleixner-Steffy-Wolter, INFORMS J. Comput.
2016).  Let S be its basic structural columns and R its tight rows (the
rows whose slack is nonbasic); |R| = |S|.  One sparse elimination on
gcd-reduced integer rows solves A[R,S] z_S = b_R, and one more solves
A[R,S]^T y = c_S.  The basis is accepted iff z_S >= 0, every row has
A_i z <= b_i, y >= 0 and every structural column has A[R,j]^T y >= c_j.
Row denominators cancel from every check, and each check sums only the
sparse rows' nonzeros.
Then z is feasible and y is a dual solution of equal value, so z is an
exact optimum, and (c.z, z) is returned.

Fallback.  If the float pass proposes nothing (an unbounded ratio test, a
rhs that drifts below zero, or m = 0), or the basis is singular or fails a
check, the exact Bland simplex below runs from the slack basis, on the
rows made dense, and decides.
On long degenerate runs (thousands of Bland pivots) float noise can reach
the size of genuine tableau entries; the pass then usually loses primal
feasibility and stops, and the exact simplex pays its full cost.

Why the proposal follows Bland's rule rather than any faster float rule:
an LP often has many optimal vertices, and the documents report Bland's
(its support size, its rational table).  Where the float signs and ties
agree with the exact ones, the float pass pivots as the exact one does and
stops at the same basis, so the certified vertex is Bland's, bit for bit.
Where they do not, the answer is still an exact optimum with an exact dual
certificate, but possibly another optimal vertex.

The exact simplex keeps a condensed tableau (Tucker's form): a basic column
is a unit vector and is not stored.  Column j holds the nonbasic variable
nonbasic[j] and row i the basic variable basis[i].  A constraint row is
n + 2 Python ints: its exact rationals times one positive row denominator,
then the rhs, then that denominator (the row's entry in its own basic
column); the objective row is n + 1 ints, of which only the signs are read.
A pivot on (r, c) is a Jordan exchange that swaps nonbasic[c] and basis[r].
Every other row becomes p*row_i - f*pivot_row (p the pivot entry, f row i's
entry in column c: the integer-preserving elimination of Edmonds, J. Res.
NBS 1967), with -f*d_r in column c and p*d_i as its denominator, and is then
divided by the gcd of its entries; the pivot row takes d_r in column c and p
as its denominator.  These are the full tableau's ints minus its unit
columns, which hold zeros and each row's own denominator, so every gcd is
the full row's too.  Bland's rule enters the negative reduced cost of the
smallest variable index nonbasic[j], not of the smallest column.  Scaling a
row by a positive number keeps the sign of every entry and every ratio
b_i / a_ic, so Bland's choices, and with them the pivot sequence, the
returned vertex and the optimum, are those of the same tableau kept in
exact fractions.
"""

from __future__ import annotations

from math import gcd, lcm

import numpy as np

from ._rat import R

MAX_PIVOTS = 200_000
# the float pass's zero: a reduced cost below -TOL times the largest
# |reduced cost| is negative, a column entry above TOL times the largest
# |tableau entry| positive, and ratios within TOL (relative above 1) tied.
# A rhs below -DRIFT times the largest initial rhs ends the pass.
TOL = 1e-9
DRIFT = 1e-6


class UnboundedLP(RuntimeError):
    pass


def _ratio(v):
    """(numerator, denominator) of an int, a float or an exact rational."""
    if isinstance(v, float):
        return v.as_integer_ratio()
    return int(v.numerator), int(v.denominator)


def _int_row(items):
    """The nonzero values of (column, value) pairs as {column: int}, and a
    positive denominator over which those ints are the exact values."""
    pairs = [(j, *_ratio(v)) for j, v in items if v]
    den = lcm(*(q for _, _, q in pairs))
    return {j: p * (den // q) for j, p, q in pairs}, den


def _reduce(row):
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def solve_lp(c, A_ub, b_ub, *, den=None, guide=None):
    """Maximize c.z subject to A_ub z <= b_ub, z >= 0, where b_ub >= 0.

    c's entries may be ints, floats or exact rationals.  Without `den`, each
    row of A_ub is a sequence or a {column: value} dict of such numbers, and
    every entry is read exactly.  With `den`, the LP comes in the solver's
    own form: A_ub[i] is a {column: int} dict of row i's nonzeros, b_ub[i]
    an int and den[i] a positive int, and the exact row is those ints over
    den[i].  `guide`, given only with `den`, is the float64 (m, n + 1) array
    of the exact rows and rhs, each entry rounded once; it is built from
    the ints when not given.  Returns (optimum, z) with exact rational
    entries.  A negative b_ub entry, or with `den` a denominator below 1,
    raises ValueError before any pivot.
    """
    n = len(c)
    if den is None:
        if guide is not None:
            raise ValueError("a guide needs den")
        A_ub, b_ub, den = _lp_form(n, A_ub, b_ub)
    else:
        if not len(A_ub) == len(b_ub) == len(den):
            raise ValueError("A_ub, b_ub and den differ in length")
        for i, (b, d) in enumerate(zip(b_ub, den)):
            if d < 1:
                raise ValueError(f"den[{i}] = {d} is not positive")
            if b < 0:
                raise ValueError(f"b_ub[{i}] = {R(b, d)} is negative: "
                                 "the slack basis is infeasible")
    if guide is None:
        guide = _guide(n, A_ub, b_ub, den)
    elif np.shape(guide) != (len(A_ub), n + 1):
        raise ValueError(f"guide has shape {np.shape(guide)}, not {(len(A_ub), n + 1)}")
    cint, _ = _int_row(enumerate(c))
    obj = [cint.get(j, 0) for j in range(n)]
    basis = _float_basis(c, guide)
    z = None if basis is None else _certify(obj, A_ub, b_ub, basis)
    if z is None:
        z = _bland(obj, A_ub, b_ub, den)
    opt = sum((R(*_ratio(c[j])) * z[j] for j in cint if z[j]), R(0))
    return opt, z


def _lp_form(n, A_ub, b_ub):
    """The solver's form (rows, rhs, den) of exact-number rows: sequences or
    {column: value} dicts, the rhs in column n.  A negative rhs raises."""
    rows, rhs, den = [], [], []
    for i, (row, b) in enumerate(zip(A_ub, b_ub)):
        items = row.items() if isinstance(row, dict) else enumerate(row)
        t, d = _int_row([*items, (n, b)])
        if t.get(n, 0) < 0:
            raise ValueError(f"b_ub[{i}] = {b} is negative: the slack basis is infeasible")
        rhs.append(t.pop(n, 0))
        rows.append(t)
        den.append(d)
    return rows, rhs, den


def _guide(n, rows, rhs, den):
    """The float64 (m, n + 1) array of the exact rows and rhs, each entry
    rounded once (int / int is correctly rounded), or None if an entry is
    beyond the float range."""
    G = np.zeros((len(rows), n + 1))
    try:
        for i, (t, b, d) in enumerate(zip(rows, rhs, den)):
            G[i, list(t)] = [a / d for a in t.values()]
            G[i, n] = b / d
    except OverflowError:
        return None
    return G


def _float_basis(c, guide):
    """The final basis of Bland's rule on a float64 copy of the condensed
    tableau, the guide (basis[i] the variable of row i), or None if there
    is no guide, the ratio test finds no row, a rhs drifts below zero, or
    the LP has no rows."""
    if guide is None or len(guide) == 0:
        return None
    n, m = len(c), len(guide)
    try:
        obj = -np.array([*c, 0], dtype=float)
    except OverflowError:
        return None
    T = np.array(guide, dtype=float)
    drift = -DRIFT * max(1.0, T[:, n].max())
    nonbasic = np.arange(n)
    basis = np.arange(n, n + m)
    if n == 0:
        return basis.tolist()
    big = n + m                     # above every variable index
    with np.errstate(all="ignore"):
        for _ in range(MAX_PIVOTS):
            # the smallest variable index with a negative reduced cost enters
            enter = np.where(obj[:n] < -TOL * max(1.0, -obj.min(), obj.max()), nonbasic, big)
            col = enter.argmin()
            if enter[col] == big:
                return basis.tolist()
            a = T[:, col].copy()
            ok = a > TOL * max(1.0, -T.min(), T.max())
            if not ok.any():
                return None
            ratio = np.where(ok, T[:, n] / a, np.inf)
            least = ratio.min()
            tied = ratio <= least + TOL * max(1.0, abs(least))
            row = np.where(tied, basis, big).argmin()
            # Jordan exchange: the pivot row over p, -f/p in column col
            p = a[row]
            prow = T[row] / p
            prow[col] = 1.0 / p
            a[row] = 0.0
            T[:, col] = 0.0
            T -= np.outer(a, prow)
            T[row] = prow
            f = obj[col]
            obj[col] = 0.0
            obj -= f * prow
            nonbasic[col], basis[row] = basis[row], nonbasic[col]
            # exact Bland keeps every rhs >= 0: this pass has lost its way
            if not T[:, n].min() >= drift:
                return None
    return None


def _certify(obj, rows, rhs, basis):
    """z (exact rationals) at the basis if it is primal and dual feasible
    for max obj.z s.t. rows[i].z <= rhs[i], z >= 0; else None.  The rows
    are {column: int} dicts; their denominators cancel from every check."""
    n = len(obj)
    S = [v for v in basis if v < n]
    at = {j: k for k, j in enumerate(S)}
    tight = sorted(set(range(n, n + len(rows))) - set(basis))
    Rw, Rb = [], []
    for v in tight:
        t, b = rows[v - n], rhs[v - n]
        g = gcd(b, *t.values())
        if g > 1:
            t, b = {j: a // g for j, a in t.items()}, b // g
        Rw.append(t)
        Rb.append(b)
    sol = _solve([{at[j]: a for j, a in t.items() if j in at} for t in Rw], Rb)
    if sol is None or any(v < 0 for v in sol[0]):
        return None
    Z, dz = sol
    cols = [{} for _ in S]
    for k, t in enumerate(Rw):
        for j, a in t.items():
            if j in at:
                cols[at[j]][k] = a
    sol = _solve(cols, [obj[j] for j in S])
    if sol is None or any(v < 0 for v in sol[0]):
        return None
    Y, dy = sol
    support = {j: v for j, v in zip(S, Z) if v}
    for t, b in zip(rows, rhs):
        if sum(a * support[j] for j, a in t.items() if j in support) > b * dz:
            return None
    sums = [0] * n
    for t, v in zip(Rw, Y):
        if v:
            for j, a in t.items():
                sums[j] += a * v
    if any(s < cj * dy for s, cj in zip(sums, obj)):
        return None
    z = [R(0)] * n
    for j, v in support.items():
        z[j] = R(v, dz)
    return z


def _solve(rows, rhs):
    """The exact solution z = Z / D (a list of ints, a positive int) of the
    square system rows . z = rhs, each row a dict {column: int}, or None if
    singular.  Consumes rows and rhs.

    Sparse Gaussian elimination: the column with the fewest nonzeros is
    eliminated next, on its sparsest row; each updated row is
    p*row_i - f*pivot_row, divided by the gcd of its entries and rhs."""
    k = len(rows)
    holders = [set() for _ in range(k)]
    for i, r in enumerate(rows):
        for j in r:
            holders[j].add(i)
    left = set(range(k))
    order = []
    for _ in range(k):
        col = min(left, key=lambda j: (len(holders[j]), j))
        if not holders[col]:
            return None
        left.discard(col)
        r = min(holders[col], key=lambda i: (len(rows[i]), i))
        piv, pb = rows[r], rhs[r]
        for j in piv:
            holders[j].discard(r)
        p = piv[col]
        for i in list(holders[col]):
            row = rows[i]
            f = row.pop(col)
            holders[col].discard(i)
            new = {j: p * v for j, v in row.items()}
            for j, v in piv.items():
                if j != col:
                    w = new.get(j, 0) - f * v
                    if w:
                        new[j] = w
                        holders[j].add(i)
                    elif j in new:
                        del new[j]
                        holders[j].discard(i)
            b = p * rhs[i] - f * pb
            g = gcd(b, *new.values())
            if g > 1:
                new = {j: v // g for j, v in new.items()}
                b //= g
            rows[i], rhs[i] = new, b
        order.append((r, col))
    # back substitution on one common denominator: z = Z / D
    Z, D = [0] * k, 1
    for r, col in reversed(order):
        row = rows[r]
        num = rhs[r] * D - sum(v * Z[j] for j, v in row.items() if j != col)
        # z[col] = num / (p * D)
        p = row[col]
        g = gcd(num, p)
        q, num = p // g, num // g
        if q < 0:
            q, num = -q, -num
        if q != 1:
            Z = [v * q for v in Z]
            D *= q
        Z[col] = num
    return Z, D


def _bland(obj, rows, rhs, den):
    """Bland's rule from the slack basis on the exact condensed tableau."""
    n, m = len(obj), len(rows)
    # the sparse rows densified: n ints, the rhs, the row denominator
    T = [_reduce([t.get(j, 0) for j in range(n)] + [b, d]) for t, b, d in zip(rows, rhs, den)]
    nonbasic = list(range(n))       # variable of each column: structural, then slack
    basis = [n + i for i in range(m)]
    # reduced costs of the minimization of -c.z; the slack basis has cost 0
    obj = [-v for v in obj] + [0]

    for _ in range(MAX_PIVOTS):
        col = min((j for j in range(n) if obj[j] < 0), key=nonbasic.__getitem__, default=None)
        if col is None:
            break
        # the ratio test T[i][n] / T[i][col]: a row denominator cancels
        # from its own ratio, and both divisors are positive
        row = None
        for i in range(m):
            a = T[i][col]
            if a > 0:
                if row is None:
                    row, rb, ra = i, T[i][n], a
                    continue
                lhs, rhs = T[i][n] * ra, rb * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                    row, rb, ra = i, T[i][n], a
        if row is None:
            raise UnboundedLP("LP is unbounded")
        pr = T[row]
        p, d = pr[col], pr[n + 1]
        # p*row_i - f*q puts -f*d in column col and p*d_i in the denominator
        q = pr[:]
        q[col], q[n + 1] = p + d, 0
        for i in range(m):
            f = T[i][col]
            if i != row and f != 0:
                T[i] = _reduce([p * a - f * b for a, b in zip(T[i], q)])
        f = obj[col]
        obj = _reduce([p * a - f * b for a, b in zip(obj, q)])
        pr[col], pr[n + 1] = d, p
        nonbasic[col], basis[row] = basis[row], nonbasic[col]
    else:
        raise RuntimeError("pivot budget exceeded")

    z = [R(0)] * n
    for i in range(m):
        if basis[i] < n:
            z[basis[i]] = R(T[i][n], T[i][n + 1])
    return z
