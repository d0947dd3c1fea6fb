"""Exact simplex on integer rows for tiny linear programs.

`solve_lp` returns the vertex that Bland's rule (cycling-free; Bland, Math.
Oper. Res. 1977) reaches from the slack basis z = 0, which a nonnegative
right-hand side makes feasible.  It gets there in up to three steps.

Proposal.  The same Bland pivots run on a float64 copy of the condensed
tableau: the smallest nonbasic variable index with a negative reduced cost
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
Then z is feasible and y is a dual solution of equal value, so z is an
exact optimum, and (c.z, z) is returned.

Fallback.  If the float pass proposes nothing (an unbounded ratio test, a
rhs that drifts below zero, or m = 0), or the basis is singular or fails a
check, the exact Bland simplex below runs from the slack basis and decides.
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


def _int_row(values):
    """Integers proportional to values, over a positive denominator."""
    pairs = [_ratio(v) for v in values]
    den = lcm(*(d for _, d in pairs))
    return [p * (den // d) for p, d in pairs], den


def _reduce(row):
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def solve_lp(c, A_ub, b_ub):
    """Maximize c.z subject to A_ub z <= b_ub, z >= 0, where b_ub >= 0.

    Entries may be ints, floats or exact rationals; each is read exactly.
    Returns (optimum, z) with exact rational entries.  A negative b_ub
    entry raises ValueError.
    """
    rows = []
    for i, (row, b) in enumerate(zip(A_ub, b_ub)):
        t, den = _int_row([*row, b])
        if t[-1] < 0:
            raise ValueError(f"b_ub[{i}] = {b} is negative: the slack basis is infeasible")
        rows.append((t, den))
    obj, _ = _int_row(c)
    basis = _float_basis(c, A_ub, b_ub)
    z = None if basis is None else _certify(obj, [t for t, _ in rows], basis)
    if z is None:
        z = _bland(obj, rows)
    opt = sum((R(*_ratio(ci)) * zi for ci, zi in zip(c, z) if zi), R(0))
    return opt, z


def _float_basis(c, A_ub, b_ub):
    """The final basis of Bland's rule on a float64 copy of the condensed
    tableau (basis[i] the variable of row i), or None if the ratio test
    finds no row, a rhs drifts below zero, or the LP has no rows."""
    n, m = len(c), len(A_ub)
    if m == 0:
        return None
    try:
        T = np.array([[*row, b] for row, b in zip(A_ub, b_ub)], dtype=float)
        obj = -np.array([*c, 0], dtype=float)
    except OverflowError:
        return None
    drift = -DRIFT * max(1.0, T[:, n].max())
    nonbasic = np.arange(n)
    basis = np.arange(n, n + m)
    with np.errstate(all="ignore"):
        for _ in range(MAX_PIVOTS):
            neg = np.flatnonzero(obj[:n] < -TOL * max(1.0, np.abs(obj).max()))
            if neg.size == 0:
                return basis.tolist()
            col = neg[np.argmin(nonbasic[neg])]
            a = T[:, col].copy()
            cand = np.flatnonzero(a > TOL * max(1.0, np.abs(T).max()))
            if cand.size == 0:
                return None
            ratio = T[cand, n] / a[cand]
            least = ratio.min()
            tied = cand[ratio <= least + TOL * max(1.0, abs(least))]
            row = tied[np.argmin(basis[tied])]
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


def _certify(obj, rows, basis):
    """z (exact rationals) at the basis if it is primal and dual feasible
    for max obj.z s.t. rows[i][:n].z <= rows[i][n], z >= 0; else None."""
    n = len(obj)
    S = [v for v in basis if v < n]
    tight = sorted(set(range(n, n + len(rows))) - set(basis))
    Rw = [_reduce(rows[v - n]) for v in tight]
    sol = _solve([{k: t[j] for k, j in enumerate(S) if t[j]} for t in Rw],
                 [t[n] for t in Rw])
    if sol is None or any(v < 0 for v in sol[0]):
        return None
    Z, dz = sol
    sol = _solve([{k: t[j] for k, t in enumerate(Rw) if t[j]} for j in S],
                 [obj[j] for j in S])
    if sol is None or any(v < 0 for v in sol[0]):
        return None
    Y, dy = sol
    support = [(j, v) for j, v in zip(S, Z) if v]
    for t in rows:
        if sum(t[j] * v for j, v in support) > t[n] * dz:
            return None
    sums = [0] * n
    for t, v in zip(Rw, Y):
        if v:
            for j in range(n):
                if t[j]:
                    sums[j] += t[j] * v
    if any(s < cj * dy for s, cj in zip(sums, obj)):
        return None
    z = [R(0)] * n
    for j, v in support:
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


def _bland(obj, rows):
    """Bland's rule from the slack basis on the exact condensed tableau."""
    n, m = len(obj), len(rows)
    T = [_reduce([*t, den]) for t, den in rows]
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
