"""Exact simplex on integer rows for tiny linear programs.

One tableau phase with Bland's pivoting rule (cycling-free; Bland, Math.
Oper. Res. 1977), started at the slack basis z = 0, which a nonnegative
right-hand side makes feasible.

The tableau is condensed (Tucker's form): a basic column is a unit vector
and is not stored.  Column j holds the nonbasic variable nonbasic[j] and
row i the basic variable basis[i].  A constraint row is n + 2 Python ints:
its exact rationals times one positive row denominator, then the rhs, then
that denominator (the row's entry in its own basic column); the objective
row is n + 1 ints, of which only the signs are read.  A pivot on (r, c) is
a Jordan exchange that swaps nonbasic[c] and basis[r].  Every other row
becomes p*row_i - f*pivot_row (p the pivot entry, f row i's entry in
column c: the integer-preserving elimination of Edmonds, J. Res. NBS
1967), with -f*d_r in column c and p*d_i as its denominator, and is then
divided by the gcd of its entries; the pivot row takes d_r in column c and
p as its denominator.  These are the full tableau's ints minus its unit
columns, which hold zeros and each row's own denominator, so every gcd is
the full row's too.  Bland's rule enters the negative reduced cost of the
smallest variable index nonbasic[j], not of the smallest column.  Scaling
a row by a positive number keeps the sign of every entry and every ratio
b_i / a_ic, so Bland's choices, and with them the pivot sequence, the
returned vertex and the optimum, are those of the same tableau kept in
exact fractions.
"""

from __future__ import annotations

from math import gcd, lcm

from ._rat import R

MAX_PIVOTS = 200_000


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
    n = len(c)
    m = len(A_ub)
    T = []
    for i, (row, b) in enumerate(zip(A_ub, b_ub)):
        t, den = _int_row([*row, b])
        if t[-1] < 0:
            raise ValueError(f"b_ub[{i}] = {b} is negative: the slack basis is infeasible")
        T.append(_reduce([*t, den]))
    nonbasic = list(range(n))       # variable of each column: structural, then slack
    basis = [n + i for i in range(m)]
    # reduced costs of the minimization of -c.z; the slack basis has cost 0
    obj, _ = _int_row(c)
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
    opt = sum((R(*_ratio(ci)) * zi for ci, zi in zip(c, z) if zi), R(0))
    return opt, z
