"""Exact simplex on integer rows for tiny linear programs.

One tableau phase with Bland's pivoting rule (cycling-free; Bland, Math.
Oper. Res. 1977), started at the slack basis z = 0, which a nonnegative
right-hand side makes feasible.

Each tableau row, and the objective row, is a list of Python ints: the
row's exact rationals times one positive row denominator.  A constraint
row's entry in its basic column is 1 in rationals, so that entry is the
row's denominator and needs no separate bookkeeping; the objective row's
denominator is never read, only its signs.  A pivot updates row i by
p*row_i - f*pivot_row (p the pivot entry, f row i's entry in the pivot
column, the integer-preserving elimination of Edmonds, J. Res. NBS 1967),
then divides the row by the gcd of its entries.  Scaling a row by a
positive number keeps the sign of every entry and every ratio b_i / a_ic,
so Bland's choices, and with them the pivot sequence, the returned vertex
and the optimum, are those of the same tableau kept in exact fractions.
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
    total = n + m                   # structural then slack columns
    T = []
    for i, (row, b) in enumerate(zip(A_ub, b_ub)):
        t, den = _int_row([*row, b])
        if t[-1] < 0:
            raise ValueError(f"b_ub[{i}] = {b} is negative: the slack basis is infeasible")
        t[n:n] = [0] * m
        t[n + i] = den
        T.append(_reduce(t))
    basis = [n + i for i in range(m)]
    # reduced costs of the minimization of -c.z; the slack basis has cost 0
    obj, _ = _int_row(c)
    obj = [-v for v in obj] + [0] * (m + 1)

    for _ in range(MAX_PIVOTS):
        col = next((j for j in range(total) if obj[j] < 0), None)
        if col is None:
            break
        # the ratio test T[i][-1] / T[i][col]: a row denominator cancels
        # from its own ratio, and both divisors are positive
        row = None
        for i in range(m):
            a = T[i][col]
            if a > 0:
                if row is None:
                    row, rb, ra = i, T[i][total], a
                    continue
                lhs, rhs = T[i][total] * ra, rb * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                    row, rb, ra = i, T[i][total], a
        if row is None:
            raise UnboundedLP("LP is unbounded")
        pr = T[row]
        p = pr[col]
        for i in range(m):
            f = T[i][col]
            if i != row and f != 0:
                T[i] = _reduce([p * a - f * b for a, b in zip(T[i], pr)])
        f = obj[col]
        obj = _reduce([p * a - f * b for a, b in zip(obj, pr)])
        basis[row] = col
    else:
        raise RuntimeError("pivot budget exceeded")

    z = [R(0)] * n
    for i in range(m):
        if basis[i] < n:
            z[basis[i]] = R(T[i][total], T[i][basis[i]])
    opt = sum((R(*_ratio(ci)) * zi for ci, zi in zip(c, z) if zi), R(0))
    return opt, z
