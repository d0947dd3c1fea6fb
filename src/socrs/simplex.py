"""Dense exact-rational simplex for tiny linear programs.

One tableau phase with Bland's pivoting rule (cycling-free; Bland, Math.
Oper. Res. 1977), started at the slack basis z = 0, which a nonnegative
right-hand side makes feasible.  All arithmetic is exact rational, so the
returned optimum is the ground truth other modules are tested against.
"""

from __future__ import annotations

from ._rat import R, as_rational

MAX_PIVOTS = 200_000


class UnboundedLP(RuntimeError):
    pass


def solve_lp(c, A_ub, b_ub):
    """Maximize c.z subject to A_ub z <= b_ub, z >= 0, where b_ub >= 0.

    All inputs are coerced to exact rationals.  Returns (optimum, z) with
    exact rational entries.  A negative b_ub entry raises ValueError.
    """
    n = len(c)
    m = len(A_ub)
    c = [as_rational(v) for v in c]
    total = n + m                   # structural then slack columns
    T = []
    for i, (row, b) in enumerate(zip(A_ub, b_ub)):
        b = as_rational(b)
        if b < 0:
            raise ValueError(f"b_ub[{i}] = {b} is negative: the slack basis is infeasible")
        t = [as_rational(v) for v in row] + [R(0)] * m + [b]
        t[n + i] = R(1)
        T.append(t)
    basis = [n + i for i in range(m)]
    # reduced costs of the minimization of -c.z; the slack basis has cost 0
    obj = [-v for v in c] + [R(0)] * (m + 1)

    for _ in range(MAX_PIVOTS):
        col = next((j for j in range(total) if obj[j] < 0), None)
        if col is None:
            break
        best = None
        for i in range(m):
            if T[i][col] > 0:
                ratio = T[i][total] / T[i][col]
                if best is None or ratio < best[0] or \
                   (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise UnboundedLP("LP is unbounded")
        row = best[1]
        pr = T[row]
        inv = pr[col]
        T[row] = pr = [v / inv for v in pr]
        for i in range(m):
            if i != row and T[i][col] != 0:
                f = T[i][col]
                T[i] = [a - f * b for a, b in zip(T[i], pr)]
        f = obj[col]
        obj = [a - f * b for a, b in zip(obj, pr)]
        basis[row] = col
    else:
        raise RuntimeError("pivot budget exceeded")

    z = [R(0)] * n
    for i in range(m):
        if basis[i] < n:
            z[basis[i]] = T[i][total]
    opt = sum(ci * zi for ci, zi in zip(c, z))
    return opt, z
