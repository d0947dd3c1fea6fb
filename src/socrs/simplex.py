"""Dense exact-rational simplex for tiny linear programs.

Two-phase tableau method with Bland's pivoting rule (cycling-free) and a
deterministic tableau layout.  All arithmetic is exact rational, so the
returned optimum is the ground truth other modules are tested against.
"""

from __future__ import annotations

from ._rat import R, as_rational


class InfeasibleLP(RuntimeError):
    pass


class UnboundedLP(RuntimeError):
    pass


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, max_pivots=200_000):
    """Maximize c.z subject to A_ub z <= b_ub, A_eq z = b_eq, z >= 0.

    All inputs are coerced to exact rationals.  Returns (optimum, z) with
    exact rational entries.
    """
    A_ub = [list(r) for r in (A_ub or [])]
    b_ub = list(b_ub or [])
    A_eq = [list(r) for r in (A_eq or [])]
    b_eq = list(b_eq or [])
    n = len(c)
    c = [as_rational(v) for v in c]

    rows = []
    senses = []
    for r, b in zip(A_ub, b_ub):
        rows.append([as_rational(v) for v in r] + [as_rational(b)])
        senses.append("<=")
    for r, b in zip(A_eq, b_eq):
        rows.append([as_rational(v) for v in r] + [as_rational(b)])
        senses.append("=")

    # normalize to nonnegative right-hand sides
    for i, row in enumerate(rows):
        if row[-1] < 0:
            rows[i] = [-v for v in row]
            if senses[i] == "<=":
                senses[i] = ">="

    m = len(rows)
    n_slack = sum(1 for s in senses if s in ("<=", ">="))
    n_art = sum(1 for s in senses if s != "<=")     # a "<=" row starts on its slack
    total = n + n_slack + n_art      # structural + slack/surplus + artificial
    T = [[R(0)] * (total + 1) for _ in range(m)]
    basis = [None] * m
    slack_idx = 0
    art_cols = []
    for i, (row, sense) in enumerate(zip(rows, senses)):
        for j in range(n):
            T[i][j] = row[j]
        T[i][total] = row[-1]
        if sense == "<=":
            T[i][n + slack_idx] = R(1)
            basis[i] = n + slack_idx
            slack_idx += 1
        elif sense == ">=":
            T[i][n + slack_idx] = R(-1)
            slack_idx += 1
        if basis[i] is None:
            a = n + n_slack + len(art_cols)
            T[i][a] = R(1)
            basis[i] = a
            art_cols.append(a)

    def pivot(T, basis, obj, row, col):
        pr = T[row]
        inv = pr[col]
        T[row] = [v / inv for v in pr]
        pr = T[row]
        for i in range(len(T)):
            if i != row and T[i][col] != 0:
                f = T[i][col]
                Ti = T[i]
                T[i] = [a - f * b for a, b in zip(Ti, pr)]
        if obj is not None and obj[col] != 0:
            f = obj[col]
            for j in range(len(obj)):
                obj[j] -= f * pr[j]
        basis[row] = col

    def run_phase(obj, allowed_cols, pivots_left):
        # obj is a row of reduced costs for a minimization; Bland's rule
        while True:
            col = next((j for j in allowed_cols if obj[j] < 0), None)
            if col is None:
                return pivots_left
            best = None
            for i in range(m):
                if T[i][col] > 0:
                    ratio = T[i][total] / T[i][col]
                    if best is None or ratio < best[0] or \
                       (ratio == best[0] and basis[i] < basis[best[1]]):
                        best = (ratio, i)
            if best is None:
                raise UnboundedLP("LP is unbounded")
            pivot(T, basis, obj, best[1], col)
            pivots_left -= 1
            if pivots_left <= 0:
                raise RuntimeError("pivot budget exceeded")

    pivots_left = max_pivots

    if art_cols:
        # phase 1: minimize the sum of artificials
        obj = [R(0)] * (total + 1)
        for a in art_cols:
            obj[a] = R(1)
        for i in range(m):
            if basis[i] in art_cols:
                for j in range(total + 1):
                    obj[j] -= T[i][j]
        allowed = list(range(total))
        pivots_left = run_phase(obj, allowed, pivots_left)
        if -obj[total] > 0:
            raise InfeasibleLP("phase-1 optimum positive")
        # drive any artificial still in the basis out (degenerate rows)
        for i in range(m):
            if basis[i] in art_cols:
                col = next((j for j in range(n + n_slack) if T[i][j] != 0), None)
                if col is not None:
                    pivot(T, basis, None, i, col)

    # phase 2: minimize -c.z over structural+slack columns
    obj = [R(0)] * (total + 1)
    for j in range(n):
        obj[j] = -c[j]
    for i in range(m):
        if obj[basis[i]] != 0:
            f = obj[basis[i]]
            for j in range(total + 1):
                obj[j] -= f * T[i][j]
    allowed = [j for j in range(n + n_slack)]
    run_phase(obj, allowed, pivots_left)

    z = [R(0)] * n
    for i in range(m):
        if basis[i] < n:
            z[basis[i]] = T[i][total]
    opt = sum(ci * zi for ci, zi in zip(c, z))
    return opt, z
