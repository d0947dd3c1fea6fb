"""Pure-Python replay kernel (fallback for the compiled extension).

Both implementations consume the pre-drawn uniforms in exactly the same
fixed pattern -- one for the initial sample, then (activation, coin) per
element -- so their outputs are bit-identical for identical inputs.

The cap rule lives in `dist.check_cap`, which `replay.replay` applies before
either kernel runs; the guard below only mirrors the compiled kernel's.
"""

from .dist import CAP_SLACK


def replay_batch(n, mass, support_masks, support_cdf, x, orders, u,
                 accept_counts, outcome_counts):
    """Run one simulate-then-replace replay per row of `orders`.

    mass[m] is the (unnormalized) witness mass of the feasible set encoded by
    bitmask m (0 for infeasible sets).  Results accumulate into
    accept_counts[e] and outcome_counts[final mask].
    """
    n_rep = orders.shape[0]
    K = len(support_masks)
    for r in range(n_rep):
        u0 = u[r, 0]
        lo, hi = 0, K - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if u0 < support_cdf[mid]:
                hi = mid
            else:
                lo = mid + 1
        m = support_masks[lo]
        for j in range(n):
            e = orders[r, j]
            bit = 1 << e
            t = m & ~bit
            tb = t | bit
            denom = mass[t] + mass[tb]
            q = mass[tb] / denom
            xe = x[e]
            if q > xe + CAP_SLACK:
                raise ValueError(
                    f"witness violates stationary caps at element {e}, mask {t}")
            ua = u[r, 1 + 2 * j]
            uc = u[r, 2 + 2 * j]
            if ua < xe:
                p = q / xe
                if p > 1.0:
                    p = 1.0
                if uc < p:
                    m = tb
                    accept_counts[e] += 1
                else:
                    m = t
            else:
                m = t
        outcome_counts[m] += 1
    return 0
