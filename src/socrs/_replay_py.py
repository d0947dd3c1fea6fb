"""Replay kernel: simulate-then-replace over a block of replications at once.

Each replication reads its row of pre-drawn uniforms in a fixed pattern --
u[r, 0] for the initial sample, then (activation, coin) = u[r, 1 + 2j],
u[r, 2 + 2j] at arrival step j -- so the counts depend only on the inputs,
not on the block size.

`replay.replay` checks the witness's stationary caps with
`dist.verify_stationary_lp` and hands the kernel one block of at most BLOCK
rows at a time; the guard below keeps the kernel safe when called directly.
"""

import numpy as np

from .dist import CAP_SLACK

BLOCK = 8192        # replications per block; bounds the temporaries


def replay_batch(n, mass, support_masks, support_cdf, x, orders, u,
                 accept_counts, outcome_counts):
    """Run one simulate-then-replace replay per row of `orders`.

    mass[m] is the (unnormalized) witness mass of the feasible set encoded by
    bitmask m (0 for infeasible sets).  Results accumulate into
    accept_counts[e] and outcome_counts[final mask].
    """
    last = len(support_masks) - 1
    first = np.searchsorted(support_cdf, u[:, 0], side="right")
    m = support_masks[np.minimum(first, last)]
    # a state of zero conditioning mass gives q = NaN, which is never kept
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(n):
            e = orders[:, j]
            bit = np.left_shift(1, e)
            t = m & ~bit
            tb = t | bit
            q = mass[tb] / (mass[t] + mass[tb])
            xe = x[e]
            bad = np.flatnonzero(q > xe + CAP_SLACK)
            if bad.size:
                r = bad[0]
                raise ValueError(f"witness violates stationary caps at element "
                                 f"{e[r]}, mask {t[r]}")
            keep = (u[:, 1 + 2 * j] < xe) & (u[:, 2 + 2 * j] < np.minimum(q / xe, 1.0))
            m = np.where(keep, tb, t)
            accept_counts += np.bincount(e[keep], minlength=n)
    outcome_counts += np.bincount(m, minlength=outcome_counts.size)
