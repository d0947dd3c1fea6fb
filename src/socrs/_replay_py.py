"""Replay kernel: simulate-then-replace over a block of replications at once.

Each replication reads its row of pre-drawn uniforms in a fixed pattern --
u[r, 0] for the initial sample, then (activation, coin) = u[r, 1 + 2j],
u[r, 2 + 2j] at arrival step j -- so the counts depend only on the inputs,
not on the block size.  A replication's state is a family position.

`replay.replay` checks the witness's stationary caps with
`dist.verify_stationary_lp` and hands the kernel one block of at most BLOCK
rows at a time; the guard below keeps the kernel safe when called directly.
"""

import numpy as np

from .dist import CAP_SLACK

BLOCK = 8192        # replications per block; bounds the temporaries


def replay_batch(qt, moves, support_pos, support_cdf, x, orders, u,
                 accept_counts, outcome_counts):
    """Run one simulate-then-replace replay per row of `orders`.

    qt[k] is the stationary conditional q_e(S_p - e) at k = p*n + e, and
    moves[2k], moves[2k + 1] are the positions of S_p - e and S_p - e + e
    (see `dist.stationary_conditionals`).  The initial set is drawn from the
    CDF support_cdf over the support positions support_pos.  Results
    accumulate into accept_counts[e] and outcome_counts[final position].
    """
    n = len(x)
    bad = np.argwhere(qt.reshape(-1, n) > x + CAP_SLACK)
    if len(bad):
        raise ValueError(f"witness violates stationary caps at position, element {bad[0]}")
    first = np.searchsorted(support_cdf, u[:, 0], side="right")
    p = support_pos[np.minimum(first, len(support_pos) - 1)]
    for j in range(n):
        e = orders[:, j]
        k = p * n + e
        xe = x[e]
        keep = (u[:, 1 + 2 * j] < xe) & (u[:, 2 + 2 * j] < np.minimum(qt[k] / xe, 1.0))
        p = moves[2 * k + keep]
        accept_counts += np.bincount(e[keep], minlength=n)
    outcome_counts += np.bincount(p, minlength=outcome_counts.size)
