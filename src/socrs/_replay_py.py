"""Replay kernel: simulate-then-replace over a block of replications at once.

Each replication reads its row of pre-drawn uniforms in a fixed pattern --
u[r, 0] for the initial sample, then (activation, coin) = u[r, 1 + 2j],
u[r, 2 + 2j] at arrival step j -- so the counts depend only on the inputs,
not on the block size.

`kernel_tables` runs once per replay: it checks the stationary caps and
builds the acceptance table and the move table, both indexed by the state
s = 2n*p of a replication at family position p.  `replay_batch` then runs
one block of at most BLOCK rows: it transposes the block's uniforms and
orders once, so that every arrival step reads contiguous rows, compares the
activation coins of all steps at once, and then spends two adds, two gathers,
one compare and one `and` over the block per step.  It counts only final
positions: every element arrives once, so it is accepted exactly when it ends
in the final set, and `replay.replay` reads the accepts off the outcome
counts once per replay.  `replay.replay` also checks the witness's caps with
`dist.verify_stationary_lp` first; the guard in `kernel_tables` keeps the
kernel safe when called directly.
"""

import numpy as np

from .dist import CAP_SLACK

BLOCK = 4096        # replications per block; bounds the temporaries


def kernel_tables(qt, moves, support_pos, x):
    """(acc2, moves2n, sp2n): the tables `replay_batch` reads, built once.

    qt[k] is the stationary conditional q_e(S_p - e) at k = p*n + e, and
    moves[2k], moves[2k + 1] are the positions of S_p - e and S_p - e + e
    (see `dist.stationary_conditionals`).  acc2[2k] = acc2[2k + 1] =
    min(qt[k] / x_e, 1) is the acceptance probability of e at S_p, and
    moves2n, sp2n are moves and support_pos scaled to states 2n*p, so that
    the state s plus 2e indexes both tables.  Raises ValueError when qt
    exceeds x beyond CAP_SLACK.
    """
    n = len(x)
    q = qt.reshape(-1, n)
    bad = np.argwhere(q > x + CAP_SLACK)
    if len(bad):
        raise ValueError(f"witness violates stationary caps at position, element {bad[0]}")
    acc2 = np.repeat(np.minimum(q / x, 1.0).reshape(-1), 2)
    return (acc2, np.asarray(moves, dtype=np.intp) * (2 * n),
            np.asarray(support_pos, dtype=np.intp) * (2 * n))


def replay_batch(acc2, moves2n, sp2n, support_cdf, x, orders, u, outcome_counts):
    """Run one simulate-then-replace replay per row of `orders`.

    acc2, moves2n and sp2n come from `kernel_tables`.  The initial set is
    drawn from the CDF support_cdf over the support states sp2n.  Results
    accumulate into outcome_counts[final position]; with orders that are
    permutations an element is accepted exactly when it is in the final set,
    so the caller reads the accepts off the outcomes.
    """
    n = len(x)
    orders = np.ascontiguousarray(orders.T)     # (n, rows): step j reads row j
    u = np.ascontiguousarray(u.T)               # (2n + 1, rows)
    active = u[1::2] < x.take(orders)           # every step's activation at once
    e2 = 2 * orders
    keep = np.empty(orders.shape[1], dtype=bool)
    first = np.searchsorted(support_cdf, u[0], side="right")
    s = sp2n.take(np.minimum(first, len(sp2n) - 1))
    for j in range(n):
        k2 = s + e2[j]
        np.logical_and(u[2 + 2 * j] < acc2.take(k2), active[j], out=keep)
        k2 += keep
        s = moves2n.take(k2)
    outcome_counts += np.bincount(s // (2 * n), minlength=outcome_counts.size)
