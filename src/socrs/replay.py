"""Vectorized Monte-Carlo replays of the simulate-then-replace policy.

Before the kernel runs, `replay` checks the witness's stationary caps with
`dist.verify_stationary_lp`, the same check `verify-lp` makes, and raises
`CapViolationError` on the first violated cap.  The kernel is
`_replay_py.replay_batch`; its tables run over the family's positions.
"""

from __future__ import annotations

import numpy as np

from . import _replay_py as _kernel
from .dist import (CapViolationError, ExplicitDistribution, stationary_conditionals,
                   verify_stationary_lp)

KERNEL = "python"


def replay(dist, x, orders, rng, n_rep=None):
    """Run replays and return (accept_counts, outcome_counts, n_rep).

    orders: either an (n_rep, n) integer array of fixed per-replication
    arrival orders, or a single permutation reused for every replication.
    outcome_counts[p] counts the replications that end on family position p.
    """
    table = dist.to_explicit()
    n = table.env.n
    x = np.asarray(x, dtype=float)
    report = verify_stationary_lp(table, x, 0.0)
    if report.violated_caps:
        raise CapViolationError(*report.violated_caps[0])
    fam = table.env.family()
    _, q, _ = stationary_conditionals(table, exact=False)
    moves = np.stack([fam.down, fam.up[fam.down, np.arange(n)]], axis=-1).reshape(-1)
    # the initial draw walks the support in sets() order, as `sample_explicit` does
    sets = table.sets()
    support_pos = np.array([fam.index[S] for S in sets], dtype=np.int32)
    cdf = np.cumsum([float(table.support[S]) for S in sets])
    cdf[-1] = 1.0 + 1e-12

    orders = np.asarray(orders, dtype=np.int64)
    if orders.ndim == 1:
        if n_rep is None:
            raise ValueError("n_rep required with a single order")
        # a read-only view: the kernel only reads order rows
        orders = np.broadcast_to(orders, (n_rep, n))
    n_rep = orders.shape[0]

    accept_counts = np.zeros(n, dtype=np.int64)
    outcome_counts = np.zeros(len(fam.sets), dtype=np.int64)
    # one block's uniforms at a time: the stream fills row-major, so the
    # blocks' draws equal one (n_rep, 2n+1) draw while memory stays bounded
    for lo in range(0, n_rep, _kernel.BLOCK):
        block = orders[lo:lo + _kernel.BLOCK]
        u = rng.uniform((block.shape[0], 2 * n + 1))
        _kernel.replay_batch(q.reshape(-1), moves, support_pos, cdf, x, block, u,
                             accept_counts, outcome_counts)
    return accept_counts, outcome_counts, n_rep


def outcome_distribution(env, outcome_counts, n_rep):
    """Empirical output law as an ExplicitDistribution."""
    pos = np.flatnonzero(outcome_counts)
    return ExplicitDistribution.on_family(env, pos, outcome_counts[pos] / n_rep, tol=1e-9)


def random_orders(n, n_rep, rng):
    """One uniformly random arrival order per replication."""
    # Fisher-Yates on the stream's uniforms, swap step i = n-1..1 over a block
    # of rows at once; drawn block by block they equal one (n_rep, n) draw
    orders = np.empty((n_rep, n), dtype=np.int64)
    orders[:] = np.arange(n, dtype=np.int64)
    for lo in range(0, n_rep, _kernel.BLOCK):
        block = orders[lo:lo + _kernel.BLOCK]
        ub = rng.uniform(block.shape)
        flat = block.reshape(-1)            # a view: the block's rows are contiguous
        row = np.arange(block.shape[0]) * n
        for i in range(n - 1, 0, -1):
            j = row + (ub[:, i] * (i + 1)).astype(np.int64)
            swapped = flat[j]
            flat[j] = flat[row + i]
            flat[row + i] = swapped
    return orders
