"""Vectorized Monte-Carlo replays of the simulate-then-replace policy.

Before the kernel runs, `replay` checks the witness's stationary caps with
`dist.verify_stationary_lp`, the same check `verify-lp` makes, and raises
`CapViolationError` on the first violated cap.  The kernel is
`_replay_py.replay_batch`; its tables run over the family's positions.

Replications run one block of `_replay_py.BLOCK` rows at a time, and with
random arrival orders each block draws its own orders next to its own
uniforms, so an estimate holds one block in memory however many
replications it runs.  The draws are those of one `random_orders` call for
every replication followed by one uniform array for the kernel: a block
reads its kernel uniforms from a copy of the stream jumped past all the
order draws.
"""

from __future__ import annotations

import numpy as np

from . import _replay_py as _kernel
from .dist import (CapViolationError, ExplicitDistribution, stationary_conditionals,
                   verify_stationary_lp)

KERNEL = "python"


def replay(dist, x, orders, rng, n_rep=None):
    """Run replays and return (accept_counts, outcome_counts, n_rep).

    orders: None for a uniformly random arrival order per replication (n_rep
    required), an (n_rep, n) integer array of fixed per-replication orders,
    or a single permutation reused for every replication (n_rep required).
    outcome_counts[p] counts the replications that end on family position p.

    Stream layout: with orders=None the stream gives the n_rep * n order
    uniforms of `random_orders(n, n_rep, rng)` first, then the n_rep * (2n+1)
    kernel uniforms, one (2n+1)-row per replication; with given orders only
    the kernel uniforms.  Either way `rng` ends past every draw, exactly where
    drawing the orders with `random_orders` and then replaying them leaves it.
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

    if orders is None:
        if n_rep is None:
            raise ValueError("n_rep required with random orders")
        # the kernel's uniforms start after every replication's order draws
        urng = rng.jumped(n_rep * n)
    else:
        orders = np.asarray(orders, dtype=np.int64)
        if orders.ndim == 1:
            if n_rep is None:
                raise ValueError("n_rep required with a single order")
            # a read-only view: the kernel only reads order rows
            orders = np.broadcast_to(orders, (n_rep, n))
        n_rep = orders.shape[0]
        urng = rng

    accept_counts = np.zeros(n, dtype=np.int64)
    outcome_counts = np.zeros(len(fam.sets), dtype=np.int64)
    # one block's orders and uniforms at a time: the stream fills row-major,
    # so the blocks' draws equal one (n_rep, .) draw while memory stays bounded
    for lo in range(0, n_rep, _kernel.BLOCK):
        rows = min(_kernel.BLOCK, n_rep - lo)
        block = random_orders(n, rows, rng) if orders is None else orders[lo:lo + rows]
        u = urng.uniform((rows, 2 * n + 1))
        _kernel.replay_batch(q.reshape(-1), moves, support_pos, cdf, x, block, u,
                             accept_counts, outcome_counts)
    if orders is None:
        rng.advance(n_rep * (2 * n + 1))
    return accept_counts, outcome_counts, n_rep


def outcome_distribution(env, outcome_counts, n_rep):
    """Empirical output law as an ExplicitDistribution."""
    pos = np.flatnonzero(outcome_counts)
    return ExplicitDistribution.on_family(env, pos, outcome_counts[pos] / n_rep, tol=1e-9)


def random_orders(n, n_rep, rng):
    """One uniformly random arrival order per replication, as an (n_rep, n)
    array; `replay` with orders=None draws the same orders block by block."""
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
