"""Vectorized Monte-Carlo replays of the simulate-then-replace policy.

Before the kernel runs, `replay` checks the caps of the witness's table
with `dist.verify_stationary_lp` and raises `CapViolationError` on the
first violated cap; fixed orders must be permutations of the elements.
`_replay_py.kernel_tables` then turns the conditionals that check built into
the kernel's acceptance and move tables over the family's positions, once
per replay, and `_replay_py.replay_batch` runs the blocks and counts the
final positions.  The conditionals and the initial draw's
`dist.support_cdf` are the ones the sampled policy (`policy.run_one_shot`,
`run_recurring`) steps through one arrival at a time.  Every order is a
permutation, so an element is accepted exactly when it is in its
replication's final set: the accepts are the outcome counts times the
family's incidence matrix, taken once per replay.

Replications run one block of `_replay_py.BLOCK` = 4096 rows at a time, and
with random arrival orders each block draws its own orders next to its own
uniforms, so an estimate holds one block in memory however many
replications it runs.  A block of orders is drawn as an (n, rows) array, the
layout the kernel steps through, and `random_orders` hands it over as its
(rows, n) transpose without a copy.  The draws are those of one
`random_orders` call for every replication followed by one uniform array for
the kernel: a block reads its kernel uniforms from a copy of the stream
jumped past all the order draws.
"""

from __future__ import annotations

import numpy as np

from . import _replay_py as _kernel
from .dist import (CapViolationError, ExplicitDistribution, stationary_conditionals,
                   support_cdf, verify_stationary_lp)

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
    support_pos, cdf = support_cdf(table)

    if orders is None:
        if n_rep is None:
            raise ValueError("n_rep required with random orders")
        # the kernel's uniforms start after every replication's order draws
        urng = rng.jumped(n_rep * n)
    else:
        orders = _fixed_orders(orders, n, n_rep)
        n_rep = orders.shape[0]
        urng = rng

    acc2, moves2n, sp2n = _kernel.kernel_tables(q.reshape(-1), moves, support_pos, x)
    outcome_counts = np.zeros(len(fam), dtype=np.int64)
    # one block's orders and uniforms at a time: the stream fills row-major,
    # so the blocks' draws equal one (n_rep, .) draw while memory stays bounded
    for lo in range(0, n_rep, _kernel.BLOCK):
        rows = min(_kernel.BLOCK, n_rep - lo)
        block = random_orders(n, rows, rng) if orders is None else orders[lo:lo + rows]
        u = urng.uniform((rows, 2 * n + 1))
        _kernel.replay_batch(acc2, moves2n, sp2n, cdf, x, block, u, outcome_counts)
    if orders is None:
        rng.advance(n_rep * (2 * n + 1))
    return outcome_counts @ fam.inc, outcome_counts, n_rep


def _fixed_orders(orders, n, n_rep):
    """Given orders as an (n_rep, n) array whose rows are permutations of
    range(n), else ValueError; a single order is broadcast, not copied."""
    orders = np.asarray(orders, dtype=np.int64)
    single = orders.ndim == 1
    if single:
        if n_rep is None:
            raise ValueError("n_rep required with a single order")
        orders = orders[None]
    elif orders.ndim != 2 or n_rep not in (None, len(orders)):
        raise ValueError(f"orders of shape {orders.shape} with n_rep = {n_rep}: "
                         "expected one order or an (n_rep, n) array")
    if orders.shape[1] != n:
        raise ValueError(f"orders of {orders.shape[1]} elements for {n} elements")
    # block by block, so that the check holds one block of sorted rows
    for lo in range(0, len(orders), _kernel.BLOCK):
        if (np.sort(orders[lo:lo + _kernel.BLOCK], axis=1) != np.arange(n)).any():
            raise ValueError("every order must be a permutation of the elements")
    # a read-only view: the kernel only reads order rows
    return np.broadcast_to(orders[0], (n_rep, n)) if single else orders


def outcome_distribution(env, outcome_counts, n_rep):
    """Empirical output law as an ExplicitDistribution."""
    pos = np.flatnonzero(outcome_counts)
    return ExplicitDistribution.on_family(env, pos, outcome_counts[pos] / n_rep, tol=1e-9)


def random_orders(n, n_rep, rng):
    """One uniformly random arrival order per replication, as an (n_rep, n)
    array: Fisher-Yates on the stream's (n_rep, n) uniforms, swap step
    i = n-1..1 over all rows at once, into an (n, n_rep) array whose
    transpose is returned without a copy.  The stream fills row-major, so
    `replay` with orders=None, which calls this once per block, draws the
    same orders as one call for every replication."""
    ub = rng.uniform((n_rep, n))
    block = np.empty((n, n_rep), dtype=np.int64)
    block[:] = np.arange(n, dtype=np.int64)[:, None]
    flat = block.reshape(-1)
    # flat index of step i's swap partner in every column, all steps at once
    swap = (np.ascontiguousarray(ub.T[1:]) * np.arange(2.0, n + 1)[:, None]).astype(np.int64)
    swap *= n_rep
    swap += np.arange(n_rep)
    for i in range(n - 1, 0, -1):
        j = swap[i - 1]
        swapped = flat[j]
        flat[j] = block[i]
        block[i] = swapped
    return block.T
