"""Vectorized Monte-Carlo replays of the simulate-then-replace policy.

The hot loop lives in a compiled extension (_replay_cy) when available, with
a bit-identical pure-Python fallback (_replay_py).  Set SOCRS_PURE_PYTHON=1
to force the fallback.

`replay` applies `dist.check_cap` to every state a kernel could reach before
it runs, so a cap violation raises `CapViolationError` with either kernel.
"""

from __future__ import annotations

import os

import numpy as np

from .dist import ExplicitDistribution, check_cap

if os.environ.get("SOCRS_PURE_PYTHON"):
    from . import _replay_py as _kernel
    KERNEL = "python"
else:
    try:
        from . import _replay_cy as _kernel  # type: ignore[attr-defined]
        KERNEL = "cython"
    except ImportError:
        from . import _replay_py as _kernel
        KERNEL = "python"


def mass_table(dist):
    """Dense mask-indexed mass array for an enumerable witness (n <= 20)."""
    table = dist.to_explicit()
    n = table.env.n
    if n > 20:
        raise ValueError("mass table limited to 20 elements")
    mass = np.zeros(1 << n)
    for S, p in table.support.items():
        mass[sum(1 << e for e in S)] = float(p)
    return mass


def kernel_tables(dist):
    """The witness inputs of `replay_batch`: (n, mass, support_masks, support_cdf)."""
    table = dist.to_explicit()
    sets = table.sets()
    support_masks = np.array([sum(1 << e for e in S) for S in sets], dtype=np.int64)
    cdf = np.cumsum([float(table.support[S]) for S in sets])
    cdf[-1] = 1.0 + 1e-12
    return table.env.n, mass_table(table), support_masks, cdf


def _check_caps(mass, x):
    """check_cap on each element's largest kernel conditional
    q = mass[t|bit] / (mass[t] + mass[t|bit]) over states of positive mass."""
    masks = np.arange(mass.size, dtype=np.int64)
    for e, xe in enumerate(x):
        bit = 1 << e
        t = masks[(masks & bit) == 0]
        denom = mass[t] + mass[t | bit]
        t, denom = t[denom > 0], denom[denom > 0]
        if t.size:
            q = mass[t | bit] / denom
            i = int(np.argmax(q))
            check_cap(e, frozenset(f for f in range(len(x)) if t[i] >> f & 1), q[i], xe)


def replay(dist, x, orders, rng, n_rep=None):
    """Run replays and return (accept_counts, outcome_counts, n_rep).

    orders: either an (n_rep, n) integer array of fixed per-replication
    arrival orders, or a single permutation reused for every replication.
    """
    n, mass, support_masks, cdf = kernel_tables(dist)
    x = np.asarray(x, dtype=float)
    _check_caps(mass, x)

    orders = np.asarray(orders, dtype=np.int64)
    if orders.ndim == 1:
        if n_rep is None:
            raise ValueError("n_rep required with a single order")
        orders = np.broadcast_to(orders, (n_rep, n)).copy()
    n_rep = orders.shape[0]

    u = rng.uniform((n_rep, 2 * n + 1))
    accept_counts = np.zeros(n, dtype=np.int64)
    outcome_counts = np.zeros(1 << n, dtype=np.int64)
    _kernel.replay_batch(n, mass, support_masks, cdf, x, orders, u,
                         accept_counts, outcome_counts)
    return accept_counts, outcome_counts, n_rep


def outcome_distribution(env, outcome_counts, n_rep):
    """Empirical output law as an ExplicitDistribution."""
    support = {}
    for mask, c in enumerate(outcome_counts):
        if c:
            S = frozenset(e for e in range(env.n) if mask >> e & 1)
            support[S] = c / n_rep
    return ExplicitDistribution(env, support, tol=1e-9)


def random_orders(n, n_rep, rng):
    """One uniformly random arrival order per replication."""
    # Fisher-Yates driven by the stream's uniforms keeps this reproducible
    orders = np.empty((n_rep, n), dtype=np.int64)
    u = rng.uniform((n_rep, n))
    for r in range(n_rep):
        perm = np.arange(n, dtype=np.int64)
        for i in range(n - 1, 0, -1):
            j = int(u[r, i] * (i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        orders[r] = perm
    return orders
