"""Monte-Carlo replay kernels: correctness against the exact law and
bit-identical agreement between the compiled and pure-Python paths."""

import os
import re
from fractions import Fraction

import numpy as np
import pytest

from socrs import _replay_py
from socrs.dist import CAP_SLACK, GibbsDistribution
from socrs.env import matching_environment
from socrs.policy import CapViolationError, OrderStrategy, exact_output_law
from socrs.replay import (KERNEL, _kernel, kernel_tables, mass_table,
                          outcome_distribution, random_orders, replay)
from socrs.sampling import RngStream, empirical_tv, tv_multinomial_sigma


def path_instance(n_edges=4, w=0.3, x=0.4):
    edges = [(i, i + 1) for i in range(n_edges)]
    env = matching_environment(edges, n_edges + 1)
    return GibbsDistribution(env, [w] * n_edges), [x] * n_edges


def _batch_inputs(dist, x, n_rep, seed):
    n, mass, masks, cdf = kernel_tables(dist)
    rng = RngStream(seed)
    orders = random_orders(n, n_rep, rng)
    u = rng.uniform((n_rep, 2 * n + 1))
    return n, mass, masks, cdf, np.asarray(x, float), orders, u


def test_kernels_bit_identical():
    dist, x = path_instance()
    n, mass, masks, cdf, xf, orders, u = _batch_inputs(dist, x, 2000, 3)
    acc_a = np.zeros(n, dtype=np.int64)
    out_a = np.zeros(1 << n, dtype=np.int64)
    _kernel.replay_batch(n, mass, masks, cdf, xf, orders, u, acc_a, out_a)
    acc_b = np.zeros(n, dtype=np.int64)
    out_b = np.zeros(1 << n, dtype=np.int64)
    _replay_py.replay_batch(n, mass, masks, cdf, xf, orders, u, acc_b, out_b)
    assert np.array_equal(acc_a, acc_b)
    assert np.array_equal(out_a, out_b)


def test_mass_table_round_trip():
    dist, _ = path_instance(3)
    table = dist.to_explicit()
    mass = mass_table(table)
    assert abs(mass.sum() - 1.0) < 1e-12
    for S, p in table.support.items():
        assert mass[sum(1 << e for e in S)] == float(p)


def test_replay_matches_exact_law():
    dist, x = path_instance(4)
    table = dist.to_explicit()
    N = 100_000
    rng = RngStream(7)
    orders = random_orders(4, N, rng)
    acc, outcomes, n_rep = replay(dist, x, orders, rng)
    emp = outcome_distribution(dist.env, outcomes, n_rep)
    keys = set(emp.support) | set(table.support)
    tv = 0.5 * sum(abs(float(emp.support.get(S, 0)) - float(table.support.get(S, 0)))
                   for S in keys)
    assert tv <= 3 * tv_multinomial_sigma(table, N)
    # acceptance frequency approximates the witness marginal
    for e in range(4):
        p = float(table.marginal(e))
        assert abs(acc[e] / n_rep - p) < 4 * (p * (1 - p) / N) ** 0.5 + 1e-3


def test_replay_matches_exact_expansion_acceptance():
    dist, x = path_instance(4)
    _, acc_exact = exact_output_law(dist, x, OrderStrategy.fixed([0, 1, 2, 3]))
    N = 100_000
    rng = RngStream(12)
    orders = np.broadcast_to(np.arange(4, dtype=np.int64), (N, 4)).copy()
    acc, outcomes, n_rep = replay(dist, x, orders, rng)
    for e in range(4):
        p = float(acc_exact[e])
        assert abs(acc[e] / n_rep - p) < 4 * (p * (1 - p) / N) ** 0.5 + 1e-3


def test_replay_rejects_cap_violating_witness():
    # Gibbs rho above x means the witness is invalid for these activations
    dist, _ = path_instance(3, w=1.0, x=0.2)    # rho = 1/2 > 0.2
    rng = RngStream(1)
    orders = random_orders(3, 100, rng)
    with pytest.raises(CapViolationError):
        replay(dist, [0.2] * 3, orders, rng)


def test_python_kernel_still_guards_the_cap():
    # replay_batch called directly, without replay's check_cap pass
    dist, _ = path_instance(3, w=1.0, x=0.2)
    n, mass, masks, cdf, xf, orders, u = _batch_inputs(dist, [0.2] * 3, 100, 1)
    with pytest.raises(ValueError, match="stationary caps"):
        _replay_py.replay_batch(n, mass, masks, cdf, xf, orders, u,
                                np.zeros(n, dtype=np.int64),
                                np.zeros(1 << n, dtype=np.int64))


def test_compiled_kernel_cap_slack_matches_dist():
    # _replay_cy.pyx cannot import dist.CAP_SLACK, so its literal is pinned here
    pyx = os.path.join(os.path.dirname(__file__), os.pardir, "src", "socrs",
                       "_replay_cy.pyx")
    with open(pyx) as fh:
        literal = re.search(r"cdef double CAP_SLACK = (\S+)", fh.read()).group(1)
    assert float(literal) == CAP_SLACK


def test_replay_reproducible():
    dist, x = path_instance(3)
    a = replay(dist, x, random_orders(3, 5000, RngStream(9)), RngStream(10))
    b = replay(dist, x, random_orders(3, 5000, RngStream(9)), RngStream(10))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_random_orders_are_permutations():
    orders = random_orders(5, 200, RngStream(0))
    for row in orders:
        assert sorted(row) == list(range(5))
