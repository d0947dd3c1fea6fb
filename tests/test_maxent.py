"""Dual solvers: gradients, marginal matching, divergence diagnosis,
dominating base points, and the KL projection."""

import math

import numpy as np
import pytest

from socrs.counting import BaseMeasure, CountingOracle
from socrs.env import (EnumerationBudgetError, Matroid, k_uniform_environment,
                       matching_environment)
from socrs.maxent import (BoundaryDivergenceError, barycentric_base_point,
                          dominating_base_point, dual_gradient, dual_value,
                          is_boundary_base_point, solve_kl_projection,
                          solve_maxent)


def test_gradient_matches_finite_differences():
    from socrs.generators import gen_instance
    rng = np.random.default_rng(5)
    for seed in range(8):
        env, x, _ = gen_instance("random-graph", seed=seed, n_edges=5)
        oracle = CountingOracle("enumeration", env=env)
        p = 0.3 * np.asarray(x)
        theta = rng.normal(scale=0.5, size=env.n)
        g = dual_gradient(oracle, theta, p)
        h = 1e-6
        for e in range(env.n):
            up, dn = theta.copy(), theta.copy()
            up[e] += h
            dn[e] -= h
            fd = (dual_value(oracle, up, p) - dual_value(oracle, dn, p)) / (2 * h)
            assert abs(g[e] - fd) < 1e-6


def test_maxent_hits_interior_targets():
    env = matching_environment([(0, 1), (1, 2), (0, 2)], 3)
    oracle = CountingOracle("enumeration", env=env)
    p = np.array([0.1, 0.15, 0.2])
    gibbs = solve_maxent(env, oracle, p, tol=1e-10)
    marg = oracle.marginals(np.asarray(gibbs.w, float))
    assert np.abs(marg - p).max() < 1e-8


def test_maxent_rejects_invalid_targets():
    env = k_uniform_environment(3, 1)
    oracle = CountingOracle("enumeration", env=env)
    with pytest.raises(ValueError):
        solve_maxent(env, oracle, [0.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        solve_maxent(env, oracle, [math.nan, 0.2, 0.2])
    # sum > k = 1 is outside the polytope: the dual diverges
    with pytest.raises(BoundaryDivergenceError):
        solve_maxent(env, oracle, [0.5, 0.5, 0.5])


def test_boundary_divergence_reports_coordinate():
    env = k_uniform_environment(2, 1)
    oracle = CountingOracle("enumeration", env=env)
    try:
        solve_maxent(env, oracle, [0.9, 0.2])
    except BoundaryDivergenceError as exc:
        assert exc.coord in (0, 1)
        assert abs(exc.theta[exc.coord]) > 59
    else:
        pytest.fail("expected a divergence")


def test_dominating_base_point_uniform_trace():
    # k=2, n=3, x=(1/2,1/2,1/2): index-order greedy fills to (1, 1/2, 1/2)
    m = Matroid.uniform(3, 2)
    q = dominating_base_point(m, [0.5, 0.5, 0.5])
    assert np.allclose(q, [1.0, 0.5, 0.5])
    assert abs(q.sum() - 2.0) < 1e-12


def test_dominating_base_point_graphic():
    m = Matroid.graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    x = np.array([0.3, 0.2, 0.4, 0.3, 0.25])
    q = dominating_base_point(m, x)
    assert np.all(q >= x - 1e-12)
    assert abs(q.sum() - m.rank_total) < 1e-9
    # every rank constraint holds
    for mask in range(1, 1 << m.n):
        T = frozenset(e for e in range(m.n) if mask >> e & 1)
        assert sum(q[e] for e in T) <= m.rank(T) + 1e-9
    with pytest.raises(EnumerationBudgetError, match="n <= 4"):
        dominating_base_point(m, x, enum_max_n=4)


def test_barycentric_point_is_interior():
    m = Matroid.graphic(3, [(0, 1), (1, 2), (0, 2)])
    base = BaseMeasure.uniform_on_bases(m)
    qbar = barycentric_base_point(base)
    assert np.allclose(qbar, [2 / 3] * 3)
    assert is_boundary_base_point(m, qbar) is False


def test_is_boundary_base_point():
    m = Matroid.graphic(3, [(0, 1), (1, 2), (0, 2)])
    assert is_boundary_base_point(m, [1.0, 0.5, 0.5]) is True
    assert is_boundary_base_point(m, [0.7, 0.65, 0.65]) is False


def test_kl_projection_interior_target():
    m = Matroid.graphic(3, [(0, 1), (1, 2), (0, 2)])
    base = BaseMeasure.uniform_on_bases(m)
    oracle = CountingOracle("enumeration", base=base)
    q = np.array([0.7, 0.65, 0.65])
    w, q_used = solve_kl_projection(base, oracle, q, tol=1e-10)
    assert np.allclose(q_used, q)
    assert np.abs(oracle.marginals(w) - q).max() < 1e-8


def test_kl_projection_boundary_target_shrinks():
    m = Matroid.graphic(3, [(0, 1), (1, 2), (0, 2)])
    base = BaseMeasure.uniform_on_bases(m)
    oracle = CountingOracle("enumeration", base=base)
    q = np.array([1.0, 0.5, 0.5])     # vertex of the base polytope
    w, q_used = solve_kl_projection(base, oracle, q, tol=1e-10, delta=1e-6)
    assert np.abs(q_used - q).max() > 0           # shrink happened
    assert np.abs(q_used - q).max() < 1e-5        # but barely
    assert np.abs(oracle.marginals(w) - q_used).max() < 1e-8


def test_newton_polish_reaches_tight_tolerance():
    env = matching_environment([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    oracle = CountingOracle("enumeration", env=env)
    p = np.array([0.12, 0.21, 0.08, 0.17])
    gibbs = solve_maxent(env, oracle, p, tol=1e-12)
    marg = oracle.marginals(np.asarray(gibbs.w, float))
    assert np.abs(marg - p).max() < 1e-12
