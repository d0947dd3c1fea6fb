"""Dual solvers: gradients, marginal matching, divergence diagnosis,
dominating base points, and the KL projection."""

import math
import tracemalloc

import numpy as np
import pytest

from socrs import maxent
from socrs.counting import BaseMeasure, CountingOracle
from socrs.dist import verify_stationary_lp
from socrs.env import (EnumerationBudgetError, Matroid, k_uniform_environment,
                       matching_environment)
from socrs.generators import gen_instance
from socrs.io import parse_instance
from socrs.maxent import (BoundaryDivergenceError, barycentric_base_point,
                          dominating_base_point, dual_gradient, dual_value,
                          is_boundary_base_point, solve_kl_projection,
                          solve_maxent)
from socrs.rayleigh import build_witness, materialize
from test_counting import _backends


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
    # beyond the rank table's 20 elements: 21 parallel edges
    big = Matroid.graphic(2, [(0, 1)] * 21)
    with pytest.raises(EnumerationBudgetError, match="n <= 20"):
        dominating_base_point(big, np.full(21, 0.01))


def test_subset_sums_refuse_a_vector_of_the_wrong_length():
    m = Matroid.graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    q = barycentric_base_point(BaseMeasure.uniform_on_bases(m))
    assert is_boundary_base_point(m, q) is False
    for bad in (q[:-1], np.append(q, 0.5)):
        with pytest.raises(ValueError, match="5 values"):
            m.subset_sums(bad)
        with pytest.raises(ValueError, match="5 values"):
            is_boundary_base_point(m, bad)


def test_dominating_base_point_memory_at_twenty_edges():
    _, x, doc = gen_instance("random-graphic-matroid", seed=1, n_vertices=10, n_edges=20)
    m = Matroid.graphic(10, doc["matroid"]["edges"])        # no rank table built yet
    tracemalloc.start()
    try:
        q = dominating_base_point(m, np.asarray(x))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(q.sum() - m.rank_total) < 1e-9
    # the rank table and the subset sums take 8 MiB each
    assert peak < 40 << 20


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
    w, q_used, _ = solve_kl_projection(base, oracle, q, tol=1e-10)
    assert np.allclose(q_used, q)
    assert np.abs(oracle.marginals(w) - q).max() < 1e-8


def test_kl_projection_boundary_target_shrinks():
    m = Matroid.graphic(3, [(0, 1), (1, 2), (0, 2)])
    base = BaseMeasure.uniform_on_bases(m)
    oracle = CountingOracle("enumeration", base=base)
    q = np.array([1.0, 0.5, 0.5])     # vertex of the base polytope
    w, q_used, _ = solve_kl_projection(base, oracle, q, tol=1e-10)
    assert np.abs(q_used - q).max() > 0           # shrink happened
    assert np.abs(q_used - q).max() < 1e-5        # but barely
    assert np.abs(oracle.marginals(w) - q_used).max() < 1e-8


TIGHT_ENV = matching_environment([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
TIGHT_P = np.array([0.12, 0.21, 0.08, 0.17])


def test_newton_polish_reaches_tight_tolerance():
    oracle = CountingOracle("enumeration", env=TIGHT_ENV)
    gibbs = solve_maxent(TIGHT_ENV, oracle, TIGHT_P, tol=1e-12)
    marg = oracle.marginals(np.asarray(gibbs.w, float))
    assert np.abs(marg - TIGHT_P).max() < 1e-12


def test_newton_polish_goes_below_tol():
    # K8 at alpha = 1/3: stopping at the first iterate under tol, Newton
    # from |grad| <= 1e-2 lands at 5e-9 and alpha_achieved falls 8e-9 short
    env, x, _ = parse_instance(gen_instance("random-graph", seed=2239550589,
                                            n_vertices=8, n_edges=28)[2])
    oracle = CountingOracle("enumeration", env=env)
    p = np.asarray(x) / 3
    gibbs = solve_maxent(env, oracle, p, tol=1e-8)
    assert np.abs(oracle.marginals(np.asarray(gibbs.w, float)) - p).max() < 1e-10


def test_descent_fallback_reaches_tol_when_newton_fails(monkeypatch):
    monkeypatch.setattr(maxent, "_newton_polish", lambda *args, **kwargs: False)
    oracle = CountingOracle("enumeration", env=TIGHT_ENV)
    state = maxent._solve_dual(oracle, TIGHT_P, 1e-12)
    assert state.fallback and state.newton_steps == 0
    assert state.grad_norm <= 1e-12
    assert np.abs(oracle.marginals(np.exp(state.theta)) - TIGHT_P).max() <= 1e-12


@pytest.mark.parametrize("family", ["k-uniform", "matching", "spanning-trees", "determinantal"])
def test_one_dual_schedule_on_every_backend(family):
    # descent, then Newton on the backend's own second moments: ksym-dp,
    # matching-recursion, matrix-tree and cauchy-binet
    kw, (_, backend) = _backends(family)
    enum = CountingOracle("enumeration", **kw)
    rng = np.random.default_rng(7)
    p = enum.marginals(np.exp(rng.uniform(-1.5, 1.5, size=enum.n)))
    expect = enum.marginals(np.exp(maxent._solve_dual(enum, p, 1e-9).theta))
    state = maxent._solve_dual(CountingOracle(backend, **kw), p, 1e-9)
    assert state.newton_steps > 0 and not state.fallback
    assert state.grad_norm <= 1e-9
    assert np.abs(enum.marginals(np.exp(state.theta)) - expect).max() < 1e-8


def test_matrix_tree_kl_projection_reaches_tol():
    # the delta-shrunk 2-hat target: descent alone stalls here at
    # |grad| ~ 3e-6, so the matrix-tree solve needs its Newton steps
    env, x, b = parse_instance(gen_instance("hat-graph", n=2, terminal_edge=True)[2])
    m = env.meta["matroid"]
    base = BaseMeasure.uniform_on_bases(m)
    q = dominating_base_point(m, np.asarray(x) / b)
    w, q_used, state = solve_kl_projection(base, CountingOracle("matrix-tree", base=base),
                                           q, tol=1e-9)
    assert state.newton_steps > 0 and state.grad_norm <= 1e-9
    assert np.any(q_used != q)
    enum = CountingOracle("enumeration", base=base)
    assert np.abs(enum.marginals(w) - q_used).max() <= 1e-12


def test_interior_kl_projection_reads_no_bases(monkeypatch):
    # the diamond graph at its uniform spanning-tree marginals: an interior
    # target is not shrunk, so the matrix-tree projection enumerates no bases
    m = Matroid.graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    q = barycentric_base_point(BaseMeasure.uniform_on_bases(m))
    assert is_boundary_base_point(m, q) is False
    calls = []
    real = BaseMeasure.family
    monkeypatch.setattr(BaseMeasure, "family", lambda self: calls.append(1) or real(self))
    base = BaseMeasure.uniform_on_bases(m)
    w, q_used, _ = solve_kl_projection(base, CountingOracle("matrix-tree", base=base), q,
                                       tol=1e-10)
    assert calls == [] and np.array_equal(q_used, q)
    assert np.abs(CountingOracle("matrix-tree", base=base).marginals(w) - q).max() < 1e-9


@pytest.mark.parametrize("instance", ["triangle-vertex", "2-hat"])
def test_shrunk_kl_projection_targets_the_barycentric_mix(instance):
    # boundary targets, the rayleigh-witness 2-hat graph among them, shrink
    # toward the barycentric point bit for bit as they always did
    if instance == "triangle-vertex":
        m = Matroid.graphic(3, [(0, 1), (1, 2), (0, 2)])
        q = np.array([1.0, 0.5, 0.5])
    else:
        env, x, b = parse_instance(gen_instance("hat-graph", n=2, terminal_edge=True)[2])
        m = env.meta["matroid"]
        q = dominating_base_point(m, np.asarray(x) / b)
    base = BaseMeasure.uniform_on_bases(m)
    oracle = CountingOracle("enumeration", base=base)
    w, q_used, _ = solve_kl_projection(base, oracle, q)
    shrunk = (1 - maxent.DELTA_SHRINK) * q + maxent.DELTA_SHRINK * barycentric_base_point(base)
    assert np.array_equal(q_used, shrunk)
    assert np.array_equal(w, np.exp(maxent._solve_dual(oracle, shrunk, 1e-8).theta))


def test_kl_projection_near_boundary_hands_over_to_newton():
    # the delta-shrunk 2-hat target: descent to |grad| <= 1e-6 alone runs
    # 20,000 steps here
    env, x, b = parse_instance(gen_instance("hat-graph", n=2, terminal_edge=True)[2])
    m = env.meta["matroid"]
    witness = build_witness(m, BaseMeasure.uniform_on_bases(m), np.asarray(x), b=b,
                            check_rayleigh=False)
    assert witness.solver.descent_steps < 200
    assert not witness.solver.fallback
    assert np.any(witness.q_used != witness.q)
    law = materialize(witness)
    for e in range(env.n):
        assert abs(law.marginal(e) - x[e] / (1 + b)) < 1e-6
    assert not verify_stationary_lp(law, list(x), 1 / (1 + b)).violated_caps


def test_newton_accepts_steps_below_the_rounding_of_h():
    # here the last Newton steps change h by less than its rounding; a strict
    # Armijo test on h would reject them and the descent fallback stalls
    m = Matroid.graphic(4, [(0, 3), (1, 2), (1, 3), (2, 3)])
    x = np.array([0.13973781827063406, 0.4033800355670849,
                  0.7136866454856076, 0.7980620881085303])
    witness = build_witness(m, BaseMeasure.uniform_on_bases(m), x, tol=1e-12,
                            check_rayleigh=False)
    assert not witness.solver.fallback
    assert witness.solver.grad_norm <= 1e-12
