"""Dual solvers: gradients, marginal matching, divergence diagnosis,
dominating base points, and the KL projection."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from socrs import maxent
from socrs.counting import BaseMeasure, CountingOracle
from socrs.dist import ExplicitDistribution, verify_stationary_lp
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


@pytest.mark.parametrize("backend, env", [
    ("enumeration", k_uniform_environment(6, 6)), ("ksym-dp", k_uniform_environment(6, 6)),
    ("matching-recursion", matching_environment([(0, 1), (2, 3), (4, 5)], 6))])
def test_product_start_is_the_optimum_when_every_subset_is_feasible(backend, env):
    # every subset feasible: the product measure with marginals p is the
    # max-entropy law, so the solve takes no step at all
    oracle = CountingOracle(backend, env=env)
    p = np.random.default_rng(3).uniform(0.05, 0.95, size=env.n)
    theta0 = np.log(p / (1 - p))
    state = maxent._solve_dual(oracle, p, 1e-10, theta0)
    assert (state.descent_steps, state.newton_steps, state.fallback) == (0, 0, False)
    assert state.grad_norm <= 1e-10 and np.array_equal(state.theta, theta0)
    assert np.array_equal(solve_maxent(env, oracle, p, tol=1e-10).w, np.exp(theta0).tolist())


def _seeded_maxent_target(backend, seed):
    """(environment, target) of one seeded instance: a random target at 0.7
    of the load constraint on k-uniform(10, 3) for ksym-dp, and the
    matching's x at alpha = 1/3 on a 7-vertex 10-edge random graph."""
    if backend == "ksym-dp":
        p = np.random.default_rng(seed).uniform(0.05, 1.0, size=10)
        return k_uniform_environment(10, 3), np.minimum(p * (0.7 * 3 / p.sum()), 0.9)
    env, x, _ = gen_instance("random-graph", seed=seed, n_vertices=7, n_edges=10)
    return env, np.asarray(x) / 3


@pytest.mark.parametrize("backend", ["enumeration", "ksym-dp", "matching-recursion"])
def test_product_start_takes_fewer_descent_steps_to_the_same_law(backend):
    steps = {"zero": 0, "product": 0}
    for seed in range(8):
        env, p = _seeded_maxent_target(backend, seed)
        oracle = CountingOracle(backend, env=env)
        zero = maxent._solve_dual(oracle, p, 1e-8)
        product = maxent._solve_dual(oracle, p, 1e-8, np.log(p / (1 - p)))
        assert product.descent_steps <= zero.descent_steps
        assert not zero.fallback and not product.fallback
        enum = CountingOracle("enumeration", env=env)
        assert np.abs(enum.marginals(np.exp(product.theta))
                      - enum.marginals(np.exp(zero.theta))).max() < 1e-10
        steps["zero"] += zero.descent_steps
        steps["product"] += product.descent_steps
    assert steps["product"] < steps["zero"]


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


def _reduced_incidence(m):
    """The signed vertex-edge incidence matrix of a graphic matroid with
    vertex 0's row dropped: its determinantal measure is uniform on the
    spanning trees of a connected graph."""
    A = [[0] * m.n for _ in range(m.meta["n_vertices"] - 1)]
    for j, (u, v) in enumerate(m.meta["edges"]):
        if u:
            A[u - 1][j] = 1
        if v:
            A[v - 1][j] = -1
    return A


def _kl_case(instance):
    """(matroid, dominated point) of the 2..4-hat graphs with their terminal
    edge at x / b, and of seeded 7-vertex random graphic matroids at x."""
    if instance.endswith("-hat"):
        env, x, b = parse_instance(gen_instance("hat-graph", n=int(instance[0]),
                                                terminal_edge=True)[2])
        return env.meta["matroid"], np.asarray(x) / b
    seed, n_edges = map(int, instance.split("/"))
    env, x, _ = gen_instance("random-graphic-matroid", seed=seed, n_vertices=7,
                             n_edges=n_edges)
    return env.meta["matroid"], np.asarray(x)


@pytest.mark.parametrize("measure", ["enumeration", "matrix-tree", "cauchy-binet",
                                     "explicit-table"])
@pytest.mark.parametrize("instance", ["2-hat", "3-hat", "4-hat", "0/8", "1/10", "2/12"])
def test_kl_projection_starts_in_newton(measure, instance):
    # the KL dual takes no descent step on any backend: Newton from theta = 0
    # reaches tol without the fallback, the boundary targets shrunk or not
    m, y = _kl_case(instance)
    if measure == "cauchy-binet":
        base = BaseMeasure.determinantal(_reduced_incidence(m))
    elif measure == "explicit-table":
        rng = np.random.default_rng(m.n)
        base = BaseMeasure.explicit(m, {B: int(rng.integers(1, 5)) for B in m.bases()})
    else:
        base = BaseMeasure.uniform_on_bases(m)
    backend = "enumeration" if measure == "explicit-table" else measure
    q = dominating_base_point(m, y)
    w, q_used, state = solve_kl_projection(base, CountingOracle(backend, base=base), q,
                                           tol=1e-9)
    assert state.descent_steps == 0 and not state.fallback
    assert state.newton_steps > 0 and state.grad_norm <= 1e-9
    enum = CountingOracle("enumeration", base=base)
    assert np.abs(enum.marginals(w) - q_used).max() <= 1e-9


def test_build_rayleigh_on_the_2_hat_graph_runs_newton_only(tmp_path):
    from socrs import cli
    doc = gen_instance("hat-graph", n=2, terminal_edge=True)[2]
    inst, out = tmp_path / "hat.json", tmp_path / "witness.json"
    inst.write_text(json.dumps(doc))
    assert cli.main(["build-rayleigh", "--seed", "1", "--out", str(out), str(inst)]) == 0
    witness = json.loads(out.read_text())
    diag = witness["diagnostics"]
    assert diag["descent_steps"] == 0 and diag["descent_fallback"] is False
    assert diag["delta_shrink"] and diag["grad_norm"] <= 1e-8
    env, x, b = parse_instance(doc)
    table = {frozenset(map(int, key.split("+"))) if key != "empty" else frozenset(): p
             for key, p in witness["mu_star"].items()}
    law = ExplicitDistribution(env, table, tol=1e-9)
    for e in range(env.n):
        assert abs(law.marginal(e) - x[e] / (1 + b)) < 1e-6
    assert not verify_stationary_lp(law, list(x), 1 / (1 + b)).violated_caps


def test_maxent_dual_keeps_its_descent():
    # a seeded K5,5 matching target at alpha = (3 - sqrt 5)/2: the
    # environment oracle's dual still descends to NEWTON_HANDOFF first, from
    # either start, in the steps it always took
    env, x, _ = gen_instance("random-bipartite", seed=0, n_vertices=10, n_edges=25)
    p = (3 - math.sqrt(5)) / 2 * np.asarray(x)
    oracle = CountingOracle("enumeration", env=env)
    product = maxent._solve_dual(oracle, p, 1e-8, np.log(p / (1 - p)))
    zero = maxent._solve_dual(oracle, p, 1e-8)
    assert (product.descent_steps, product.newton_steps, product.fallback) == (2, 3, False)
    assert (zero.descent_steps, zero.newton_steps, zero.fallback) == (4, 4, False)


class _NaNAfter:
    """A stub environment oracle on k-uniform(3, 2) whose marginals turn NaN
    from its `good`-th call on; it counts every evaluation."""
    base = None

    def __init__(self, good):
        self.real = CountingOracle("enumeration", env=k_uniform_environment(3, 2))
        self.n, self.good, self.calls = 3, good, 0

    def partition(self, w):
        self.calls += 1
        return self.real.partition(w)

    def marginals(self, w):
        self.calls += 1
        marg = self.real.marginals(w)
        return marg if self.calls < self.good else np.full(self.n, np.nan)

    def second_moments(self, w):
        self.calls += 1
        return self.real.second_moments(w)


@pytest.mark.parametrize("good", [1, 4, 9])
@pytest.mark.parametrize("base", [None, "counts bases"])
def test_non_finite_marginals_stop_the_solve_at_once(good, base):
    # NaN > THETA_MAX is false, so without a finiteness check a NaN iterate
    # ran every descent step before the stall; it is no boundary divergence,
    # so the KL projection's delta-shrink retry must not catch it
    oracle = _NaNAfter(good)
    oracle.base = base
    with pytest.raises(RuntimeError, match="not finite") as info:
        maxent._solve_dual(oracle, np.array([0.5, 0.6, 0.7]), 1e-10)
    assert not isinstance(info.value, BoundaryDivergenceError)
    assert oracle.calls <= good + 5
