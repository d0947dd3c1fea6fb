"""Weakly-Rayleigh pipeline and the Rayleigh-inequality checker."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from socrs.counting import BaseMeasure, CountingOracle
from socrs.dist import verify_stationary_lp
from socrs.env import EnumerationBudgetError, Matroid
from socrs.generators import gen_instance
from socrs.rayleigh import (NotRayleighError, _thin, build_witness, materialize,
                            pi_conditional, rayleigh_check)
from socrs.sampling import RngStream


def triangle():
    m = Matroid.graphic(3, [(0, 1), (1, 2), (0, 2)])
    return m, BaseMeasure.uniform_on_bases(m)


def test_pipeline_triangle_marginals_and_caps():
    m, mu0 = triangle()
    x = np.array([0.3, 0.3, 0.3])
    witness = build_witness(m, mu0, x, b=1.0)
    law = materialize(witness)
    for e in range(3):
        assert abs(law.marginal(e) - x[e] / 2) < 1e-6
    rep = verify_stationary_lp(law, x, 0.5, tol=1e-6)
    assert rep.passes(0.5, tol=1e-6)
    assert not rep.violated_caps


def test_pipeline_scaled_b2():
    m, mu0 = triangle()
    x = np.array([0.3, 0.3, 0.3])
    witness = build_witness(m, mu0, x, b=2.0)
    law = materialize(witness)
    for e in range(3):
        assert abs(law.marginal(e) - x[e] / 3) < 1e-6
    rep = verify_stationary_lp(law, x, 1 / 3, tol=1e-6)
    assert rep.passes(1 / 3, tol=1e-6)


def test_pipeline_asymmetric_x():
    m, mu0 = triangle()
    x = np.array([0.2, 0.35, 0.15])
    witness = build_witness(m, mu0, x, b=1.0)
    law = materialize(witness)
    for e in range(3):
        assert abs(law.marginal(e) - x[e] / 2) < 1e-6


def test_pi_conditional_matches_materialized_table():
    m, mu0 = triangle()
    x = np.array([0.25, 0.3, 0.2])
    witness = build_witness(m, mu0, x, b=1.0)
    law = materialize(witness)
    for e in range(3):
        for T in [frozenset(), *({frozenset({f})} for f in range(3) if f != e)]:
            T = T if isinstance(T, frozenset) else next(iter(T))
            pT = float(law.support.get(T, 0.0))
            pTe = float(law.support.get(T | {e}, 0.0))
            if pT + pTe == 0:
                continue
            direct = pTe / (pT + pTe)
            assert abs(pi_conditional(witness, e, T) - direct) < 1e-9


def test_pi_conditional_dependent_is_zero():
    # spanning trees of the triangle have 2 edges; conditioning on both other
    # edges present makes adding e dependent
    m, mu0 = triangle()
    witness = build_witness(m, mu0, np.array([0.3] * 3), b=1.0)
    assert pi_conditional(witness, 0, frozenset({1, 2})) == 0.0


def test_rayleigh_check_spanning_trees():
    m, mu0 = triangle()
    ok, worst, _ = rayleigh_check(mu0, trials=50, rng=RngStream(0))
    assert ok and worst <= 1e-12


def test_rayleigh_check_determinantal():
    A = [[1, 0, 1, 1], [0, 1, 1, -1]]
    base = BaseMeasure.determinantal(A)
    ok, worst, _ = rayleigh_check(base, trials=50, rng=RngStream(1))
    assert ok


def test_rayleigh_check_negative_control():
    # positively-correlated pair violates the inequality badly
    bad = {frozenset(): 0.5, frozenset({0, 1}): 0.5}
    ok, worst, info = rayleigh_check(bad, trials=20, rng=RngStream(2))
    assert not ok and worst > 0.2
    assert info["e"] in (0, 1)


def test_build_witness_rejects_non_rayleigh_base():
    # concentrate mass on the disjoint pairs {0,1} and {2,3} of U(4,2):
    # elements 0 and 1 become positively correlated
    m = Matroid.uniform(4, 2)
    table = {frozenset({0, 1}): 0.48, frozenset({2, 3}): 0.48,
             frozenset({0, 2}): 0.01, frozenset({0, 3}): 0.01,
             frozenset({1, 2}): 0.01, frozenset({1, 3}): 0.01}
    base = BaseMeasure.explicit(m, table)
    ok, worst, _ = rayleigh_check(base, trials=5, rng=RngStream(3))
    assert not ok and worst > 0.1
    with pytest.raises(NotRayleighError):
        build_witness(m, base, np.array([0.1] * 4), b=1.0, rng=RngStream(3))


def _reference_thinning(witness):
    """mu* by brute force: every subset T of every base B gets
    p(B) prod_{e in T} tau_e prod_{e in B - T} (1 - tau_e)."""
    bases, _ = witness.oracle._family()
    probs = witness.oracle._set_probs(witness.w)
    tau = witness.tau
    support = {}
    for B, p in zip(bases, probs):
        members = sorted(B)
        for mask in range(1 << len(members)):
            T = frozenset(members[i] for i in range(len(members)) if mask >> i & 1)
            pr = float(p)
            for e in members:
                pr *= tau[e] if e in T else (1.0 - tau[e])
            support[T] = support.get(T, 0.0) + pr
    return support


WITNESS_INSTANCES = (
    [("hat-graph", 0, {"n": n, "terminal_edge": t}) for n in (1, 2, 3) for t in (False, True)]
    + [("random-graphic-matroid", s, {"n_vertices": 5, "n_edges": 8}) for s in range(6)])


@pytest.mark.parametrize("b", [1.0, 2.0])
def test_materialize_matches_per_base_thinning(b):
    for name, seed, params in WITNESS_INSTANCES:
        env, x, _ = gen_instance(name, seed=seed, **params)
        m = env.meta["matroid"]
        witness = build_witness(m, BaseMeasure.uniform_on_bases(m), np.asarray(x), b=b,
                                rng=RngStream(seed))
        got = materialize(witness).support
        expect = _reference_thinning(witness)
        assert set(got) == set(expect), (name, seed, params)
        for T, p in expect.items():
            assert abs(got[T] - p) <= 1e-14 * p, (name, seed, params, sorted(T))


def test_thin_with_unit_weights_gives_superset_sums():
    rng = np.random.default_rng(4)
    n = 5
    sets = [frozenset(S) for r in range(n + 1) for S in itertools.combinations(range(n), r)]
    sets = [S for S in sets if rng.uniform() < 0.6]
    probs = rng.uniform(0.1, 1.0, size=len(sets))
    masks = np.array([sum(1 << e for e in S) for S in sets], dtype=np.int64)
    up = _thin(masks, probs, n, np.ones(n), np.ones(n))
    for mask in range(1 << n):
        T = frozenset(e for e in range(n) if mask >> e & 1)
        direct = sum(p for S, p in zip(sets, probs) if T <= S)
        assert abs(up[mask] - direct) <= 1e-14 * max(direct, 1.0)


def test_subset_transform_budget_raises_before_allocating():
    # U(21, 1): 21 bases, but a dense table over its subsets takes 2^21 doubles
    m = Matroid.uniform(21, 1)
    mu0 = BaseMeasure.uniform_on_bases(m)
    witness = build_witness(m, mu0, np.full(21, 0.04))
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationBudgetError, match="n <= 20"):
            materialize(witness)
        with pytest.raises(EnumerationBudgetError, match="n <= 20"):
            rayleigh_check(mu0, trials=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20         # the table alone would take 16 MiB
