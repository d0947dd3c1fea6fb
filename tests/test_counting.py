"""Counting oracles: backends, precision modes, pinned counts."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socrs.counting import (BaseMeasure, CountingOracle,
                            SingularRepresentationError, det_bareiss, det_double)
from socrs.env import Matroid, k_uniform_environment, matching_environment


def path3_env():
    # edges 0-1, 1-2, 2-3: matchings are {}, {0}, {1}, {2}, {0,2}
    return matching_environment([(0, 1), (1, 2), (2, 3)], 4)


def brute_partition(env, w):
    return sum(math.prod(float(w[e]) for e in S) for S in env.enumerate_feasible())


def test_det_bareiss_known_values():
    assert det_bareiss([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]) == 3
    assert det_bareiss([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 0
    M = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert det_bareiss(M) == -1
    assert det_bareiss([]) == 1


def test_det_double_matches_bareiss():
    rng = np.random.default_rng(0)
    for _ in range(10):
        M = rng.integers(-5, 6, size=(4, 4))
        exact = det_bareiss([[Fraction(int(v)) for v in row] for row in M])
        sign, logdet = det_double(M.astype(float))
        assert abs(sign * math.exp(logdet) - float(exact)) < 1e-8 * max(1, abs(exact))


def test_partition_closed_form_path():
    env = path3_env()
    w = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]
    o = CountingOracle("enumeration", env=env, mode="rational")
    expect = 1 + w[0] + w[1] + w[2] + w[0] * w[2]
    assert o.partition(w) == expect
    o2 = CountingOracle("matching-recursion", env=env, mode="rational")
    assert o2.partition(w) == expect
    od = CountingOracle("enumeration", env=env, mode="double")
    assert abs(od.partition([0.5, 1 / 3, 0.2]) - math.log(float(expect))) < 1e-12


def test_matching_recursion_agrees_with_enumeration():
    from socrs.generators import gen_instance
    for seed in range(5):
        env, _, _ = gen_instance("random-graph", seed=seed, n_edges=7)
        w = [Fraction(i + 1, 7) for i in range(env.n)]
        a = CountingOracle("enumeration", env=env, mode="rational").partition(w)
        b = CountingOracle("matching-recursion", env=env, mode="rational").partition(w)
        assert a == b


def test_ksym_dp_agrees_with_enumeration():
    env = k_uniform_environment(6, 3)
    w = [Fraction(i + 1, 5) for i in range(6)]
    a = CountingOracle("enumeration", env=env, mode="rational").partition(w)
    b = CountingOracle("ksym-dp", env=env, mode="rational").partition(w)
    assert a == b
    e = 2
    ae = CountingOracle("enumeration", env=env, mode="rational").marginal_sum(w, e)
    be = CountingOracle("ksym-dp", env=env, mode="rational").marginal_sum(w, e)
    assert ae == be


def test_matrix_tree_equals_cauchy_binet_equals_enumeration():
    import networkx as nx
    import itertools
    for g in [nx.complete_graph(4), nx.cycle_graph(5), nx.complete_graph(5)]:
        edges = list(g.edges())
        m = Matroid.graphic(g.number_of_nodes(), edges)
        base = BaseMeasure.uniform_on_bases(m)
        # incidence representation: rows = vertices 1.. (one dropped), +1/-1
        nv = g.number_of_nodes()
        A = [[0] * len(edges) for _ in range(nv - 1)]
        for j, (u, v) in enumerate(edges):
            if u != 0:
                A[u - 1][j] = 1
            if v != 0:
                A[v - 1][j] = -1
        det_base = BaseMeasure.determinantal(A)
        w = [Fraction(j + 2, 3) for j in range(len(edges))]
        a = CountingOracle("enumeration", base=base, mode="rational").partition(w)
        b = CountingOracle("matrix-tree", base=base, mode="rational").partition(w)
        c = CountingOracle("cauchy-binet", base=det_base, mode="rational").partition(w)
        assert a == b == c


def test_closed_form_backends_refuse_other_measures():
    tri = Matroid.graphic(3, [(0, 1), (1, 2), (0, 2)])
    bases = tri.bases()
    table = BaseMeasure.explicit(tri, {B: Fraction(i + 1) for i, B in enumerate(bases)})
    w = [Fraction(2), Fraction(3), Fraction(5)]
    # masses 1, 2, 3 over 6; matrix-tree would weigh the trees uniformly (31/3)
    Z = CountingOracle("enumeration", base=table, mode="rational").partition(w)
    assert Z == Fraction(71, 6)
    with pytest.raises(ValueError, match="uniform"):
        CountingOracle("matrix-tree", base=table)
    with pytest.raises(ValueError, match="determinantal"):
        CountingOracle("cauchy-binet", base=table)
    with pytest.raises(ValueError, match="determinantal"):
        CountingOracle("cauchy-binet", base=BaseMeasure.uniform_on_bases(tri))
    # two components: no spanning tree, so the reduced Laplacian is singular
    forest = Matroid.graphic(4, [(0, 1), (2, 3)])
    for mode in ("double", "rational"):
        with pytest.raises(SingularRepresentationError):
            CountingOracle("matrix-tree", base=BaseMeasure.uniform_on_bases(forest), mode=mode)


def test_matrix_tree_refuses_a_non_graphic_matroid():
    # U(4, 2) is not graphic: no Laplacian weighs its bases; enumeration does
    base = BaseMeasure.uniform_on_bases(Matroid.uniform(4, 2))
    for mode in ("double", "rational"):
        with pytest.raises(ValueError, match="graphic"):
            CountingOracle("matrix-tree", base=base, mode=mode)
    Z = CountingOracle("enumeration", base=base, mode="rational").partition([Fraction(1)] * 4)
    assert Z == 1


def test_determinantal_marginals_match_table():
    A = [[1, 0, 1], [0, 1, 1]]
    base = BaseMeasure.determinantal(A)
    o = CountingOracle("cauchy-binet", base=base, mode="rational")
    ot = CountingOracle("enumeration", base=base, mode="rational")
    w = [Fraction(1), Fraction(2), Fraction(3)]
    for e in range(3):
        assert o.marginal_probability(w, e) == ot.marginal_probability(w, e)


def test_matrix_tree_double_mode_beyond_float_range():
    # K6 at w = e^150: Z = e^750 overflows a float, while log Z does not
    import networkx as nx
    m = Matroid.graphic(6, list(nx.complete_graph(6).edges()))
    o = CountingOracle("matrix-tree", base=BaseMeasure.uniform_on_bases(m), mode="double")
    w = [math.exp(150)] * m.n
    assert abs(o.partition(w) - 750) < 1e-9
    assert np.abs(o.marginals(w) - 1 / 3).max() < 1e-12      # 5 of 15 edges


def test_multi_affinity():
    # Z is affine in each coordinate: three collinear evaluations
    env = path3_env()
    o = CountingOracle("enumeration", env=env, mode="rational")
    base = [Fraction(1, 2), Fraction(2, 3), Fraction(1, 4)]
    for e in range(3):
        vals = []
        for t in (Fraction(1), Fraction(2), Fraction(3)):
            w = list(base)
            w[e] = t
            vals.append(o.partition(w))
        assert vals[2] - vals[1] == vals[1] - vals[0]


def test_constrained_count_vs_enumeration():
    env = path3_env()
    fam = env.enumerate_feasible()
    w = [Fraction(1, 2), Fraction(2, 3), Fraction(1, 4)]
    o = CountingOracle("enumeration", env=env, mode="rational")
    for I, J in [([0], []), ([], [1]), ([0], [1]), ([2], [0, 1]), ([], [])]:
        direct = sum(math.prod([Fraction(1)] + [w[e] for e in S])
                     for S in fam if set(I) <= S and not (set(J) & S))
        assert o.constrained_count(w, I, J) == direct
    od = CountingOracle("enumeration", env=env, mode="double")
    wf = [0.5, 2 / 3, 0.25]
    for I, J in [([0], []), ([0], [1]), ([2], [0, 1])]:
        direct = sum(math.prod([1.0] + [wf[e] for e in S])
                     for S in fam if set(I) <= S and not (set(J) & S))
        assert abs(od.constrained_count(wf, I, J) - direct) < 1e-10


def test_constrained_count_pin_limit_in_double_mode():
    # pinning reduces the instance, so double mode has no pin limit and
    # agrees with rational mode at 10-12 pins
    env = k_uniform_environment(16, 7)
    rng = np.random.default_rng(12)
    w = [Fraction(int(v), 8) for v in rng.integers(1, 25, size=16)]
    wf = [float(v) for v in w]
    for backend in ["ksym-dp", "enumeration"]:
        od = CountingOracle(backend, env=env, mode="double")
        orat = CountingOracle(backend, env=env, mode="rational")
        for I, J in [(range(5), range(5, 10)), (range(3), range(3, 12)),
                     (range(0, 12, 2), range(1, 11, 2)), (range(7), range(7, 12))]:
            exact = orat.constrained_count(w, I, J)
            assert exact > 0
            assert abs(od.constrained_count(wf, I, J) - float(exact)) <= 1e-12 * float(exact)
    orat = CountingOracle("ksym-dp", env=k_uniform_environment(10, 4), mode="rational")
    val = orat.constrained_count([Fraction(1)] * 10, [0, 1], list(range(2, 9)))
    # sets containing {0,1}, avoiding 2..8, size <= 4: {0,1} and {0,1,9}
    assert val == 2


def test_thinned_mass_vs_direct():
    m = Matroid.graphic(3, [(0, 1), (1, 2), (0, 2)])
    base = BaseMeasure.uniform_on_bases(m)
    o = CountingOracle("enumeration", base=base, mode="rational")
    w = [Fraction(1, 2), Fraction(1), Fraction(2)]
    tau = [Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)]
    table = base.to_table()
    Z = sum(mu * math.prod([Fraction(1)] + [w[e] for e in B]) for B, mu in table.items())

    def direct(T):
        T = frozenset(T)
        tot = Fraction(0)
        for B, mu in table.items():
            if not (T <= B):
                continue
            pr = mu * math.prod([Fraction(1)] + [w[e] for e in B]) / Z
            for e in B:
                pr *= tau[e] if e in T else (1 - tau[e])
            tot += pr
        return tot

    for T in [(), (0,), (1,), (0, 1), (1, 2), (0, 2)]:
        exact = o.thinned_mass(w, tau, T)
        assert exact == direct(T)
    od = CountingOracle("enumeration", base=base, mode="double")
    for T in [(), (0,), (0, 1)]:
        assert abs(od.thinned_mass(list(map(float, w)), list(map(float, tau)), T)
                   - float(direct(T))) < 1e-12


def test_rational_and_double_partition_agree():
    env = path3_env()
    orat = CountingOracle("enumeration", env=env, mode="rational")
    od = CountingOracle("enumeration", env=env, mode="double")
    w = [Fraction(3, 7), Fraction(5, 2), Fraction(9, 4)]
    assert abs(float(od.partition(list(map(float, w))))
               - math.log(float(orat.partition(w)))) < 1e-12


def test_marginals_sum_rule():
    # sum_e P[e in S] = E|S|
    env = k_uniform_environment(5, 2)
    o = CountingOracle("enumeration", env=env, mode="double")
    w = [0.3, 0.7, 1.1, 0.2, 0.9]
    marg = o.marginals(w)
    fam = env.enumerate_feasible()
    mass = np.array([math.prod([1.0] + [w[e] for e in S]) for S in fam])
    mass /= mass.sum()
    expect = sum(p * len(S) for p, S in zip(mass, fam))
    assert abs(marg.sum() - expect) < 1e-12


def test_second_moments_diagonal_is_marginal():
    env = k_uniform_environment(4, 2)
    o = CountingOracle("enumeration", env=env, mode="double")
    w = [0.5, 1.5, 0.8, 1.2]
    M = o.second_moments(w)
    marg = o.marginals(w)
    assert np.allclose(np.diag(M), marg, atol=1e-12)
    assert np.allclose(M, M.T, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(min_value=Fraction(1, 10), max_value=Fraction(3)),
                min_size=2, max_size=5))
def test_ksym_partition_property(w):
    n = len(w)
    env = k_uniform_environment(n, min(2, n))
    a = CountingOracle("enumeration", env=env, mode="rational").partition(w)
    b = CountingOracle("ksym-dp", env=env, mode="rational").partition(w)
    assert a == b


def test_base_measure_normalization_and_mass():
    m = Matroid.graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    base = BaseMeasure.uniform_on_bases(m)
    table = base.to_table()
    assert sum(table.values()) == 1
    assert all(v > 0 for v in table.values())
    some_base = next(iter(table))
    assert base.mass(some_base) == table[some_base]
    assert base.mass(frozenset({0, 1})) == 0      # 2 edges cannot span 4 vertices


def test_spanning_tree_mass_enumerates_bases_once(monkeypatch):
    m = Matroid.graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    base = BaseMeasure.uniform_on_bases(m)
    expect = {B: Fraction(1, 8) for B in m.bases()}
    calls = []
    bases = Matroid.bases
    monkeypatch.setattr(Matroid, "bases", lambda self: calls.append(1) or bases(self))
    assert base.to_table() == expect
    assert base.mass(frozenset({0, 1})) == 0
    assert len(calls) == 1


# an r x n representation with every r-subset of columns independent
_DET_A = [[1, 0, 0, 1, 2], [0, 1, 0, 1, -1], [0, 0, 1, 1, 1]]


def _backends(family):
    """(constructor keywords, backends) of one test family."""
    if family == "k-uniform":
        return {"env": k_uniform_environment(5, 2)}, ["enumeration", "ksym-dp"]
    if family == "matching":
        env = matching_environment([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4)
        return {"env": env}, ["enumeration", "matching-recursion"]
    if family == "spanning-trees":
        m = Matroid.graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        base = BaseMeasure.uniform_on_bases(m)
        return {"base": base}, ["enumeration", "matrix-tree"]
    return ({"base": BaseMeasure.determinantal(_DET_A)},
            ["enumeration", "cauchy-binet"])


# a pinned-in block that no set of the family holds: |I| > k, two edges
# sharing a vertex, a 4-cycle, more elements than the rank
_DEPENDENT_PINS = {"k-uniform": [0, 1, 2], "matching": [0, 1],
                   "spanning-trees": [0, 1, 2, 3], "determinantal": [0, 1, 2, 3]}


def _close(got, exact, tol=1e-12):
    return abs(got - float(exact)) <= tol * max(1.0, abs(float(exact)))


@pytest.mark.parametrize("family", ["k-uniform", "matching", "spanning-trees", "determinantal"])
def test_double_mode_matches_rational_mode(family):
    kw, backends = _backends(family)
    rng = np.random.default_rng(11)
    for backend in backends:
        od = CountingOracle(backend, mode="double", **kw)
        orat = CountingOracle(backend, mode="rational", **kw)
        enum = backend == "enumeration"
        n = od.n
        for trial in range(4):
            w = [Fraction(int(v), 8) for v in rng.integers(1, 25, size=n)]
            if trial:
                w[trial % n] = Fraction(0)        # a zero weight removes its sets
            wf = [float(v) for v in w]
            Z = orat.partition(w)
            assert abs(od.partition(wf) - math.log(Z)) < 1e-12
            marg = od.marginals(wf)
            M = od.second_moments(wf) if enum else None
            for e in range(n):
                ms = orat.marginal_sum(w, e)
                got = od.marginal_sum(wf, e)
                if ms == 0:
                    assert got == -math.inf
                else:
                    assert abs(got - math.log(ms)) < 1e-12
                assert abs(marg[e] - float(ms / Z)) < 1e-12
                for f in range(n):
                    both = orat.constrained_count(w, {e, f}, [])
                    assert _close(od.constrained_count(wf, {e, f}, []), both)
                    if e != f:
                        assert _close(od.constrained_count(wf, [e], [f]),
                                      orat.constrained_count(w, [e], [f]))
                    if enum:
                        assert abs(M[e, f] - float(both / Z)) < 1e-12
            I = _DEPENDENT_PINS[family]
            for J in ([], [n - 1]):
                assert orat.constrained_count(w, I, J) == 0
                assert _close(od.constrained_count(wf, I, J), 0)


@pytest.mark.parametrize("family", ["spanning-trees", "determinantal"])
def test_thinned_mass_double_matches_rational(family):
    kw, backends = _backends(family)
    n = kw["base"].matroid.n
    rng = np.random.default_rng(5)
    w = [Fraction(int(v), 4) for v in rng.integers(1, 13, size=n)]
    tau = [Fraction(int(v), 10) for v in rng.integers(1, 10, size=n)]
    tau[n - 1] = Fraction(1)          # an element kept outright: weight 0 outside T
    wf, tauf = [float(v) for v in w], [float(v) for v in tau]
    Ts = [(), (0,), (1, 3), (0, 1, 2), (2, 3, 4), (1, 2, 4)]
    for backend in backends:
        od = CountingOracle(backend, mode="double", **kw)
        orat = CountingOracle(backend, mode="rational", **kw)
        for T in Ts:
            assert _close(od.thinned_mass(wf, tauf, T), orat.thinned_mass(w, tau, T))




@pytest.mark.parametrize("mode", ["double", "rational"])
@pytest.mark.parametrize("family, backend", [("matching", "matching-recursion"),
                                             ("k-uniform", "ksym-dp"),
                                             ("spanning-trees", "matrix-tree")])
def test_marginals_compute_z_once(family, backend, mode, monkeypatch):
    kw, _ = _backends(family)
    oracle = CountingOracle(backend, mode=mode, **kw)
    w = [float(v) for v in np.random.default_rng(3).uniform(0.5, 2.0, size=oracle.n)]
    expect = [float(oracle.marginal_probability(w, e)) for e in range(oracle.n)]
    calls = []
    partition = CountingOracle.partition
    monkeypatch.setattr(CountingOracle, "partition",
                        lambda self, v: calls.append(1) or partition(self, v))
    assert oracle.marginals(w).tolist() == expect
    assert len(calls) == 1


@pytest.mark.parametrize("family", ["matching", "spanning-trees"])
def test_last_tilt_memo_matches_fresh_oracles(family):
    kw, _ = _backends(family)
    oracle = CountingOracle("enumeration", **kw)
    rng = np.random.default_rng(5)
    w1, w2 = (np.exp(rng.uniform(-1.0, 1.0, size=oracle.n)) for _ in range(2))

    def evaluate(o, w):
        return [o.partition(w), o.marginals(w), o.second_moments(w),
                o.pinned(w, [0], [1]), o.partition(w)]

    for w in (w1, w2, w1):
        got, expect = evaluate(oracle, w), evaluate(CountingOracle("enumeration", **kw), w)
        for a, b in zip(got, expect):
            assert np.array_equal(a, b)
    p = oracle._set_probs(w1)
    assert not p.flags.writeable
    with pytest.raises(ValueError):
        p[0] = 0.0
