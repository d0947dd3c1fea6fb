"""Environments, matroids, and membership checks."""

import itertools
import json
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socrs import cli
from socrs.env import (ORACLE_BLOCK, ActivationVector, EnumerationBudgetError,
                       Environment, EnvironmentError_, Matroid, check_membership,
                       hypergraph_matching_environment, k_uniform_environment,
                       matching_environment, matroid_environment)


def triangle_env():
    return matching_environment([(0, 1), (1, 2), (0, 2)], 3)


def test_matching_feasibility():
    env = triangle_env()
    assert env.is_feasible(frozenset())
    assert env.is_feasible({0})
    assert not env.is_feasible({0, 1})     # share vertex 1
    assert not env.is_feasible({0, 1, 2})


def test_enumerate_feasible_order_and_content():
    env = triangle_env()
    fam = env.enumerate_feasible()
    assert fam == [frozenset(), frozenset({0}), frozenset({1}), frozenset({2})]
    # deterministic: sorted by (size, lexicographic members)
    assert fam == env.enumerate_feasible()


def test_downward_closure_random_graphs():
    from socrs.generators import gen_instance
    for seed in range(5):
        env, _, _ = gen_instance("random-graph", seed=seed)
        fam = set(env.enumerate_feasible())
        for S in fam:
            for e in S:
                assert S - {e} in fam


def _reference_family(env):
    """(sets, index, down, up, caps, inc) by brute force over frozensets: each
    level is every feasible S + e of the level below, sorted by (size, lex)."""
    level, sets = {frozenset()}, []
    while level:
        sets += sorted(level, key=sorted)
        level = {S | {e} for S in level for e in range(env.n)
                 if e not in S and env.is_feasible(S | {e})}
    index = {S: p for p, S in enumerate(sets)}
    N = len(sets)
    down = [[index[S - {e}] for e in range(env.n)] for S in sets] + [[N] * env.n]
    up = [[index.get(S | {e}, N) for e in range(env.n)] for S in sets] + [[N] * env.n]
    caps = [[p, e, index[S - {e}]] for p, S in enumerate(sets) for e in sorted(S)]
    inc = [[e in S for e in range(env.n)] for S in sets]
    return sets, index, down, up, caps, inc


@st.composite
def _environment_builders(draw):
    """A zero-argument function building a fresh environment of a random kind."""
    kind = draw(st.sampled_from(["matching", "bipartite", "hypergraph", "k-uniform",
                                 "graphic", "uniform", "star", "oracle"]))
    nv = draw(st.integers(2, 7))
    if kind == "matching":
        edges = draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1))
                              .filter(lambda e: e[0] != e[1]), max_size=10))
        return lambda: matching_environment(edges, nv)
    if kind == "bipartite":
        left = draw(st.integers(1, nv - 1))
        edges = draw(st.lists(st.tuples(st.integers(0, left - 1), st.integers(left, nv - 1)),
                              max_size=10))
        return lambda: matching_environment(edges, nv, sides=[0] * left + [1] * (nv - left))
    if kind == "hypergraph":
        edges = draw(st.lists(st.sets(st.integers(0, nv + 2), min_size=1, max_size=3),
                              max_size=9))
        return lambda: hypergraph_matching_environment(edges)
    if kind == "k-uniform":
        n = draw(st.integers(0, 8))
        k = draw(st.integers(0, n))
        return lambda: k_uniform_environment(n, k)
    if kind == "graphic":
        edges = draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)),
                              max_size=9))
        return lambda: matroid_environment(Matroid.graphic(nv, edges))
    if kind == "uniform":
        n = draw(st.integers(0, 8))
        k = draw(st.integers(0, n))
        return lambda: matroid_environment(Matroid.uniform(n, k))
    if kind == "star":      # 64 elements, more than a 64-bit set mask holds
        return lambda: matching_environment([(0, i) for i in range(1, 65)])
    # only a custom oracle: a knapsack, downward closed
    weights = draw(st.lists(st.integers(1, 5), max_size=8))
    budget = draw(st.integers(0, 10))
    return lambda: Environment(len(weights), "knapsack",
                               lambda S: sum(weights[e] for e in S) <= budget)


@settings(max_examples=80, deadline=None)
@given(_environment_builders())
def test_family_matches_brute_force(build):
    sets, index, down, up, caps, inc = _reference_family(build())
    fam = build().family()
    assert fam.sets == sets and fam.index == index
    assert fam.down.tolist() == down and fam.up.tolist() == up
    assert fam.caps.T.tolist() == caps and fam.caps.dtype == np.int64
    assert fam.inc.dtype == bool and fam.inc.tolist() == inc
    env = build()
    with pytest.raises(EnumerationBudgetError):
        env.enumerate_feasible(cap=len(sets) - 1)
    assert env.enumerate_feasible(cap=len(sets)) == sets
    with pytest.raises(EnumerationBudgetError):    # also once the family is cached
        env.enumerate_feasible(cap=len(sets) - 1)


def test_matching_family_builds_its_sets_on_first_read_and_holds_no_environment():
    env = matching_environment([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    fam = env.family()
    fam.inc, fam.caps, fam.down, fam.up
    assert "sets" not in vars(fam)      # every table comes from the parent pointers
    alive = weakref.ref(env)
    del env
    assert alive() is None              # no reference cycle keeps it
    assert fam.sets == [frozenset(), {0}, {1}, {2}, {3}, {0, 2}, {1, 3}]
    assert fam.index[frozenset({1, 3})] == 6 == len(fam) - 1


def test_enumeration_budget_stops_before_a_large_level():
    """K40 has 781 matchings of size <= 1 and 274,951 of size <= 2: with a
    cap between the two, the second level's sets are never built."""
    env = matching_environment(list(itertools.combinations(range(40), 2)))
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationBudgetError):
            env.enumerate_feasible(cap=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6       # the level's frozensets alone would take about 60 MB


def test_enumeration_budget_stops_the_oracle_within_a_block():
    """Every pair of 200 elements is feasible (19,900 candidates on level 2):
    the oracle is called for at most one block of them past the cap."""
    calls = [0]

    def feasible(S):
        calls[0] += 1
        return len(S) <= 2

    with pytest.raises(EnumerationBudgetError):
        Environment(200, "pairs", feasible).enumerate_feasible(cap=300)
    assert calls[0] <= 300 + ORACLE_BLOCK


@pytest.mark.parametrize("doc", [
    {"kind": "general-matching", "edges": [[0, 1], [2, 2]], "x": [0.3, 0.3]},
    {"kind": "hypergraph-matching", "edges": [[0, 1, 1], [2, 3]], "x": [0.3, 0.3]}])
def test_edge_repeating_a_vertex_is_refused(doc):
    build = (matching_environment if doc["kind"] == "general-matching"
             else hypergraph_matching_environment)
    with pytest.raises(EnvironmentError_, match="repeats a vertex"):
        build(doc["edges"])
    assert cli.main(["verify-lp", "--alpha", "0.3", json.dumps(doc)]) == 2


def test_k_uniform():
    env = k_uniform_environment(4, 2)
    fam = env.enumerate_feasible()
    assert len(fam) == 1 + 4 + 6
    assert env.is_feasible({0, 3}) and not env.is_feasible({0, 1, 2})


def test_hypergraph_L_derived():
    env = hypergraph_matching_environment([(0, 1, 2), (2, 3), (4, 5, 6)])
    assert env.meta["L"] == 3
    assert not env.is_feasible({0, 1})     # share vertex 2
    assert env.is_feasible({0, 2})


def test_uniform_matroid_rank():
    m = Matroid.uniform(5, 3)
    assert m.rank(frozenset()) == 0
    assert m.rank(frozenset({0, 1})) == 2
    assert m.rank(frozenset(range(5))) == 3
    assert m.rank_total == 3


def test_graphic_rank_is_vertices_minus_components():
    import networkx as nx
    for seed in range(10):
        g = nx.gnp_random_graph(6, 0.5, seed=seed)
        edges = list(g.edges())
        if not edges:
            continue
        m = Matroid.graphic(6, edges)
        for mask in range(1 << min(len(edges), 10)):
            T = frozenset(e for e in range(len(edges)) if mask >> e & 1)
            h = nx.Graph()
            h.add_nodes_from(range(6))
            h.add_edges_from(edges[e] for e in T)
            touched = set(v for e in T for v in edges[e])
            sub = h.subgraph(touched)
            comp = nx.number_connected_components(sub) if touched else 0
            assert m.rank(T) == len(touched) - comp


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(1, 5), st.data())
def test_matroid_rank_axioms(n, k, data):
    k = min(k, n)
    kind = data.draw(st.sampled_from(["uniform", "graphic"]))
    if kind == "uniform":
        m = Matroid.uniform(n, k)
    else:
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=1, max_size=6))
        m = Matroid.graphic(n, edges)
    ground = list(range(m.n))
    A = frozenset(data.draw(st.sets(st.sampled_from(ground), max_size=m.n))) if ground else frozenset()
    B = frozenset(data.draw(st.sets(st.sampled_from(ground), max_size=m.n))) if ground else frozenset()
    rA, rB = m.rank(A), m.rank(B)
    assert 0 <= rA <= len(A)
    if A <= B:
        assert rA <= rB
    # submodularity
    assert m.rank(A | B) + m.rank(A & B) <= rA + rB


def test_exchange_property_small():
    m = Matroid.graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    env = matroid_environment(m)
    fam = env.enumerate_feasible()
    indep = set(fam)
    for A, B in itertools.product(fam, fam):
        if len(A) < len(B):
            assert any(A | {e} in indep for e in B - A)


def test_linear_matroid_rational_and_float():
    A = [[1, 0, 1], [0, 1, 1]]
    m = Matroid.linear(A)
    assert m.rank(frozenset({0, 1})) == 2
    assert m.rank(frozenset({0, 1, 2})) == 2
    mf = Matroid.linear([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
    assert mf.rank(frozenset({0, 2})) == 2


def test_bases_and_explicit_matroid():
    m = Matroid.graphic(3, [(0, 1), (1, 2), (0, 2)])
    bases = m.bases()
    assert len(bases) == 3 and all(len(B) == 2 for B in bases)
    indep = {frozenset()} | {frozenset({e}) for e in range(3)} | set(bases)
    m2 = Matroid.explicit(3, indep)
    assert m2.rank(frozenset({0, 1, 2})) == 2
    assert sorted(map(sorted, m2.bases())) == sorted(map(sorted, bases))


def test_activation_vector_validation():
    ActivationVector([0.3, 0.3, 0.3])
    with pytest.raises(EnvironmentError_):
        ActivationVector([1.2, 0.3, 0.3])
    with pytest.raises(EnvironmentError_):
        ActivationVector([0.0, 0.3, 0.3])


def test_membership_bipartite_exact():
    env = matching_environment([(0, 2), (1, 2), (0, 3)], 4, sides=[0, 0, 1, 1])
    inside = check_membership(env, [0.3, 0.3, 0.3])
    assert inside.status == "inside-relint"
    outside = check_membership(env, [0.7, 0.5, 0.2])   # vertex 2 load 1.2
    assert outside.status == "outside"
    tight = check_membership(env, [0.5, 0.5, 0.3])     # vertex 2 load 1.0
    assert tight.status == "boundary"


def test_membership_k_uniform_and_matroid():
    env = k_uniform_environment(4, 2)
    assert check_membership(env, [0.4] * 4).status == "inside-relint"
    assert check_membership(env, [0.9] * 4).status == "outside"
    m = Matroid.graphic(3, [(0, 1), (1, 2), (0, 2)])
    env2 = matroid_environment(m)
    assert check_membership(env2, [0.5, 0.5, 0.5]).status == "inside-relint"
    assert check_membership(env2, [0.9, 0.9, 0.9]).status == "outside"


def test_membership_general_matching_undetermined():
    # odd-set constraints are not checked, so interior claims are not made
    env = triangle_env()
    rep = check_membership(env, [0.49, 0.49, 0.49])
    assert rep.status in ("inside", "undetermined")
    rep2 = check_membership(env, [0.8, 0.8, 0.8])   # vertex loads exceed 1
    assert rep2.status == "outside"


def test_graphic_rank_table_matches_rank_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        nv, ne = int(rng.integers(1, 7)), int(rng.integers(0, 11))
        # loops and parallel edges included
        edges = [tuple(map(int, rng.integers(0, nv, size=2))) for _ in range(ne)]
        m = Matroid.graphic(nv, edges)
        ranks = m.rank_table()
        assert ranks.tolist() == [m.rank([e for e in range(ne) if mask >> e & 1])
                                  for mask in range(1 << ne)]
        assert not ranks.flags.writeable


@st.composite
def _small_matroids(draw):
    kind = draw(st.sampled_from(["graphic", "linear", "uniform", "explicit"]))
    n = draw(st.integers(0, 7))
    if kind == "uniform":
        return Matroid.uniform(n, draw(st.integers(0, n)))
    if kind == "linear":
        return Matroid.linear(draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                                            min_size=1, max_size=3)))
    # loops and parallel edges included
    nv = draw(st.integers(1, 5))
    vertex = st.integers(0, nv - 1)
    m = Matroid.graphic(nv, draw(st.lists(st.tuples(vertex, vertex), min_size=n, max_size=n)))
    if kind == "explicit":
        subsets = [frozenset(T) for r in range(n + 1) for T in itertools.combinations(range(n), r)]
        m = Matroid.explicit(n, [T for T in subsets if m.is_independent(T)])
    return m


@settings(max_examples=80, deadline=None)
@given(_small_matroids(), st.data())
def test_rank_table_and_subset_sums_are_indexed_by_mask(m, data):
    # mixed signs and magnitudes: each sum must add T's elements in ascending order
    value = st.one_of(st.floats(-1e-6, 1e-6), st.floats(-1e9, 1e9))
    x = data.draw(st.lists(value, min_size=m.n, max_size=m.n))
    ranks, sums = m.rank_table(), m.subset_sums(x)
    assert len(ranks) == len(sums) == 1 << m.n
    for mask in range(1 << m.n):
        T = [e for e in range(m.n) if mask >> e & 1]
        assert ranks[mask] == m.rank(T)
        assert sums[mask].tobytes() == np.float64(sum(x[e] for e in sorted(T))).tobytes()


def test_graphic_rank_table_does_not_call_the_rank_oracle():
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]     # K6: 15 edges
    m = Matroid.graphic(6, edges)
    m._rank = None
    ranks = m.rank_table()
    assert ranks[0] == 0 and ranks[-1] == 5 and ranks.max() == 5
