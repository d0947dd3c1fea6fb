"""Witness distributions, stationary verification, and the exact LP."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from socrs import dist as dist_mod, env as env_mod, simplex
from socrs.counting import CountingOracle
from socrs.dist import (ExplicitDistribution, GibbsDistribution,
                        NonEnumerableError, addability_prob, solve_stationary_lp_exact,
                        stationary_conditionals, symmetric_uniform_bound,
                        verify_stationary_lp)
from socrs.env import (Environment, EnumerationBudgetError, EnvironmentError_, Matroid,
                       hypergraph_matching_environment, k_uniform_environment,
                       matching_environment, matroid_environment)
from socrs.maxent import solve_maxent
from socrs.simplex import UnboundedLP, solve_lp


def triangle_env():
    return matching_environment([(0, 1), (1, 2), (0, 2)], 3)


def test_explicit_distribution_validation():
    env = triangle_env()
    ExplicitDistribution(env, {frozenset(): Fraction(1, 2),
                               frozenset({0}): Fraction(1, 2)})
    with pytest.raises(ValueError):
        ExplicitDistribution(env, {frozenset(): 0.5, frozenset({0}): 0.6})
    with pytest.raises(Exception):
        ExplicitDistribution(env, {frozenset({0, 1}): 1.0})   # infeasible set


@pytest.mark.parametrize("probs, exact, stored", [
    ([0.25, 0.25, 0.5], False, [0.25, 0.25, 0.5]),
    (np.array([0.5, -1e-13, 0.5 + 1e-13]), False, [0.5, 0.0, 0.5 + 1e-13]),
    ([Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)], True,
     [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]),
    ([1, 0, 0], True, [1, 0, 0]),
    ([Fraction(1, 2), 0.25, np.float64(0.25)], False, [0.5, 0.25, 0.25]),
])
def test_laws_on_the_family_keep_the_checks(probs, exact, stored):
    env = triangle_env()
    for law in (ExplicitDistribution(env, dict(zip(env.enumerate_feasible(), probs))),
                ExplicitDistribution.on_family(env, [0, 1, 2], probs)):
        assert law.exact is exact
        assert list(law.support.values()) == stored
        assert all(type(v) is (Fraction if exact else float) or type(v) is int
                   for v in law.support.values())


@pytest.mark.parametrize("probs, message", [
    (np.array([0.5, -1e-9, 0.5 + 1e-9]), "negative probability"),
    ([Fraction(3, 2), Fraction(-1, 2)], "negative probability"),
    ([Fraction(1, 2), Fraction(1, 4)], "probabilities sum to 3/4, not 1"),
    ([0.5, 0.25], "probabilities sum to 0.75, not 1"),
    ([], "probabilities sum to 0, not 1"),
])
def test_laws_on_the_family_refuse_bad_masses(probs, message):
    env = triangle_env()
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExplicitDistribution.on_family(env, range(len(probs)), probs)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExplicitDistribution(env, dict(zip(env.enumerate_feasible(), probs)))


def test_a_law_given_by_its_sets_is_the_law_on_their_positions():
    # the sets are looked up once, in the dict's order, and the support is
    # built from the family's sets on its first read
    env = triangle_env()
    table = {frozenset({1}): Fraction(1, 2), frozenset(): Fraction(1, 4),
             frozenset({0}): Fraction(1, 4)}
    d = ExplicitDistribution(env, table)
    ref = ExplicitDistribution.on_family(env, [2, 0, 1], list(table.values()))
    assert d.positions.tolist() == ref.positions.tolist() == [2, 0, 1]
    assert d.masses.tolist() == ref.masses.tolist() and d._support is None
    assert list(d.support.items()) == list(ref.support.items()) == list(table.items())
    with pytest.raises(EnvironmentError_, match=r"support set \[0, 1\] is not a feasible set"):
        ExplicitDistribution(env, {frozenset({0, 1}): 1.0})
    with pytest.raises(EnvironmentError_, match=r"\[5\]"):
        ExplicitDistribution(env, {frozenset({5}): 1.0})
    with pytest.raises(ValueError, match="given twice"):
        ExplicitDistribution(env, {(0,): 0.5, frozenset({0}): 0.5})


def test_explicit_marginal_and_order():
    env = triangle_env()
    d = ExplicitDistribution(env, {frozenset(): Fraction(1, 4),
                                   frozenset({0}): Fraction(1, 4),
                                   frozenset({1}): Fraction(1, 2)})
    assert d.marginal(0) == Fraction(1, 4)
    assert d.marginal(2) == 0
    assert d.sets() == sorted(d.sets(), key=lambda S: (len(S), sorted(S)))


def test_gibbs_normalization_and_rho():
    env = triangle_env()
    g = GibbsDistribution(env, [Fraction(1, 2), Fraction(1), Fraction(2)])
    tab = g.to_explicit()
    assert sum(tab.support.values()) == 1
    Z = 1 + Fraction(1, 2) + 1 + 2
    assert tab.prob(frozenset({0})) == Fraction(1, 2) / Z
    assert g.rho[0] == Fraction(1, 2) / (1 + Fraction(1, 2))


def test_rational_to_explicit_is_the_hand_computed_law():
    # path 0-1-2-3: feasible sets {}, {0}, {1}, {2}, {0, 2}
    env = matching_environment([(0, 1), (1, 2), (2, 3)], 4)
    g = GibbsDistribution(env, [Fraction(1, 2), Fraction(1), Fraction(2)])
    Z = 1 + Fraction(1, 2) + 1 + 2 + 1
    assert g.to_explicit().support == {
        frozenset(): 1 / Z, frozenset({0}): Fraction(1, 2) / Z,
        frozenset({1}): 1 / Z, frozenset({2}): 2 / Z, frozenset({0, 2}): 1 / Z}


def _brute_force_law(env, w):
    masses = {S: math.prod(float(w[e]) for e in S) for S in env.enumerate_feasible()}
    Z = sum(masses.values())
    return {S: m / Z for S, m in masses.items()}


def _float_gibbs(case, monkeypatch):
    env = matching_environment([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)], 5)
    w = [0.3, 1.7, 0.05, 2.5, 0.9, 0.4]
    if case == "maxent":
        g = solve_maxent(env, CountingOracle("enumeration", env=env),
                         np.array([0.25, 0.2, 0.15, 0.3, 0.1, 0.2]), tol=1e-10)

        def no_new_oracle(*args, **kwargs):
            raise AssertionError("to_explicit built an oracle instead of reusing one")
        monkeypatch.setattr(dist_mod, "CountingOracle", no_new_oracle)
        return g
    if case == "bare":
        return GibbsDistribution(env, w)
    return GibbsDistribution(env, w, oracle=CountingOracle("matching-recursion", env=env))


@pytest.mark.parametrize("case", ["maxent", "bare", "matching-recursion"])
def test_float_to_explicit_matches_brute_force_product_law(case, monkeypatch):
    g = _float_gibbs(case, monkeypatch)
    tab = g.to_explicit()
    ref = _brute_force_law(g.env, g.w)
    assert not tab.exact and set(tab.support) == set(ref)
    assert max(abs(tab.support[S] - p) for S, p in ref.items()) < 1e-14


def test_exact_gibbs_conditionals_are_rho_or_zero():
    # an exact Gibbs law's table: rho_e exactly at every cap, at both of its
    # ends, and 0 where T+e is infeasible
    env = triangle_env()
    g = GibbsDistribution(env, [Fraction(1, 3), Fraction(1, 2), 2])
    index = env.family().index
    _, q, null = stationary_conditionals(g.to_explicit(), True)
    assert not null[:-1].any()     # the sentinel's row holds no mass
    for S, p in index.items():
        for e in range(3):
            want = g.rho[e] if (S | {e}) in index else 0
            assert q[p, e] == want and type(q[p, e]) is type(want)
    # T = {1} blocks edge 0 (they share vertex 1)
    assert q[index[frozenset({1})], 0] == 0


def test_explicit_conditionals_are_the_ratio_and_flag_null_events():
    env = triangle_env()
    d = ExplicitDistribution(env, {frozenset(): Fraction(1, 2),
                                   frozenset({0}): Fraction(1, 4),
                                   frozenset({1}): Fraction(1, 4)})
    index = env.family().index
    _, q, null = stationary_conditionals(d, True)
    # P[0 in S | S_-0 = {}] = P[{0}] / (P[{}] + P[{0}])
    assert q[index[frozenset()], 0] == q[index[frozenset({0})], 0] == Fraction(1, 3)
    assert not null[index[frozenset()], 0]
    # P[S_-0 = {2}] = 0: the event is flagged, its conditional left at 0
    assert null[index[frozenset({2})], 0] and q[index[frozenset({2})], 0] == 0


def test_addability_factorization_identity():
    # P[e in S] = rho_e * P[S_-e + e feasible]
    env = triangle_env()
    g = GibbsDistribution(env, [Fraction(2, 5), Fraction(1, 3), Fraction(3, 4)])
    tab = g.to_explicit()
    for e in range(3):
        add, residual = addability_prob(g, e)
        assert residual == 0
        assert tab.marginal(e) == g.rho[e] * add


def test_verify_stationary_lp_passes_and_fails():
    env = triangle_env()
    x = [Fraction(3, 10)] * 3
    g = GibbsDistribution(env, [Fraction(3, 10)] * 3)   # rho = 3/13 < 3/10
    rep = verify_stationary_lp(g, x, Fraction(1, 3))
    assert not rep.violated_caps
    # selectability here: marginal / x
    tab = g.to_explicit()
    alpha_true = min(tab.marginal(e) / x[e] for e in range(3))
    assert rep.passes(alpha_true, tol=0)
    assert not rep.passes(float(alpha_true) + 1e-6, tol=0)
    # caps break when rho exceeds x
    g_bad = GibbsDistribution(env, [Fraction(1)] * 3)   # rho = 1/2 > 3/10
    rep_bad = verify_stationary_lp(g_bad, x, Fraction(1, 3))
    assert rep_bad.violated_caps and rep_bad.max_cap_excess > 0


def test_verify_stationary_lp_only_wraps_budget_overflow(monkeypatch):
    class OracleFault(ValueError):
        pass

    def broken(S):
        raise OracleFault("feasibility oracle failed")

    env = Environment(3, "k-uniform", broken, {"k": 1})
    with pytest.raises(OracleFault):
        verify_stationary_lp(GibbsDistribution(env, [0.5] * 3), [0.5] * 3, 0.3)

    # the default budget, read when the family is enumerated, is below the
    # 11 sets of k-uniform(4, 2)
    env = k_uniform_environment(4, 2)
    monkeypatch.setattr(env_mod, "ENUMERATION_CAP", 3)
    with pytest.raises(NonEnumerableError) as info:
        verify_stationary_lp(GibbsDistribution(env, [0.5] * 4), [0.5] * 4, 0.3)
    assert isinstance(info.value.__cause__, EnumerationBudgetError)
    # the replay harness needs the same enumeration, so it is not offered
    assert "Monte-Carlo" not in str(info.value)


@st.composite
def small_environments(draw):
    """k-uniform, graph and hypergraph matchings and graphic matroids on at
    most 7 elements."""
    kind = draw(st.sampled_from(["k-uniform", "matching", "hypergraph", "graphic"]))
    if kind == "k-uniform":
        n = draw(st.integers(1, 7))
        return k_uniform_environment(n, draw(st.integers(1, n)))
    nv = draw(st.integers(2, 5))
    vertex = st.integers(0, nv - 1)
    if kind == "hypergraph":
        edges = draw(st.lists(st.lists(vertex, min_size=1, max_size=3, unique=True),
                              min_size=1, max_size=7))
        return hypergraph_matching_environment(edges)
    # graphic matroids keep loops, which no feasible set holds
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda uv: kind == "graphic"
                                                          or uv[0] != uv[1]),
                          min_size=1, max_size=7))
    if kind == "matching":
        return matching_environment(edges, nv)
    return matroid_environment(Matroid.graphic(nv, edges))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_environments(), st.booleans(), st.booleans(), st.data())
def test_gibbs_verify_in_closed_form_equals_the_table_check(env, rational, breaks, data):
    # x_e = rho_e * f_e, with every f_e >= 11/10 on a passing witness and some
    # f_e = 1/2 on a breaking one, so no cap lies within float rounding of x_e
    fracs = st.fractions(Fraction(1, 20), Fraction(3), max_denominator=20)
    w = data.draw(st.lists(fracs, min_size=env.n, max_size=env.n))
    f = data.draw(st.lists(st.fractions(Fraction(11, 10), Fraction(2), max_denominator=10),
                           min_size=env.n, max_size=env.n))
    if breaks:
        low = data.draw(st.sets(st.integers(0, env.n - 1), min_size=1))
        f = [Fraction(1, 2) if e in low else v for e, v in enumerate(f)]
    if not rational:
        w = list(map(float, w))
    g = GibbsDistribution(env, w)
    x = [min(r * v, 1) for r, v in zip(g.rho, f)]
    alpha = Fraction(1, 3) if rational else 1 / 3

    closed = verify_stationary_lp(g, x, alpha)
    table = verify_stationary_lp(g.to_explicit(), x, alpha)
    assert type(closed.alpha_achieved) is type(table.alpha_achieved)
    assert closed.alpha_achieved == table.alpha_achieved     # bit for bit in floats
    bad = [v[0] for v in closed.violated_caps]
    assert bad == sorted(set(bad)) and {v[0] for v in table.violated_caps} == set(bad)
    assert all(v[1] == frozenset() and v[2] == g.rho[v[0]] for v in closed.violated_caps)
    if rational or not breaks:
        assert closed.max_cap_excess == table.max_cap_excess
        assert type(closed.max_cap_excess) is type(table.max_cap_excess)
    if not breaks:
        assert not bad and closed.passes(0.0)


def reference_cap_check(law, x, tol):
    """(violated caps as (e, T, q), max_cap_excess) of an explicit law, one
    cap at a time in family order: the report verify_stationary_lp gives."""
    sets = law.env.family().sets
    feasible, zero = set(sets), Fraction(0) if law.exact else 0.0
    violated, excess = [], []
    for T in sets:
        for e in range(law.env.n):
            if e in T or T | {e} not in feasible:
                continue
            a, b = law.prob(T), law.prob(T | {e})
            if a + b == 0:
                continue
            q = b / (a + b)
            excess.append(q - x[e])
            if float(excess[-1]) > tol:
                violated.append((e, T, q))
    return violated, max([zero, *excess])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_environments(), st.booleans(), st.data())
def test_explicit_verify_equals_a_cap_by_cap_loop(env, rational, data):
    # masses of 0 to 4 over their sum, some zero so that null conditioning
    # events occur; x from 1/10 to 9/10, so some caps break and some hold
    sets = env.enumerate_feasible()
    weights = data.draw(st.lists(st.integers(0, 4), min_size=len(sets), max_size=len(sets))
                        .filter(any))
    x = data.draw(st.lists(st.fractions(Fraction(1, 10), Fraction(9, 10), max_denominator=10),
                           min_size=env.n, max_size=env.n))
    law = {S: Fraction(v, sum(weights)) for S, v in zip(sets, weights)}
    if not rational:
        law, x = {S: float(v) for S, v in law.items()}, list(map(float, x))
    law = ExplicitDistribution(env, law)
    rep = verify_stationary_lp(law, x, Fraction(1, 3))
    violated, worst = reference_cap_check(law, x, dist_mod.CAP_SLACK)
    assert [(e, T, q) for e, T, q, _ in rep.violated_caps] == violated
    assert rep.max_cap_excess == worst and type(rep.max_cap_excess) is type(worst)


@pytest.mark.parametrize("rational", [False, True])
def test_gibbs_verify_reads_no_family_and_no_table(rational, monkeypatch):
    env = matching_environment([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)], 5)
    if rational:
        g = GibbsDistribution(env, [Fraction(1, 4)] * 6)
    else:
        g = solve_maxent(env, CountingOracle("enumeration", env=env),
                         np.array([0.25, 0.2, 0.15, 0.3, 0.1, 0.2]), tol=1e-10)
    # the incidence matrix is all it reads of the family: no caps, move
    # tables or sets are built
    built = lambda: {"caps", "_moves", "sets", "index"} & set(vars(env.family()))
    calls = []
    for owner, name in [(GibbsDistribution, "to_explicit"),
                        (dist_mod, "stationary_conditionals")]:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name, **k:
                            calls.append(name) or real(*a, **k))
    rep = verify_stationary_lp(g, [0.99] * 6, 0.1)      # every rho_e < 1
    assert calls == [] and not built() and rep.violated_caps == []
    assert [g.marginal(e) for e in range(6)] == g._marginals()
    assert calls == [] and not built()


@pytest.mark.parametrize("w", [[Fraction(1, 2), Fraction(1), 2], [0.5, 1.0, 2.0]])
def test_gibbs_marginals_are_the_tables_family_order_sums(w):
    # path 0-1-2-3: feasible sets {}, {0}, {1}, {2}, {0, 2}; an int weight
    # still makes an exact law
    env = matching_environment([(0, 1), (1, 2), (2, 3)], 4)
    g = GibbsDistribution(env, w)
    tab = g.to_explicit()
    for e in range(3):
        m = g.marginal(e)
        assert type(m) is type(tab.marginal(e)) and m == tab.marginal(e)
    if g.exact:
        Z = 1 + Fraction(1, 2) + 1 + 2 + 1
        assert [g.marginal(e) for e in range(3)] == [Fraction(3, 2) / Z, 1 / Z, 3 / Z]


def test_verify_on_a_family_without_caps():
    # two loops: no feasible set holds an element, so there is no cap
    env = matroid_environment(Matroid.graphic(2, [(0, 0), (1, 1)]))
    g = GibbsDistribution(env, [0.5, 0.5])
    for law in (g, g.to_explicit()):
        rep = verify_stationary_lp(law, [0.5, 0.5], 0.0)
        assert rep.violated_caps == [] and rep.max_cap_excess == 0.0
        assert rep.alpha_achieved == 0.0


def test_gibbs_rho_is_exact_for_int_weights():
    g = GibbsDistribution(triangle_env(), [1, 2, Fraction(1, 2)])
    assert g.rho == [Fraction(1, 2), Fraction(2, 3), Fraction(1, 3)]
    assert all(type(r) is Fraction for r in g.rho)
    assert stationary_conditionals(g.to_explicit(), True)[1][0, 0] == Fraction(1, 2)


def test_budget_overruns_are_enumeration_budget_errors(monkeypatch):
    assert issubclass(NonEnumerableError, EnumerationBudgetError)
    env = k_uniform_environment(6, 2)          # |F| = 22
    monkeypatch.setattr(dist_mod, "EXACT_LP_MAX_SETS", 21)
    with pytest.raises(EnumerationBudgetError, match="budget 21"):
        solve_stationary_lp_exact(env, [Fraction(1, 3)] * 6)


def test_simplex_basic():
    # maximize x + y subject to x + 2y <= 4, 3x + y <= 6, x,y >= 0
    c = [Fraction(1), Fraction(1)]
    A_ub = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1)]]
    b_ub = [Fraction(4), Fraction(6)]
    opt, z = solve_lp(c, A_ub, b_ub)
    assert opt == Fraction(14, 5)
    assert list(z) == [Fraction(8, 5), Fraction(6, 5)]
    # rows as {column: value} dicts, and in the solver's own form
    assert solve_lp(c, [{0: 1, 1: 2}, {0: 3, 1: Fraction(1)}], b_ub) == (opt, z)
    assert solve_lp(c, [{0: 1, 1: 2}, {0: 3, 1: 1}], [4, 6], den=[1, 1]) == (opt, z)
    assert solve_lp(c, [{0: 2, 1: 4}, {0: 3, 1: 1}], [8, 6], den=[2, 1],
                    guide=np.array([[1.0, 2.0, 4.0], [3.0, 1.0, 6.0]])) == (opt, z)
    # the simplex starts at the slack basis, so a negative rhs is refused
    with pytest.raises(ValueError):
        solve_lp([Fraction(1)], [[Fraction(1)]], [Fraction(-1)])
    with pytest.raises(UnboundedLP):
        solve_lp([Fraction(1)], [[Fraction(-1)]], [Fraction(1)])


@pytest.mark.parametrize("seed", range(12))
def test_simplex_matches_highs_on_random_float_lps(seed):
    # float coefficients (2^-52-scale denominators), sparse rows, zero
    # right-hand sides so degenerate ratio ties reach Bland's tie-break, and
    # one positive row that keeps the LP bounded
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(seed)
    m, n = rng.integers(3, 9), rng.integers(2, 8)
    A = rng.uniform(-1, 1, (m, n)) * (rng.random((m, n)) < 0.7)
    b = rng.uniform(0, 1, m) * (rng.random(m) < 0.5)
    A = np.vstack([A, rng.uniform(0.1, 1, n)])
    b = np.append(b, rng.uniform(0.5, 2))
    c = rng.uniform(-1, 1, n)
    opt, z = solve_lp(c.tolist(), A.tolist(), b.tolist())
    assert all(v >= 0 for v in z)
    for row, bi in zip(A.tolist(), b.tolist()):
        assert sum(Fraction(a) * v for a, v in zip(row, z)) <= Fraction(bi)
    assert opt == sum(Fraction(ci) * v for ci, v in zip(c.tolist(), z))
    ref = linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    assert ref.status == 0 and abs(float(opt) + ref.fun) <= 1e-9


@pytest.mark.parametrize("c, A_ub, b_ub, expected", [
    ([1, 2], [], [], UnboundedLP),                       # m = 0, c > 0
    ([0, -1], [], [], (0, [0, 0])),                      # m = 0, c <= 0
    ([], [[], []], [1, 2], (0, [])),                     # n = 0
    ([1, 2], [[0, 0], [1, 1]], [1, 3], (6, [0, 3])),     # an all-zero row
    ([1, 2], [[0, 0], [1, 1]], [0, 3], (6, [0, 3])),     # ... with a zero rhs
    ([1, 0, 1], [[1, 0, 2], [3, 0, 1]], [4, 6],          # an all-zero column
     (Fraction(14, 5), [Fraction(8, 5), 0, Fraction(6, 5)])),
    ([1, 1, 1], [[1, 0, 2], [3, 0, 1]], [4, 6], UnboundedLP),
    # x2 is bounded by row 1 until x1 enters on row 0; then its column is
    # nonpositive and its reduced cost negative
    ([1, 1], [[1, -1], [-1, 1]], [1, 0], UnboundedLP),
])
def test_simplex_edge_cases_are_pinned(c, A_ub, b_ub, expected):
    for solve in (solve_lp, _full_tableau_lp):
        if expected is UnboundedLP:
            with pytest.raises(UnboundedLP, match="LP is unbounded"):
                solve(c, A_ub, b_ub)
        else:
            assert solve(c, A_ub, b_ub) == expected


@pytest.mark.parametrize("b, text", [(-1, "-1"), (-0.5, "-0.5"), (Fraction(-1, 3), "-1/3")])
def test_simplex_refuses_a_negative_rhs_with_its_message(b, text):
    with pytest.raises(ValueError) as info:
        solve_lp([1, 1], [[1, 2], [3, 1]], [4, b])
    assert str(info.value) == f"b_ub[1] = {text} is negative: the slack basis is infeasible"


def _full_tableau_lp(c, A_ub, b_ub, late=None):
    """Reference for solve_lp: the same Bland simplex on the full integer
    tableau, n structural then m slack columns, each basic column kept as a
    unit vector.  If late is a list, it gets one flag per pivot: whether
    Bland's entering variable is not the first one with a negative reduced
    cost in the condensed column order, where each leaving variable takes
    the entering variable's column."""
    from socrs.simplex import _ratio, _reduce

    def _int_row(values):
        # integers proportional to values, over a positive denominator
        pairs = [_ratio(v) for v in values]
        den = math.lcm(*(d for _, d in pairs))
        return [p * (den // d) for p, d in pairs], den

    n, m = len(c), len(A_ub)
    total = n + m
    T = []
    for i, (row, b) in enumerate(zip(A_ub, b_ub)):
        t, den = _int_row([*row, b])
        t[n:n] = [0] * m
        t[n + i] = den
        T.append(_reduce(t))
    basis = list(range(n, total))
    obj, _ = _int_row(c)
    obj = [-v for v in obj] + [0] * (m + 1)
    order = list(range(n))
    while (col := next((j for j in range(total) if obj[j] < 0), None)) is not None:
        if late is not None:
            late.append(next(v for v in order if obj[v] < 0) != col)
        row = None
        for i in range(m):
            a = T[i][col]
            if a > 0:
                if row is None:
                    row, rb, ra = i, T[i][total], a
                    continue
                lhs, rhs = T[i][total] * ra, rb * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                    row, rb, ra = i, T[i][total], a
        if row is None:
            raise UnboundedLP("LP is unbounded")
        pr = T[row]
        p = pr[col]
        for i in range(m):
            f = T[i][col]
            if i != row and f != 0:
                T[i] = _reduce([p * a - f * b for a, b in zip(T[i], pr)])
        f = obj[col]
        obj = _reduce([p * a - f * b for a, b in zip(obj, pr)])
        order[order.index(col)] = basis[row]
        basis[row] = col
    z = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            z[basis[i]] = Fraction(T[i][total], T[i][basis[i]])
    return sum((Fraction(*_ratio(ci)) * zi for ci, zi in zip(c, z)), Fraction(0)), z


def _reference_stationary_lp(env, x):
    """The stationary LP as (c, A_ub, b_ub) with dense rows of ints and x's
    exact rationals, in the solver's row order: the reference for the rows
    solve_stationary_lp_exact builds."""
    fam = env.family()
    x = [Fraction(v) for v in x]
    nv = len(fam)
    ALPHA = nv - 1
    A_ub, b_ub = [], []
    for e, row in enumerate((-fam.inc[1:].T.astype(int)).tolist()):
        A_ub.append(row + [x[e]])
        b_ub.append(0)
    for s, e, t in fam.caps.T.tolist():
        row = [0] * nv
        if t:
            row[t - 1] = -x[e]
            b_ub.append(0)
        else:
            row[:ALPHA] = [x[e]] * ALPHA
            b_ub.append(x[e])
        row[s - 1] += 1 - x[e]
        A_ub.append(row)
    A_ub.append([1] * ALPHA + [0])
    b_ub.append(1)
    return [0] * ALPHA + [1], A_ub, b_ub


def _stationary_lp(env, x):
    """The (c, A_ub, b_ub, keywords) solve_stationary_lp_exact hands the simplex."""
    lps = []
    with pytest.MonkeyPatch.context() as mp:
        # the point mass on the empty set stands in for the optimum
        mp.setattr(dist_mod.simplex, "solve_lp", lambda c, A, b, **kw: lps.append((c, A, b, kw))
                   or (Fraction(0), [Fraction(0)] * len(c)))
        solve_stationary_lp_exact(env, x)
    return lps[0]


# the n = 3 impossibility and the 12 seeded graphs of one exact-lp benchmark
# pass (perfbench --seed 1), x read as floats as lp-exact reads them
_EXACT_LP_SEEDS = [2932689422, 3767864086, 1976859191, 986416742, 3571736738, 2884584986,
                   879846148, 3434679992, 3371541566, 2304827615, 1382649795, 1214156065]


def _exact_lp_instances():
    from socrs.generators import gen_instance
    yield gen_instance("bipartite-impossibility", n=3)[:2]
    for slot, seed in enumerate(_EXACT_LP_SEEDS):
        name, n_vertices = (("random-bipartite", 5), ("random-graph", 4))[slot % 2]
        yield gen_instance(name, seed=seed, n_vertices=n_vertices, n_edges=6)[:2]


def _assert_handoff_matches_the_reference(env, x):
    c, rows, rhs, kw = _stationary_lp(env, x)
    ref_c, ref_A, ref_b = _reference_stationary_lp(env, x)
    assert set(kw) == {"den", "guide"} and c == ref_c
    den = kw["den"]
    assert len(rows) == len(rhs) == len(den) == len(ref_A)
    for t, b, d, ref_row, ref_rhs in zip(rows, rhs, den, ref_A, ref_b):
        # ints over a positive denominator, nonzeros only
        assert type(d) is int and d >= 1 and 0 not in t.values()
        assert [Fraction(t.get(j, 0), d) for j in range(len(c))] == ref_row
        assert Fraction(b, d) == ref_rhs
    ref_guide = np.array([[*row, b] for row, b in zip(ref_A, ref_b)], dtype=float)
    assert kw["guide"].dtype == float and np.array_equal(kw["guide"], ref_guide)


def test_the_handoff_matches_the_dense_reference_on_the_exact_lp_instances():
    for env, x in _exact_lp_instances():
        _assert_handoff_matches_the_reference(env, x)
    # x_e = 0 and x_e = 1 put exact zeros in the reference's rows
    _assert_handoff_matches_the_reference(triangle_env(), [0, 1, Fraction(1, 2)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_environments(), st.booleans(), st.data())
def test_the_handoff_matches_the_dense_reference(env, rational, data):
    if rational:
        xs = st.fractions(Fraction(1, 20), Fraction(19, 20), max_denominator=20)
    else:
        xs = st.floats(0.05, 0.95)
    x = data.draw(st.lists(xs, min_size=env.n, max_size=env.n))
    _assert_handoff_matches_the_reference(env, x)


def test_simplex_matches_the_full_tableau_on_stationary_lps():
    from socrs.generators import gen_instance
    instances = [gen_instance("bipartite-impossibility", n=3)[:2]]
    for seed in (1, 2):
        for name, n_vertices in (("random-bipartite", 5), ("random-graph", 4)):
            instances.append(gen_instance(name, seed=seed, n_vertices=n_vertices, n_edges=6)[:2])
    for env, x in instances:
        c, A, b, kw = _stationary_lp(env, x)
        assert solve_lp(c, A, b, **kw) == _full_tableau_lp(*_reference_stationary_lp(env, x))


def test_simplex_matches_the_full_tableau_on_degenerate_lps():
    # small integer LPs with mostly zero right-hand sides and c = 1, so
    # the optimum is a face and the pivot order decides the vertex; after
    # some pivots Bland's entering variable is not in the first column
    late_lps = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(4, 8), rng.integers(4, 8)
        A = rng.integers(-1, 3, (m, n)) * (rng.random((m, n)) < 0.6)
        b = rng.integers(1, 3, m) * (rng.random(m) < 0.25)
        A, b = np.vstack([A, np.ones(n, dtype=int)]).tolist(), b.tolist() + [2]
        c = [1] * n
        late = []
        assert solve_lp(c, A, b) == _full_tableau_lp(c, A, b, late), seed
        late_lps += any(late)
    assert late_lps >= 5


def _lp_outcome(solve, c, A_ub, b_ub):
    try:
        return solve(c, A_ub, b_ub)
    except UnboundedLP as err:
        return str(err)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_environments(), st.booleans(), st.data())
def test_simplex_matches_the_full_tableau_on_random_stationary_lps(env, rational, data):
    # the full-tableau reference takes 5 s on a family of 64 sets and 83 s
    # on one of 128 (float x), under 0.05 s on families of at most 32 sets
    assume(len(env.family()) <= 32)
    # x in (0, 1): rationals with small denominators, or floats whose exact
    # values carry 2^-52-scale denominators
    if rational:
        xs = st.fractions(Fraction(1, 20), Fraction(19, 20), max_denominator=20)
    else:
        xs = st.floats(0.05, 0.95)
    x = data.draw(st.lists(xs, min_size=env.n, max_size=env.n))
    c, A, b, kw = _stationary_lp(env, x)
    assert solve_lp(c, A, b, **kw) == _full_tableau_lp(*_reference_stationary_lp(env, x))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_simplex_matches_the_full_tableau_on_random_degenerate_lps(data):
    # small integer LPs, mostly zero right-hand sides, some unbounded
    m, n = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, -1, 1, 1, 2])
    A = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    b = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=m, max_size=m))
    c = data.draw(st.lists(st.sampled_from([-1, 0, 1, 1, 2]), min_size=n, max_size=n))
    assert _lp_outcome(solve_lp, c, A, b) == _lp_outcome(_full_tableau_lp, c, A, b)


# proposals as basis[i], the variable of row i (0, 1 structural, the rest
# slack); _BASIC maximizes x + y subject to x + 2y <= 4, 3x + y <= 6, with
# optimum (8/5, 6/5)
_BASIC = ([1, 1], [[1, 2], [3, 1]], [4, 6])


@pytest.mark.parametrize("lp, proposal", [
    (_BASIC, None),
    (_BASIC, [2, 3]),           # slack basis z = 0: primal feasible, dual infeasible
    (_BASIC, [1, 2]),           # row 1 tight with y alone: y = 6 breaks row 0
    (_BASIC, [2, 0]),           # row 1 tight with x alone: x = 2, y = 0 is not optimal
    (([1, 1], [[1, 1], [2, 2], [1, 0]], [2, 4, 1]), [0, 1, 4]),   # rows 0, 1 tight: singular
    # both rows tight: (x, y) = (-1, 2) meets every row, with y >= 0
    (([0, 1], [[1, 1], [-2, 1]], [1, 4]), [0, 1]),
    # both rows tight: (x, y) = (1, 1) is feasible, but its dual has y_1 = -1
    (([1, 0], [[1, 1], [0, 1]], [2, 1]), [0, 1]),
], ids=["none", "slack", "primal-infeasible", "dual-infeasible", "singular",
        "negative-z", "negative-y"])
def test_a_rejected_proposal_falls_back_to_bland(lp, proposal, monkeypatch):
    falls = []
    bland = simplex._bland
    monkeypatch.setattr(simplex, "_float_basis", lambda c, guide: proposal)
    monkeypatch.setattr(simplex, "_bland", lambda *a: falls.append(1) or bland(*a))
    c, A, b = lp
    rows, rhs, den = simplex._lp_form(len(c), A, b)
    # the same LP as exact-number rows and in the solver's form
    assert solve_lp(c, A, b) == _full_tableau_lp(c, A, b)
    assert solve_lp(c, rows, rhs, den=den) == _full_tableau_lp(c, A, b)
    assert falls == [1, 1]
    # an unbounded LP keeps its error whatever basis is proposed
    with pytest.raises(UnboundedLP, match="^LP is unbounded$"):
        solve_lp([1, 1], [[1, -1], [-1, 1]], [1, 0])


def test_the_float_pass_never_raises_and_the_rhs_is_checked_first(monkeypatch):
    huge = Fraction(10 ** 400)
    # an entry beyond the float range leaves no guide; no guide, an
    # objective beyond the float range, an unbounded column and no rows
    # propose nothing
    assert simplex._guide(1, [{0: 10 ** 400}], [1], [1]) is None
    assert simplex._float_basis([1], None) is None
    assert simplex._float_basis([huge], np.array([[1.0, 1.0]])) is None
    assert simplex._float_basis([1], np.array([[-1.0, 1.0]])) is None
    assert simplex._float_basis([1, 2], np.zeros((0, 3))) is None
    assert solve_lp([1], [[huge]], [1]) == _full_tableau_lp([1], [[huge]], [1])
    assert solve_lp([huge], [[1]], [1]) == _full_tableau_lp([huge], [[1]], [1])

    def no_proposal(c, guide):
        raise AssertionError("the float pass ran before the rhs check")
    monkeypatch.setattr(simplex, "_float_basis", no_proposal)
    with pytest.raises(ValueError, match=r"^b_ub\[0\] = -1 is negative"):
        solve_lp([1], [[1]], [-1])


@pytest.mark.parametrize("rhs, den, guide, message", [
    ([1, -1], [1, 3], None, r"^b_ub\[1\] = -1/3 is negative"),
    ([1, 1], [1, 0], None, r"^den\[1\] = 0 is not positive"),
    ([-1, 1], [-2, 1], None, r"^den\[0\] = -2 is not positive"),
    ([1, 1], [1], None, "differ in length"),
    ([1, 1], [1, 1], np.zeros((2, 2)), r"guide has shape \(2, 2\), not \(2, 3\)"),
    ([1, 1], None, np.zeros((2, 3)), "a guide needs den"),
])
def test_the_solver_form_is_checked_before_the_float_pass(rhs, den, guide, message, monkeypatch):
    def no_proposal(c, guide):
        raise AssertionError("the float pass ran before the form was checked")
    monkeypatch.setattr(simplex, "_float_basis", no_proposal)
    with pytest.raises(ValueError, match=message):
        solve_lp([1, 1], [{0: 1, 1: 2}, {0: 3, 1: 1}], rhs, den=den, guide=guide)


@pytest.mark.parametrize("name, n_vertices, alpha, support", [
    ("random-bipartite", 5, "21671228627311809223098795484526457706803317702656/"
                            "38236057037506980588024628463016375338063823182013", 13),
    ("random-graph", 4, "81129638414606681695789005144064/"
                        "162754579467636372439892821351467", 10),
])
def test_float_x_random_lp_alpha_is_pinned(name, n_vertices, alpha, support):
    # seed 1, x read as floats, as the lp-exact command reads the instance
    from socrs.generators import gen_instance
    env, x, _ = gen_instance(name, seed=1, n_vertices=n_vertices, n_edges=6)
    a, wit = solve_stationary_lp_exact(env, x)
    assert f"{a.numerator}/{a.denominator}" == alpha
    assert len(wit.support) == support


def test_float_x_impossibility_alpha_n3_is_pinned():
    # x read as floats 1/3 and 2/3, as the lp-exact command reads the instance
    from socrs.generators import gen_instance
    env, x, _ = gen_instance("bipartite-impossibility", n=3)
    a, wit = solve_stationary_lp_exact(env, x)
    assert f"{a.numerator}/{a.denominator}" == (
        "893139889479996250327151401828473927908863246336/"
        "1813344624095749984638529860172070884789575211539")
    assert len(wit.support) == 19


def test_impossibility_alpha_n4_is_pinned():
    from socrs.generators import gen_instance
    env, _, _ = gen_instance("bipartite-impossibility", n=4)
    a, wit = solve_stationary_lp_exact(env, [Fraction(1, 4)] * 4 + [Fraction(3, 4)] * 4)
    assert a == Fraction(64, 139)
    assert len(wit.support) == 27


# the n = 3 impossibility witness at x = (1/3,)*3 + (2/3,)*3, as the
# two-phase simplex returned it
_IMPOSSIBILITY_3 = {
    "": "4/67", "0": "2/67", "1": "2/67", "2": "2/67", "3": "8/67", "4": "8/67",
    "5": "8/67", "0+4": "4/67", "0+5": "4/67", "1+3": "4/67", "1+5": "4/67",
    "2+3": "4/67", "2+4": "4/67", "3+4": "2/67", "3+5": "2/67", "4+5": "2/67",
    "0+4+5": "1/67", "1+3+5": "1/67", "2+3+4": "1/67"}


def test_impossibility_witness_n3_is_pinned():
    from socrs.generators import gen_instance
    env, _, _ = gen_instance("bipartite-impossibility", n=3)
    xr = [Fraction(1, 3)] * 3 + [Fraction(2, 3)] * 3
    a, wit = solve_stationary_lp_exact(env, xr)
    assert a == Fraction(33, 67)
    assert wit.support == {
        frozenset(int(e) for e in k.split("+") if e): Fraction(v)
        for k, v in _IMPOSSIBILITY_3.items()}
    assert verify_stationary_lp(wit, xr, a, tol=0).passes(a, tol=0)


def test_verifier_reads_caps_from_the_family_without_feasibility_calls(monkeypatch):
    env = matching_environment([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4)
    sets = env.enumerate_feasible()
    # unequal masses, so that some caps are violated at x = 0.3
    d = ExplicitDistribution(env, {S: Fraction(i + 1, len(sets) * (len(sets) + 1) // 2)
                                   for i, S in enumerate(sets)})
    calls = []
    real = env.is_feasible
    monkeypatch.setattr(env, "is_feasible", lambda S: calls.append(S) or real(S))
    x = [Fraction(3, 10)] * env.n
    rep = verify_stationary_lp(d, x, Fraction(1, 10))
    assert calls == []
    # every (e, T) with T+e feasible, by family position of T, then by e
    pairs = [(e, T) for T in sets for e in range(env.n)
             if e not in T and (T | {e}) in sets
             and d.prob(T | {e}) / (d.prob(T) + d.prob(T | {e})) > x[e]]
    assert pairs and [(e, T) for e, T, _, _ in rep.violated_caps] == pairs


def test_lp_exact_single_element_and_1_uniform():
    env1 = k_uniform_environment(1, 1)
    a, wit = solve_stationary_lp_exact(env1, [Fraction(1, 2)])
    assert a == 1
    env2 = k_uniform_environment(2, 1)
    a2, wit2 = solve_stationary_lp_exact(env2, [Fraction(1, 2), Fraction(1, 2)])
    # symmetric instance: LP optimum matches the binomial-ratio bound
    assert a2 == symmetric_uniform_bound(2, 1, Fraction(1, 2)) == Fraction(2, 3)
    # the witness is itself a valid stationary distribution at alpha
    rep = verify_stationary_lp(wit2, [Fraction(1, 2)] * 2, a2)
    assert rep.passes(a2, tol=0) and not rep.violated_caps


def test_lp_round_trip_on_random_instance():
    from socrs.generators import gen_instance
    env, x, _ = gen_instance("random-graph", seed=2, n_edges=5)
    xr = [Fraction(v).limit_denominator(100) for v in x]
    a, wit = solve_stationary_lp_exact(env, xr)
    rep = verify_stationary_lp(wit, xr, a)
    assert rep.passes(a, tol=0)
    assert not rep.violated_caps
    assert 0 < a <= 1


def test_symmetric_uniform_bound_known_value():
    assert symmetric_uniform_bound(4, 2, Fraction(1, 2)) == Fraction(8, 11)
    # k = n means everything fits: bound 1, though n q = 3/2 is not k
    with pytest.warns(UserWarning, match="n\\*q = k"):
        assert symmetric_uniform_bound(3, 3, Fraction(1, 2)) == 1


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(2, 6),
       st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10)))
def test_symmetric_bound_in_unit_interval(k, n, q):
    if k > n:
        return
    if n * q == k:
        b = symmetric_uniform_bound(n, k, q)
    else:
        with pytest.warns(UserWarning, match="n\\*q = k"):
            b = symmetric_uniform_bound(n, k, q)
    assert 0 < b <= 1
