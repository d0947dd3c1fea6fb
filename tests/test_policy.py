"""Simulate-then-replace: single steps, one-shot runs, recurring arrivals,
and the exact expansion of the output law."""

import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socrs import dist as dist_mod
from socrs.dist import (CAP_SLACK, ExplicitDistribution, GibbsDistribution,
                        NullConditioningError, solve_stationary_lp_exact,
                        verify_stationary_lp)
from socrs.env import (EnumerationBudgetError, Matroid, hypergraph_matching_environment,
                       k_uniform_environment, matching_environment, matroid_environment)
from socrs.policy import (CapViolationError, OrderStrategy, PolicyState, _merge,
                          exact_output_law, greedy_blocker_adversary,
                          policy_step, run_one_shot, run_recurring,
                          target_last_adversary)
from socrs.replay import random_orders, replay
from socrs.sampling import RngStream


def triangle_gibbs(w=Fraction(1, 4), x=Fraction(1, 2)):
    env = matching_environment([(0, 1), (1, 2), (0, 2)], 3)
    return GibbsDistribution(env, [w] * 3), [x] * 3


def law_tv(a, b):
    keys = set(a.support) | set(b.support)
    return 0.5 * sum(abs(float(a.support.get(S, 0)) - float(b.support.get(S, 0)))
                     for S in keys)


def test_single_element_acceptance_probability():
    # env {∅,{0}}, mu({0}) = p: accept prob on an active arrival is p / x... / x
    env = k_uniform_environment(1, 1)
    p, x = 0.3, 0.5
    d = ExplicitDistribution(env, {frozenset(): 1 - p, frozenset({0}): p})
    rng = RngStream(0)
    hits = 0
    N = 40_000
    for _ in range(N):
        state = PolicyState(d, [x], S_hat=frozenset(), rng=rng)
        state.S_hat = frozenset({0}) if float(rng.uniform()) < p else frozenset()
        acc, state = policy_step(state, 0, active=True)
        hits += acc
    assert abs(hits / N - p / x) < 0.01


def test_policy_step_cap_violation():
    env = k_uniform_environment(1, 1)
    d = ExplicitDistribution(env, {frozenset(): 0.2, frozenset({0}): 0.8})
    state = PolicyState(d, [0.5], S_hat=frozenset(), rng=RngStream(0))
    with pytest.raises(CapViolationError):
        policy_step(state, 0, active=True)     # conditional 0.8 > x = 0.5


def test_witness_inside_cap_slack_is_accepted_by_every_path():
    # q = x + 5e-10 lies inside CAP_SLACK, so every path must accept it and
    # clamp q / x = 1 + 5e-8 to 1 rather than reject it as above 1
    env = k_uniform_environment(1, 1)
    x = [0.01]
    q = x[0] + 5e-10
    d = ExplicitDistribution(env, {frozenset(): 1 - q, frozenset({0}): q})
    state = PolicyState(d, x, S_hat=frozenset({0}), rng=RngStream(0))
    assert policy_step(state, 0, active=True)[0]
    assert run_recurring(d, x, [(0, 0, True), (0, 1, True)], RngStream(0))
    _, acc = exact_output_law(d, x, OrderStrategy.fixed([0]))
    assert acc[0] == pytest.approx(q)
    accepts, _, _ = replay(d, x, random_orders(1, 1000, RngStream(1)), RngStream(2))
    assert accepts[0] > 0


def test_exact_expansion_preserves_law_all_orders():
    dist, x = triangle_gibbs()
    witness = dist.to_explicit()
    strategies = [OrderStrategy.fixed([0, 1, 2]),
                  OrderStrategy.fixed([2, 0, 1]),
                  OrderStrategy.adaptive(target_last_adversary(1)),
                  OrderStrategy.adaptive(greedy_blocker_adversary(dist.env, x))]
    for strat in strategies:
        law, acc = exact_output_law(dist, x, strat)
        assert law_tv(law, witness) < 1e-12
        # rational inputs stay exact
        assert all(not isinstance(v, float) for v in law.support.values())


def test_exact_expansion_selectability_order_free():
    dist, x = triangle_gibbs()
    _, acc_a = exact_output_law(dist, x, OrderStrategy.fixed([0, 1, 2]))
    _, acc_b = exact_output_law(dist, x, OrderStrategy.fixed([2, 1, 0]))
    _, acc_c = exact_output_law(dist, x, OrderStrategy.adaptive(target_last_adversary(0)))
    for e in range(3):
        assert acc_a[e] == acc_b[e] == acc_c[e]
        # stationarity: acceptance probability equals the witness marginal
        assert acc_a[e] == dist.to_explicit().marginal(e)


def test_exact_expansion_all_x_one():
    # x_e = 1: every element is active and accepted with prob q_e; the output
    # law is still the witness law
    env = k_uniform_environment(2, 1)
    d = ExplicitDistribution(env, {frozenset(): Fraction(1, 2),
                                   frozenset({0}): Fraction(1, 4),
                                   frozenset({1}): Fraction(1, 4)})
    law, acc = exact_output_law(d, [Fraction(1), Fraction(1)],
                                OrderStrategy.fixed([0, 1]))
    assert law_tv(law, d) == 0


def test_exact_expansion_atom_cap_is_a_budget_error():
    dist, x = triangle_gibbs()
    with pytest.raises(EnumerationBudgetError, match="exceeded 1 atoms"):
        exact_output_law(dist, x, OrderStrategy.fixed([0, 1, 2]), atom_cap=1)


def test_exact_expansion_rejects_seeded_random():
    dist, x = triangle_gibbs()
    with pytest.raises(ValueError):
        exact_output_law(dist, x, OrderStrategy.seeded_random())


@pytest.mark.parametrize("perm", [[0, 1], [0, 1, 1], [0, 1, 3], [0, 3, 1, 2]])
def test_exact_expansion_refuses_a_fixed_order_that_misses_an_element(perm):
    # a short list, a repeat in place of an element, an element out of range
    dist, x = triangle_gibbs()
    with pytest.raises(ValueError, match="each of the 3 elements"):
        exact_output_law(dist, x, OrderStrategy.fixed(perm))
    # a repeat after every element has arrived changes nothing, as in a run
    assert (exact_output_law(dist, x, OrderStrategy.fixed([2, 1, 0, 0, 5]))[1]
            == exact_output_law(dist, x, OrderStrategy.fixed([2, 1, 0]))[1])


def reference_output_law(table, x, strategy):
    """The expansion one atom at a time over dicts: (law support, acceptance)."""
    n = table.env.n
    states, acc = {(): dict(table.support)}, [0] * n
    for _ in range(n):
        new_states = {}
        for hist, masses in states.items():
            e = strategy.next_element(list(hist), set(range(n)) - {h[0] for h in hist}, None)
            for S, p in masses.items():
                T = S - {e}
                a, b = table.support.get(T, 0), table.support.get(T | {e}, 0)
                q = b / (a + b)
                acc[e] += q * p
                for ev, S2, m in [((e, False, False), T, (1 - x[e]) * p),
                                  ((e, True, True), T | {e}, q * p),
                                  ((e, True, False), T, (x[e] - q) * p)]:
                    if m > 0:
                        ev = ev if strategy.variant == "adaptive" else (e, False, False)
                        bucket = new_states.setdefault(hist + (ev,), {})
                        bucket[S2] = bucket.get(S2, 0) + m
        states = new_states
    law = {}
    for masses in states.values():
        for S, p in masses.items():
            law[S] = law.get(S, 0) + p
    return law, acc


def test_exact_expansion_matches_the_reference_expansion():
    # rational inputs must agree exactly; floats sum in another order
    env5 = matching_environment([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 5)
    cases = [triangle_gibbs(),
             (GibbsDistribution(env5, [0.2, 0.5, 0.3, 0.7, 0.4]), [0.3, 0.4, 0.3, 0.45, 0.35])]
    for dist, x in cases:
        table = dist.to_explicit()
        for strategy in [OrderStrategy.fixed(range(dist.env.n)),
                         OrderStrategy.fixed([2, 0, 1] + list(range(3, dist.env.n))),
                         OrderStrategy.adaptive(target_last_adversary(1)),
                         OrderStrategy.adaptive(greedy_blocker_adversary(dist.env, x))]:
            law, acc = exact_output_law(dist, x, strategy)
            ref_law, ref_acc = reference_output_law(table, x, strategy)
            assert set(law.support) == set(ref_law)
            if table.exact:
                assert law.support == ref_law and acc == ref_acc
            else:
                assert max(abs(law.support[S] - ref_law[S]) for S in ref_law) <= 1e-15
                assert max(abs(u - v) for u, v in zip(acc, ref_acc)) <= 1e-15


@pytest.mark.parametrize("strategy", [OrderStrategy.fixed([1, 0]),
                                      OrderStrategy.adaptive(target_last_adversary(0))])
def test_exact_expansion_raises_the_verifiers_first_violated_cap(strategy):
    # element 0 breaks its cap at T = {} (q = 0.4) and worse at T = {1}
    # (q = 0.8).  Element 1 arrives first and, with x_1 = 1, is always
    # active, so the expansion meets T = {1} first; the verifier lists T = {}.
    env = k_uniform_environment(2, 2)
    dist = ExplicitDistribution(env, {frozenset(): 0.3, frozenset({0}): 0.2,
                                      frozenset({1}): 0.1, frozenset({0, 1}): 0.4})
    x = [0.3, 1.0]
    first = verify_stationary_lp(dist, x, 0.0).violated_caps[0]
    assert first[:2] == (0, frozenset())
    with pytest.raises(CapViolationError) as info:
        exact_output_law(dist, x, strategy)
    exc = info.value
    assert (exc.e, exc.T, exc.q, exc.xe) == first


def test_exact_expansion_of_a_witness_whose_support_is_not_downward_closed():
    # the LP optimum (alpha = 1/2) puts mass on {1, 3} but none on {1}
    env = matching_environment([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
    x = [Fraction(4, 5), Fraction(4, 5), Fraction(1, 4), Fraction(1)]
    _, witness = solve_stationary_lp_exact(env, x)
    assert frozenset({1, 3}) in witness.support and frozenset({1}) not in witness.support
    for strategy in [OrderStrategy.fixed([0, 1, 2, 3]), OrderStrategy.fixed([3, 2, 1, 0]),
                     OrderStrategy.adaptive(greedy_blocker_adversary(env, x))]:
        law, acc = exact_output_law(witness, x, strategy)
        assert law.support == witness.support
        assert acc == [witness.marginal(e) for e in range(4)]
        assert all(isinstance(v, Fraction) for v in acc)


def merge_reference(at, mass):
    """_merge one atom at a time: each atom's mass added at its position,
    in input order, from 0; the positions sorted."""
    sums = {}
    for a, v in zip(at.tolist(), mass.tolist()):
        sums[a] = sums.get(a, 0) + v
    pos = sorted(sums)
    return np.array(pos), np.array([sums[a] for a in pos], dtype=mass.dtype)


def fixed_order_reference(dist, x, strategy):
    """The expansion over a fixed order as three branches per atom, merged
    by `_merge` after every arrival: (positions, masses, acceptance)."""
    table = dist.to_explicit()
    exact = table.exact and not any(isinstance(v, float) for v in x)
    xs = list(x) if exact else [float(v) for v in x]
    live = (lambda m: m != 0) if exact else (lambda m: m > 0)
    fam = table.env.family()
    mu, q, null = dist_mod.stationary_conditionals(table, exact)
    pos = np.flatnonzero(live(mu))
    p, acc = mu[pos], [0 if exact else 0.0] * len(xs)
    for e in strategy.permutation:
        xe, iT = xs[e], fam.down[pos, e]
        stuck = np.flatnonzero(null[pos, e])
        if len(stuck):
            raise NullConditioningError(f"P[S_-e = {sorted(fam.sets[iT[stuck[0]]])}] = 0")
        qe = q[pos, e]
        acc[e] += (qe * p).sum()
        at = np.concatenate([iT, fam.up[iT, e], iT])
        mass = np.concatenate([(1 - xe) * p, qe * p, (xe - qe) * p])
        keep = live(mass)
        pos, p = _merge(at[keep], mass[keep])
    return pos, p, acc


@st.composite
def fixed_order_cases(draw):
    """(witness, x, fixed order) over matchings, hypergraph matchings,
    k-uniform and graphic families: float and Fraction Gibbs witnesses with
    x_e = rho_e * f_e (f_e >= 1), float Gibbs witnesses with x_e just below
    rho_e, exact LP witnesses at rational x, and exact tables with zero
    masses and rational x_e just below e's largest cap q_e(T), on at most
    6 elements (5 for LP).  A zero mass at T beside a positive one at T+e
    makes q_e(T) = 1 > x_e, where an arrival's terms cancel to an exact
    zero."""
    kind = draw(st.sampled_from(["matching", "hypergraph", "k-uniform", "graphic"]))
    witness = draw(st.sampled_from(["float", "fraction", "slack", "lp", "exact-slack"]))
    n_max = 5 if witness == "lp" else 6
    nv = draw(st.integers(2, 5))
    vertex = st.integers(0, nv - 1)
    if kind == "k-uniform":
        n = draw(st.integers(1, n_max))
        env = k_uniform_environment(n, draw(st.integers(1, n)))
    elif kind == "hypergraph":
        env = hypergraph_matching_environment(draw(st.lists(
            st.lists(vertex, min_size=1, max_size=3, unique=True), min_size=1, max_size=n_max)))
    elif kind == "matching":
        env = matching_environment(draw(st.lists(
            st.tuples(vertex, vertex).filter(lambda uv: uv[0] != uv[1]),
            min_size=1, max_size=n_max)), nv)
    else:       # loops included: no feasible set holds one
        env = matroid_environment(Matroid.graphic(nv, draw(st.lists(
            st.tuples(vertex, vertex), min_size=1, max_size=n_max))))
    n = env.n
    fracs = st.lists(st.fractions(Fraction(1, 10), Fraction(1), max_denominator=10),
                     min_size=n, max_size=n)
    if witness == "lp":
        x = draw(fracs)
        dist = solve_stationary_lp_exact(env, x)[1]
    elif witness == "exact-slack":
        size = len(env.family())
        w = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)
                 .filter(any))
        dist = ExplicitDistribution.on_family(env, np.arange(size),
                                              [Fraction(v, sum(w)) for v in w])
        _, q, _ = dist_mod.stationary_conditionals(dist, True)
        slack = st.integers(0, 900).map(lambda k: Fraction(k, 10**12))  # below CAP_SLACK
        x = [max(q[:, e]) - draw(slack) if max(q[:, e]) > CAP_SLACK else draw(fracs)[e]
             for e in range(n)]
    else:
        w = draw(st.lists(st.fractions(Fraction(1, 20), Fraction(3), max_denominator=20),
                          min_size=n, max_size=n))
        dist = GibbsDistribution(env, w if witness == "fraction" else list(map(float, w)))
        if witness == "slack":
            # x < q <= x + CAP_SLACK at every cap, by at most CAP_SLACK / 8 so
            # that the mass the n arrivals gain stays within the law's 1e-9
            x = [float(r) - draw(st.floats(CAP_SLACK / 100, CAP_SLACK / 8)) for r in dist.rho]
        else:
            f = draw(st.lists(st.fractions(1, 2, max_denominator=10), min_size=n, max_size=n))
            x = [min(r * v, 1) for r, v in zip(dist.rho, f)]
    return dist, x, OrderStrategy.fixed(draw(st.permutations(range(n))))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(fixed_order_cases())
def test_fixed_order_sweep_is_bit_identical_to_the_merge_reference(case):
    dist, x, strategy = case
    try:
        pos, p, ref_acc = fixed_order_reference(dist, x, strategy)
    except NullConditioningError as err:
        with pytest.raises(NullConditioningError, match=re.escape(str(err))):
            exact_output_law(dist, x, strategy)
        return
    law, acc = exact_output_law(dist, x, strategy)
    assert np.array_equal(law.positions, pos)
    sets = dist.env.family().sets
    assert list(law.support) == [sets[i] for i in pos.tolist()]
    if p.dtype == object:
        for got, want in [(law.masses.tolist(), p.tolist()), (acc, ref_acc)]:
            assert got == want and list(map(type, got)) == list(map(type, want))
    else:
        assert law.masses.tobytes() == p.tobytes()
        assert np.array(acc).tobytes() == np.array(ref_acc).tobytes()


@pytest.mark.parametrize("size", [79, 80, 81, 4000])
@pytest.mark.parametrize("exact", [False, True])
def test_merge_is_bit_identical_to_the_add_at_reference(size, exact):
    # ten atoms on six of `size` positions, three on each of two.
    # 1e16 + 1 + 1 is 1e16 in floats but 1 + 1 + 1e16 is not, so a sum
    # taken out of input order shows.
    rng = np.random.default_rng(size)
    at = rng.choice(size, 6, replace=False)[[0, 1, 0, 1, 0, 1, 2, 3, 4, 5]]
    mass = np.array([1e16, 0.3, 1.0, 0.7, 1.0, 1e16, 0.1, 0.2, 0.4, 0.5])
    if exact:
        mass = np.array([Fraction(v) / 3 for v in mass.tolist()], dtype=object)
    pos, out = _merge(at, mass)
    ref_pos, ref = merge_reference(at, mass)
    assert np.array_equal(pos, ref_pos) and out.dtype == mass.dtype
    if exact:
        assert out.tolist() == ref.tolist()
    else:
        assert out.tobytes() == ref.tobytes()


def test_exact_expansion_builds_the_conditionals_once(monkeypatch):
    # the verifier's conditionals are the ones the expansion reads
    calls = []
    real = dist_mod.family_masses
    monkeypatch.setattr(dist_mod, "family_masses",
                        lambda *a: calls.append(a) or real(*a))
    dist, x = triangle_gibbs(w=0.25, x=0.5)
    law, acc = exact_output_law(dist, x, OrderStrategy.fixed(range(3)))
    assert len(calls) == 1
    table = calls[0][0]
    assert dist_mod.stationary_conditionals(table, False)[1].flags.writeable is False
    assert len(calls) == 1


def test_laws_built_on_the_family_skip_feasibility_calls(monkeypatch):
    # the witness table and the expanded law hold sets taken from the family
    env = matching_environment([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4)
    calls = []
    real = env.is_feasible
    monkeypatch.setattr(env, "is_feasible", lambda S: calls.append(S) or real(S))
    dist = GibbsDistribution(env, [Fraction(1, 4)] * 5)
    table = dist.to_explicit()
    law, _ = exact_output_law(dist, [Fraction(1, 2)] * 5, OrderStrategy.fixed(range(5)))
    assert calls == [] and law.support == table.support


def test_run_one_shot_monte_carlo_law():
    dist, x = triangle_gibbs()
    witness = dist.to_explicit()
    rng = RngStream(17)
    counts = {}
    N = 30_000
    strat = OrderStrategy.seeded_random()
    for _ in range(N):
        S_final, trace = run_one_shot(dist, x, strat, rng)
        assert len(trace) == 3
        counts[S_final] = counts.get(S_final, 0) + 1
    # NOTE: the *accepted* set is a fresh draw each run; its law is the
    # witness law restricted through the acceptance channel -- compare the
    # simulated-set law instead via per-element acceptance frequency
    marg = {e: sum(c for S, c in counts.items() if e in S) / N for e in range(3)}
    for e in range(3):
        assert abs(marg[e] - float(witness.marginal(e))) < 0.01


def test_run_recurring_stationary_frequency():
    # single element recurring: long-run acceptance frequency = mu({e})
    env = k_uniform_environment(1, 1)
    p, x = 0.3, 0.6
    d = ExplicitDistribution(env, {frozenset(): 1 - p, frozenset({0}): p})
    trace = [(0, r, None) for r in range(10_000)]
    log = run_recurring(d, [x], trace, RngStream(5))
    freq = sum(acc for (_, _, _, acc) in log) / len(log)
    sigma = (p * (1 - p) / len(log)) ** 0.5
    assert abs(freq - p) < 4 * sigma + 1e-3


def test_run_recurring_renewal_monotonicity():
    env = k_uniform_environment(1, 1)
    d = ExplicitDistribution(env, {frozenset(): 0.5, frozenset({0}): 0.5})
    with pytest.raises(ValueError):
        run_recurring(d, [0.9], [(0, 1, None), (0, 1, None)], RngStream(0))


def test_adaptive_adversary_cannot_break_stationarity():
    # a blocker adversary reacting to accept/reject history still sees the
    # witness law as output
    from socrs.generators import gen_instance
    from socrs.maxent import solve_maxent
    from socrs.counting import CountingOracle
    env, x, _ = gen_instance("random-graph", seed=1, n_edges=5)
    oracle = CountingOracle("enumeration", env=env)
    gibbs = solve_maxent(env, oracle, (1 / 3) * np.asarray(x), tol=1e-10)
    witness = gibbs.to_explicit()
    law, acc = exact_output_law(gibbs, x,
                                OrderStrategy.adaptive(greedy_blocker_adversary(env, x)))
    assert law_tv(law, witness) < 1e-12


def test_feasibility_checks_survive_python_O():
    # python -O strips asserts; each of these broken inputs must still raise
    script = textwrap.dedent("""
        from socrs.dist import ExplicitDistribution
        from socrs.env import Environment, Matroid
        from socrs.maxent import dominating_base_point
        from socrs.policy import PolicyState, policy_step, run_recurring
        from socrs.sampling import RngStream

        # {1} is infeasible although {0, 1} is not: not downward closed
        env = Environment(2, "custom", lambda S: S != frozenset({1}))
        dist = ExplicitDistribution(env, {frozenset({0, 1}): 1.0})
        bogus = Matroid(2, "explicit", lambda T: 2 if len(T) == 2 else 0)
        cases = [
            lambda: policy_step(PolicyState(dist, [1.0, 1.0], frozenset({0, 1}),
                                            rng=RngStream(0)), 0, False),
            lambda: run_recurring(dist, [1.0, 1.0], [(0, 0, False)], RngStream(0)),
            lambda: dominating_base_point(bogus, [0.0, 0.0]),
        ]
        for i, case in enumerate(cases):
            try:
                case()
            except RuntimeError as exc:
                if type(exc) is RuntimeError:     # not a CapViolationError
                    continue
            raise SystemExit(f"case {i} did not raise the feasibility error")
        """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
