"""Acceptance gate: one test (one pass/fail line under pytest -v) per
top-level guarantee of the artifact.
"""

import itertools
import math
import time
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from socrs.counting import (BaseMeasure, CountingOracle, _matching_partition)
from socrs.dist import (GibbsDistribution, solve_stationary_lp_exact,
                        symmetric_uniform_bound, verify_stationary_lp)
from socrs.env import (Matroid, k_uniform_environment, matching_environment,
                       matroid_environment)
from socrs.generators import (alpha_bipartite, alpha_k,
                              bipartite_impossibility_bound, gen_instance,
                              greedy_bound, hat_graph_disconnection,
                              k4_alpha_limit, greedy_gamma, _poisson_cdf_parts)
from socrs.maxent import (BoundaryDivergenceError, dual_gradient, dual_value,
                          solve_maxent)
from socrs.policy import (OrderStrategy, exact_output_law,
                          greedy_blocker_adversary, target_last_adversary)
from socrs.rayleigh import build_witness, materialize, rayleigh_check
from socrs.replay import outcome_distribution, replay
from socrs.sampling import RngStream, tv_multinomial_sigma


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} {detail}")
    assert ok, f"criterion {num:02d} ({name}) failed: {detail}"


def _law_tv(a, b):
    keys = set(a.support) | set(b.support)
    return 0.5 * sum(abs(float(a.support.get(S, 0)) - float(b.support.get(S, 0)))
                     for S in keys)


def _maxent_witness(env, x, alpha):
    oracle = CountingOracle("enumeration", env=env)
    return solve_maxent(env, oracle, alpha * np.asarray(x), tol=1e-12)


# -------------------------------------------------------------------------
# 1. matchings: 1/3-selectable
# -------------------------------------------------------------------------

def test_criterion_01_matching_one_third():
    t0 = time.time()
    worst = 1.0
    for seed in range(20):
        env, x, _ = gen_instance("random-graph", seed=seed,
                                 n_edges=4 + seed % 5, n_vertices=6)
        gibbs = _maxent_witness(env, x, 1 / 3)
        rep = verify_stationary_lp(gibbs, x, 1 / 3, tol=1e-9)
        assert rep.passes(1 / 3 - 1e-9, tol=1e-9)
        assert not rep.violated_caps
        _, acc = exact_output_law(gibbs, x, OrderStrategy.fixed(list(range(env.n))))
        worst = min(worst, min(acc[e] / x[e] for e in range(env.n)))
    elapsed = time.time() - t0
    _report(1, "matching witnesses are 1/3-selectable",
            worst >= 1 / 3 - 1e-12 and elapsed < 60,
            f"min selectability {worst:.15f}, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 2. bipartite: (3 - sqrt 5)/2 witnesses and the deletion inequality
# -------------------------------------------------------------------------

def test_criterion_02_bipartite_witness_and_deletion_inequality():
    alpha_star = alpha_bipartite()
    for seed in range(20):
        env, x, _ = gen_instance("random-bipartite", seed=seed,
                                 n_edges=4 + seed % 5, n_vertices=6)
        gibbs = _maxent_witness(env, x, alpha_star)
        rep = verify_stationary_lp(gibbs, x, alpha_star, tol=1e-9)
        assert rep.passes(alpha_star - 1e-9, tol=1e-9), f"seed {seed}"
        assert not rep.violated_caps

    # deletion inequality Z(G) Z(G-u-v) >= Z(G-u) Z(G-v), u and v on
    # opposite sides, over every subgraph of K_{a,b} with a+b <= 6
    rng = RngStream(2024)
    one = Fraction(1)

    def Z(edges, w, dropped):
        sub = [i for i, e in enumerate(edges)
               if e[0] not in dropped and e[1] not in dropped]
        return _matching_partition([edges[i] for i in sub],
                                   [w[i] for i in sub], one)

    slack_ok = True
    budget_random = 200
    for a in range(1, 6):
        for b in range(a, 7 - a):
            full = [(i, a + j) for i in range(a) for j in range(b)]
            for mask in range(1 << len(full)):
                edges = [full[i] for i in range(len(full)) if mask >> i & 1]
                weightings = [[one] * len(edges)]
                if edges and budget_random > 0:
                    budget_random -= 1
                    weightings.append([Fraction(1 + int(rng.uniform() * 999), 500)
                                       for _ in edges])
                for w in weightings:
                    zg = Z(edges, w, ())
                    for u in range(a):
                        for v in range(a, a + b):
                            lhs = zg * Z(edges, w, (u, v))
                            rhs = Z(edges, w, (u,)) * Z(edges, w, (v,))
                            if lhs - rhs < 0:      # exact rational slack
                                slack_ok = False
    _report(2, "bipartite witnesses and deletion inequality", slack_ok)


# -------------------------------------------------------------------------
# 3. bipartite impossibility: exact LP on the star-vs-private instance
# -------------------------------------------------------------------------

def test_criterion_03_bipartite_impossibility_lp():
    t0 = time.time()
    alpha_star = alpha_bipartite()
    prev = None
    ok = True
    details = []
    for n in (3, 4, 5):
        env, x, _ = gen_instance("bipartite-impossibility", n=n)
        xr = [Fraction(1, n)] * n + [1 - Fraction(1, n)] * n
        a_opt, _ = solve_stationary_lp_exact(env, xr)
        bound = bipartite_impossibility_bound(1.0 / n)
        ok &= float(a_opt) >= alpha_star - 1e-9
        ok &= float(a_opt) <= bound + 1e-9
        if prev is not None:
            ok &= a_opt < prev
        prev = a_opt
        details.append(f"n={n}: {float(a_opt):.9f} <= {bound:.9f}")
    elapsed = time.time() - t0
    _report(3, "impossibility LP brackets the bipartite constant",
            ok and elapsed < 30, "; ".join(details) + f", {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 4. k-uniform: alpha_k witnesses and the symmetric binomial bound
# -------------------------------------------------------------------------

def test_criterion_04_k_uniform():
    ok = abs(alpha_k(1) - 0.5) < 1e-15 and abs(alpha_k(2) - 0.6) < 1e-15
    rng = RngStream(44)
    for (n, k) in [(4, 1), (6, 2), (8, 3)]:
        env = k_uniform_environment(n, k)
        raw = 0.1 + 0.85 * np.asarray(rng.uniform(n))
        x = raw * min(0.95 * k / raw.sum(), 0.95 / raw.max())
        a = alpha_k(k)
        gibbs = _maxent_witness(env, list(x), a)
        rep = verify_stationary_lp(gibbs, list(x), a, tol=1e-9)
        ok &= rep.passes(a - 1e-9, tol=1e-9) and not rep.violated_caps
    env42 = k_uniform_environment(4, 2)
    a_lp, _ = solve_stationary_lp_exact(env42, [Fraction(1, 2)] * 4)
    bound = symmetric_uniform_bound(4, 2, Fraction(1, 2))
    ok &= abs(a_lp - bound) <= Fraction(1, 10 ** 9)
    _report(4, "k-uniform witnesses and symmetric bound", ok,
            f"LP(4,2) = {a_lp} = binomial ratio {bound}")


# -------------------------------------------------------------------------
# 5. greedy with homogeneous random discarding
# -------------------------------------------------------------------------

def test_criterion_05_greedy_with_discarding():
    t0 = time.time()
    rng = RngStream(42)
    ok = True
    for k in range(2, 13):
        m = math.floor(math.sqrt(k / 2) + 0.5)
        gamma = 1 - Fraction(m, k)
        assert abs(float(gamma) - greedy_gamma(k)) < 1e-15
        bound = greedy_bound(k)
        for rep in range(10):
            n = k + 1 + int(rng.uniform() * 8) % 8
            raw = [Fraction(int(rng.uniform() * 1000) + 1, 1000) for _ in range(n)]
            scale = min(Fraction(k) / sum(raw), Fraction(95, 100) / max(raw))
            x = [r * scale for r in raw]
            rho = [gamma * v for v in x]
            w = [r / (1 - r) for r in rho]
            env = k_uniform_environment(n, k)
            oracle = CountingOracle("ksym-dp", env=env, mode="rational")
            sel = min(oracle.marginal_probability(w, e) / x[e] for e in range(n))
            ok &= float(sel) >= bound - 1e-12
    elapsed = time.time() - t0
    _report(5, "greedy-with-discarding meets its bound",
            ok and elapsed < 60, f"{elapsed:.1f}s")


# -------------------------------------------------------------------------
# 6. truncated Poisson comparison
# -------------------------------------------------------------------------

def test_criterion_06_poisson_comparison():
    rng = RngStream(99)
    violations = 0
    count = 0
    while count < 10_000:
        n = 2 + int(rng.uniform() * 10) % 10
        k = 1 + int(rng.uniform() * n) % n
        rho = np.asarray(rng.uniform(n))
        lam = float(rng.uniform()) * 3 * k
        dp = np.zeros(n + 1)
        dp[0] = 1.0
        for r in rho:
            dp[1:] = dp[1:] * (1 - r) + dp[:-1] * r
            dp[0] *= 1 - r
        le = dp[:k + 1].sum()
        lt = dp[:k].sum()
        ET = (np.arange(k + 1) * dp[:k + 1]).sum() / le
        plt_, ple = _poisson_cdf_parts(lam, k)
        if ple == 0:
            continue
        EQ = lam * plt_ / ple
        if ET > EQ:              # conditional-mean hypothesis not satisfied
            continue
        count += 1
        if (plt_ / ple) - (lt / le) > 1e-12:
            violations += 1
    _report(6, "truncated Poisson-binomial dominates truncated Poisson",
            violations == 0, f"{count} triples, {violations} violations")


# -------------------------------------------------------------------------
# 7. weakly Rayleigh pipeline: 1/2-selectable on graphic matroids
# -------------------------------------------------------------------------

def test_criterion_07_rayleigh_pipeline():
    graphs = [g for g in nx.graph_atlas_g()
              if 2 <= g.number_of_nodes() <= 5 and g.number_of_edges() >= 1
              and nx.is_connected(g)]
    rng = RngStream(123)
    worst_marg = 0.0
    worst_sel = 0.0
    caps_ok = True
    for g in graphs:
        relab = {v: i for i, v in enumerate(g.nodes())}
        edges = [(relab[u], relab[v]) for u, v in g.edges()]
        m = Matroid.graphic(len(relab), edges)
        n = len(edges)
        raw = 0.1 + 0.8 * np.asarray(rng.uniform(n))
        load = max(sum(raw[e] for e in T) / m.rank(frozenset(T))
                   for T in (frozenset(e for e in range(n) if mask >> e & 1)
                             for mask in range(1, 1 << n)))
        x = raw * (0.9 / load if load > 1 else 1.0)
        witness = build_witness(BaseMeasure.uniform_on_bases(m), x, b=1.0)
        law = materialize(witness)
        worst_marg = max(worst_marg,
                         max(abs(law.marginal(e) - x[e] / 2) for e in range(n)))
        rep = verify_stationary_lp(law, list(x), 0.5, tol=1e-6)
        caps_ok &= not rep.violated_caps
        _, acc = exact_output_law(law, list(x), OrderStrategy.fixed(list(range(n))))
        worst_sel = max(worst_sel,
                        max(abs(acc[e] / x[e] - 0.5) for e in range(n)))
    # scaled mode b = 2 on the triangle
    m3 = Matroid.graphic(3, [(0, 1), (1, 2), (0, 2)])
    x3 = np.array([0.3, 0.25, 0.35])
    w2 = build_witness(BaseMeasure.uniform_on_bases(m3), x3, b=2.0)
    law2 = materialize(w2)
    b2_err = max(abs(law2.marginal(e) - x3[e] / 3) for e in range(3))
    _report(7, "Rayleigh pipeline is 1/2-selectable (1/3 at b=2)",
            worst_marg < 1e-6 and worst_sel < 1e-6 and caps_ok and b2_err < 1e-6,
            f"{len(graphs)} graphs, marginal err {worst_marg:.2e}, "
            f"selectability dev {worst_sel:.2e}, b=2 err {b2_err:.2e}")


# -------------------------------------------------------------------------
# 8. Rayleigh inequality checker
# -------------------------------------------------------------------------

def test_criterion_08_rayleigh_checker():
    rng = RngStream(7)
    graphs = [nx.cycle_graph(3), nx.path_graph(4), nx.complete_graph(4),
              nx.cycle_graph(5), nx.complete_bipartite_graph(2, 3),
              nx.complete_graph(5), nx.cycle_graph(6), nx.complete_graph(6)]
    ok = True
    worst_all = -np.inf
    for g in graphs:
        edges = list(g.edges())
        m = Matroid.graphic(g.number_of_nodes(), edges)
        mu0 = BaseMeasure.uniform_on_bases(m)
        passed, worst, _ = rayleigh_check(mu0, trials=100, rng=rng.spawn(len(edges)))
        ok &= passed
        worst_all = max(worst_all, worst)
    # determinantal measures (incidence representations + a random matrix)
    for A in [[[1, 0, 1, 1], [0, 1, 1, -1]],
              [[1, 0, 0, 1, 1, 0], [0, 1, 0, -1, 0, 1], [0, 0, 1, 0, -1, -1]],
              [[2, 1, 0, 1], [1, 0, 1, 3]]]:
        base = BaseMeasure.determinantal(A)
        passed, worst, _ = rayleigh_check(base, trials=100, rng=rng.spawn(99))
        ok &= passed
        worst_all = max(worst_all, worst)
    # negative control: a positively-correlated measure must fail; U(4,2)
    # with its mass on the disjoint bases {0,1} and {2,3}
    bad = BaseMeasure.explicit(Matroid.uniform(4, 2), {
        frozenset({0, 1}): 0.48, frozenset({2, 3}): 0.48, frozenset({0, 2}): 0.01,
        frozenset({0, 3}): 0.01, frozenset({1, 2}): 0.01, frozenset({1, 3}): 0.01})
    control_fails, control_worst, _ = rayleigh_check(bad, trials=100, rng=rng)
    _report(8, "Rayleigh inequality holds under random tilts",
            ok and worst_all <= 1e-12 and not control_fails and control_worst > 0.1,
            f"worst slack {worst_all:.2e}, control violation {control_worst:.3f}")


# -------------------------------------------------------------------------
# 9. barriers: hat graphs and the K4 limit
# -------------------------------------------------------------------------

def test_criterion_09_barriers():
    hat_ok = all(hat_graph_disconnection(n) == Fraction(3, n + 3)
                 for n in range(1, 7))
    # K4 partition function: 1 + 4t + 2s + 2t^2 + s^2 with the four cycle
    # edges at weight t and the two diagonals at weight s
    env, _, _ = gen_instance("K4-barrier", eps=0.1)
    oracle = CountingOracle("matching-recursion", env=env, mode="rational")
    rng = RngStream(31)
    z_ok = True
    for _ in range(100):
        t = Fraction(1 + int(rng.uniform() * 999), 250)
        s = Fraction(1 + int(rng.uniform() * 999), 250)
        z = oracle.partition([t, t, t, t, s, s])
        z_ok &= z == 1 + 4 * t + 2 * s + 2 * t * t + s * s
    limit = (math.sqrt(3) - 1) / 2
    a = k4_alpha_limit(1e-3)
    _report(9, "hat-graph and K4 max-entropy barriers",
            hat_ok and z_ok and abs(a - limit) < 5e-3,
            f"K4 alpha(1e-3) = {a:.6f} vs limit {limit:.6f}")


# -------------------------------------------------------------------------
# 10. law preservation and stationarity
# -------------------------------------------------------------------------

def _small_witnesses():
    tri = matching_environment([(0, 1), (1, 2), (0, 2)], 3)
    path4 = matching_environment([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
    ku = k_uniform_environment(5, 2)
    m = Matroid.graphic(3, [(0, 1), (1, 2), (0, 2)])
    forest = matroid_environment(m)
    out = []
    for env, w, x in [
            (tri, [Fraction(1, 3)] * 3, [Fraction(1, 2)] * 3),
            (path4, [Fraction(1, 4), Fraction(1, 2), Fraction(1, 5), Fraction(1, 3)],
             [Fraction(2, 5), Fraction(1, 2), Fraction(3, 10), Fraction(2, 5)]),
            (ku, [Fraction(1, 5)] * 5, [Fraction(3, 10)] * 5),
            (forest, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)],
             [Fraction(1, 2), Fraction(1, 2), Fraction(2, 5)])]:
        out.append((GibbsDistribution(env, w), x))
    return out


def test_criterion_10_law_preservation():
    worst_tv = 0.0
    for dist, x in _small_witnesses():
        witness = dist.to_explicit()
        env = dist.env
        strategies = [OrderStrategy.fixed(list(range(env.n))),
                      OrderStrategy.fixed(list(range(env.n - 1, -1, -1))),
                      OrderStrategy.adaptive(target_last_adversary(0)),
                      OrderStrategy.adaptive(greedy_blocker_adversary(env, x))]
        for strat in strategies:
            law, _ = exact_output_law(dist, x, strat)
            worst_tv = max(worst_tv, _law_tv(law, witness))
    # Monte-Carlo on an 8-element instance, 5 random fixed orders
    edges = [(i, i + 1) for i in range(8)]
    env8 = matching_environment(edges, 9)
    dist8 = GibbsDistribution(env8, [0.3] * 8)
    x8 = [0.4] * 8
    table8 = dist8.to_explicit()
    N = 100_000
    mc_ok = True
    order_rng = RngStream(55)
    for trial in range(5):
        perm = np.argsort(order_rng.uniform(8)).astype(np.int64)
        orders = np.broadcast_to(perm, (N, 8)).copy()
        _, outcomes, n_rep = replay(dist8, x8, orders, RngStream(100 + trial))
        emp = outcome_distribution(env8, outcomes, n_rep)
        mc_ok &= _law_tv(emp, table8) <= 3 * tv_multinomial_sigma(table8, N)
    _report(10, "output law equals the witness law under every order",
            worst_tv <= 1e-12 and mc_ok, f"exact TV {worst_tv:.2e}")


# -------------------------------------------------------------------------
# 11. counting: constrained counts and thinned masses
# -------------------------------------------------------------------------

def test_criterion_11_counting_interpolation():
    rng = RngStream(8)
    matroids = [Matroid.uniform(5, 2), Matroid.uniform(8, 3),
                Matroid.uniform(10, 3),
                Matroid.graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
                Matroid.graphic(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
                Matroid.graphic(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                    (0, 2), (1, 3)])]
    ok = True
    for m in matroids:
        env = matroid_environment(m)
        fam = env.enumerate_feasible()
        n = m.n
        w = [Fraction(1 + int(rng.uniform() * 20), 7) for _ in range(n)]
        oracle = CountingOracle("enumeration", env=env, mode="rational")
        for I, J in [([0], []), ([], [1]), ([0, 2], [1]), ([1], [0, 2]),
                     (list(range(min(3, n))), [n - 1])]:
            direct = sum(math.prod([Fraction(1)] + [w[e] for e in S])
                         for S in fam if set(I) <= S and not (set(J) & S))
            ok &= oracle.constrained_count(w, I, J) == direct
        # thinned masses against the summed-out definition
        base = BaseMeasure.uniform_on_bases(m)
        ob = CountingOracle("enumeration", base=base, mode="rational")
        tau = [Fraction(1 + int(rng.uniform() * 8), 10) for _ in range(n)]
        table = base.to_table()
        Z = sum(mu * math.prod([Fraction(1)] + [w[e] for e in B])
                for B, mu in table.items())
        for T in [frozenset(), frozenset({0}), frozenset({0, 1})]:
            direct = Fraction(0)
            for B, mu in table.items():
                if not (T <= B):
                    continue
                pr = mu * math.prod([Fraction(1)] + [w[e] for e in B]) / Z
                for e in B:
                    pr *= tau[e] if e in T else (1 - tau[e])
                direct += pr
            ok &= ob.thinned_mass(w, tau, sorted(T)) == direct
    # matrix-tree = Cauchy-Binet = enumeration on graphs up to 6 vertices
    for g in [nx.complete_graph(4), nx.cycle_graph(6),
              nx.complete_bipartite_graph(2, 3)]:
        edges = list(g.edges())
        nv = g.number_of_nodes()
        m = Matroid.graphic(nv, edges)
        base = BaseMeasure.uniform_on_bases(m)
        A = [[0] * len(edges) for _ in range(nv - 1)]
        for j, (u, v) in enumerate(edges):
            if u != 0:
                A[u - 1][j] = 1
            if v != 0:
                A[v - 1][j] = -1
        det_base = BaseMeasure.determinantal(A)
        w = [Fraction(1 + int(rng.uniform() * 9), 4) for _ in edges]
        za = CountingOracle("enumeration", base=base, mode="rational").partition(w)
        zb = CountingOracle("matrix-tree", base=base, mode="rational").partition(w)
        zc = CountingOracle("cauchy-binet", base=det_base, mode="rational").partition(w)
        ok &= za == zb == zc
    _report(11, "constrained counts and thinned masses are exact", ok)


# -------------------------------------------------------------------------
# 12. dual solver: gradients, marginal accuracy, boundary diagnosis
# -------------------------------------------------------------------------

def test_criterion_12_dual_solver():
    nrng = np.random.default_rng(3)
    grad_ok = True
    marg_ok = True
    for trial in range(50):
        if trial % 2 == 0:
            env, x, _ = gen_instance("random-graph", seed=trial,
                                     n_edges=4 + trial % 4)
        else:
            n = 4 + trial % 5
            env = k_uniform_environment(n, 2)
            x = list(0.5 * np.ones(n) * 2 / n + 0.1)
        oracle = CountingOracle("enumeration", env=env)
        p = 0.3 * np.asarray(x)
        theta = nrng.normal(scale=0.7, size=env.n)
        g = dual_gradient(oracle, theta, p)
        h = 1e-6
        for e in range(env.n):
            up, dn = theta.copy(), theta.copy()
            up[e] += h
            dn[e] -= h
            fd = (dual_value(oracle, up, p) - dual_value(oracle, dn, p)) / (2 * h)
            grad_ok &= abs(g[e] - fd) < 1e-6
        gibbs = solve_maxent(env, oracle, p, tol=1e-10)
        marg_ok &= float(np.abs(oracle.marginals(np.asarray(gibbs.w, float))
                                - p).max()) < 1e-8
    # five targets on or just past a face of the polytope must be diagnosed
    # as divergent (exactly-on-face targets saturate double precision, so
    # the constructed cases sit 1e-6 outside)
    boundary_cases = [
        (k_uniform_environment(3, 1), [0.5, 0.4, 0.3]),
        (k_uniform_environment(2, 1), [0.9, 0.2]),
        (k_uniform_environment(4, 2), [0.5 + 1e-6] * 4),
        (matching_environment([(0, 1), (1, 2), (0, 2)], 3), [0.5, 0.5, 0.5]),
        (matching_environment([(0, 1), (1, 2)], 3), [0.6 + 1e-6, 0.4 + 1e-6]),
    ]
    diagnosed = 0
    for env, p in boundary_cases:
        oracle = CountingOracle("enumeration", env=env)
        try:
            solve_maxent(env, oracle, p, tol=1e-10)
        except BoundaryDivergenceError:
            diagnosed += 1
    _report(12, "dual solver gradients, marginals, and divergence diagnosis",
            grad_ok and marg_ok and diagnosed == 5,
            f"{diagnosed}/5 boundary cases diagnosed")
