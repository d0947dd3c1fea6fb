"""Monte-Carlo replay: the block kernel and the row-parallel Fisher-Yates
against scalar per-replication references, and replays against the exact law."""

import functools
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socrs import _replay_py
from socrs import dist as dist_mod
from socrs.counting import CountingOracle
from socrs.dist import (ExplicitDistribution, GibbsDistribution, stationary_conditionals,
                        verify_stationary_lp)
from socrs.env import k_uniform_environment, matching_environment
from socrs.generators import (ExperimentConfig, estimate_selectability, gen_instance,
                              wilson_interval)
from socrs.maxent import solve_maxent
from socrs.policy import CapViolationError, OrderStrategy, exact_output_law
from socrs.replay import outcome_distribution, random_orders, replay
from socrs.sampling import RngStream, tv_multinomial_sigma


def path_instance(n_edges=4, w=0.3, x=0.4):
    edges = [(i, i + 1) for i in range(n_edges)]
    env = matching_environment(edges, n_edges + 1)
    return GibbsDistribution(env, [w] * n_edges), [x] * n_edges


def zero_mass_instance():
    # {1}, {3}, {1, 3} and {0, 3} are feasible with zero mass, {1} listed
    # explicitly so the support CDF has a step of width 0
    dist, _ = path_instance(4)
    support = {(): 0.4, (0,): 0.2, (1,): 0.0, (2,): 0.2, (0, 2): 0.2}
    return ExplicitDistribution(dist.env, support), [0.6, 0.4, 0.6, 0.4]


def _kernel_tables(dist):
    """What replay hands the kernel: (qt, moves, support_pos) for
    `kernel_tables`, and the support CDF."""
    table = dist.to_explicit()
    fam = table.env.family()
    _, q, _ = stationary_conditionals(table, exact=False)
    moves = np.stack([fam.down, fam.up[fam.down, np.arange(table.env.n)]], axis=-1).reshape(-1)
    sets = table.sets()
    cdf = np.cumsum([float(table.support[S]) for S in sets])
    cdf[-1] = 1.0 + 1e-12
    return q.reshape(-1), moves, np.array([fam.index[S] for S in sets]), cdf


def _batch_inputs(dist, x, n_rep, seed):
    n = dist.env.n
    rng = RngStream(seed)
    orders = random_orders(n, n_rep, rng)
    u = rng.uniform((n_rep, 2 * n + 1))
    return (*_kernel_tables(dist), np.asarray(x, float), orders, u)


# -- scalar references: one replication, one swap at a time ------------------

def _replay_reference(dist, x, orders, u):
    """Per-replication replays over frozensets and dist.prob: (accept counts,
    {final set: count})."""
    table = dist.to_explicit()
    n = table.env.n
    sets = table.sets()
    accept_counts = np.zeros(n, dtype=np.int64)
    outcomes = {}
    for r in range(orders.shape[0]):
        # the first support set, in sets() order, whose CDF value exceeds u;
        # draws beyond the last CDF value take the last set
        S, c = sets[-1], 0.0
        for T in sets:
            c += float(table.support[T])
            if u[r, 0] < c:
                S = T
                break
        for j in range(n):
            e = int(orders[r, j])
            T = S - {e}
            a, b = table.prob(T), table.prob(T | {e})
            S = T           # a null conditioning event (a + b = 0) never keeps e
            if (a + b > 0 and u[r, 1 + 2 * j] < x[e]
                    and u[r, 2 + 2 * j] < min(b / (a + b) / x[e], 1.0)):
                S = T | {e}
                accept_counts[e] += 1
        outcomes[S] = outcomes.get(S, 0) + 1
    return accept_counts, outcomes


def _orders_reference(n, n_rep, rng):
    u = rng.uniform((n_rep, n))
    orders = np.empty((n_rep, n), dtype=np.int64)
    for r in range(n_rep):
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = int(u[r, i] * (i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        orders[r] = perm
    return orders


def _run_kernel(env, qt, moves, support_pos, cdf, xf, orders, u):
    """The kernel's outcome counts over one call, and the accepts read off
    them as `replay` reads them, by the family's incidence matrix."""
    out = np.zeros(len(qt) // len(xf) - 1, dtype=np.int64)
    acc2, moves2n, sp2n = _replay_py.kernel_tables(qt, moves, support_pos, xf)
    _replay_py.replay_batch(acc2, moves2n, sp2n, cdf, xf, orders, u, out)
    return out @ env.family().inc, out


def _by_set(env, outcome_counts):
    sets = env.family().sets
    return {sets[p]: c for p, c in enumerate(outcome_counts.tolist()) if c}


def test_replay_reads_a_law_on_positions_in_family_order():
    # one law on the family's positions, on shuffled positions and by its
    # sets: one initial CDF, so the same counts
    dist, x = path_instance(4)
    table = dist.to_explicit()
    shuffle = np.random.default_rng(0).permutation(len(table.positions))
    laws = [table, ExplicitDistribution.on_family(dist.env, table.positions[shuffle],
                                                  table.masses[shuffle]),
            ExplicitDistribution(dist.env, table.support)]
    runs = [replay(law, x, None, RngStream(5), n_rep=3000) for law in laws]
    for acc, out, _ in runs[1:]:
        assert np.array_equal(acc, runs[0][0]) and np.array_equal(out, runs[0][1])


def test_kernels_bit_identical():
    for (dist, x), n_rep in [
            (path_instance(4), 2 * _replay_py.BLOCK + 37),      # ragged last block
            (path_instance(4), 100),                            # less than one block
            (path_instance(1), 500),                            # n = 1
            (zero_mass_instance(), 3000)]:
        inputs = _batch_inputs(dist, x, n_rep, 3)
        # initial draws exactly on every CDF step, the last (1 + 1e-12) included
        cdf, u = inputs[3], inputs[6]
        u[:len(cdf), 0] = cdf[:n_rep]
        acc, out = _run_kernel(dist.env, *inputs)
        ref_acc, ref_out = _replay_reference(dist, x, inputs[5], u)
        assert np.array_equal(acc, ref_acc) and _by_set(dist.env, out) == ref_out
        assert out.sum() == n_rep


def test_kernel_with_one_order_broadcast_matches_reference():
    dist, x = path_instance(4)
    order = np.array([2, 0, 3, 1], dtype=np.int64)
    acc, out, n_rep = replay(dist, x, order, RngStream(4), n_rep=1000)
    u = RngStream(4).uniform((n_rep, 2 * 4 + 1))
    ref_acc, ref_out = _replay_reference(dist, x, np.broadcast_to(order, (n_rep, 4)), u)
    assert np.array_equal(acc, ref_acc) and _by_set(dist.env, out) == ref_out


def test_single_order_replays_without_copying_it():
    import tracemalloc
    dist, x = path_instance(8)
    order = np.array([3, 7, 0, 5, 1, 6, 2, 4], dtype=np.int64)
    n_rep = 1_000_000
    tracemalloc.start()
    try:
        acc, out, _ = replay(dist, x, order, RngStream(6), n_rep=n_rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an (n_rep, 8) int64 copy of the order alone would take 61 MB
    assert peak < 4 * 2**20
    ref_acc, ref_out, _ = replay(dist, x, np.tile(order, (n_rep, 1)), RngStream(6))
    assert np.array_equal(acc, ref_acc) and np.array_equal(out, ref_out)


def test_replay_draws_uniforms_per_block():
    import tracemalloc
    dist, x = path_instance(8)
    n_rep = 200_000
    rng = RngStream(5)
    orders = random_orders(8, n_rep, rng)
    tracemalloc.start()
    try:
        acc, out, _ = replay(dist, x, orders, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (n_rep, 17) float64 draw alone would take 27 MB
    assert peak < 8 * 2**20
    ref_rng = RngStream(5)
    random_orders(8, n_rep, ref_rng)
    u = ref_rng.uniform((n_rep, 2 * 8 + 1))
    ref_acc, ref_out = _run_kernel(dist.env, *_kernel_tables(dist), np.asarray(x, float), orders, u)
    assert np.array_equal(acc, ref_acc) and np.array_equal(out, ref_out)
    assert rng.counter == ref_rng.counter


@pytest.mark.parametrize("n_rep", [0, 1, _replay_py.BLOCK - 1, _replay_py.BLOCK,
                                   _replay_py.BLOCK + 37, 2 * _replay_py.BLOCK - 1,
                                   2 * _replay_py.BLOCK, 2 * _replay_py.BLOCK + 37])
def test_random_orders_per_block_equal_one_orders_array(n_rep):
    dist, x = path_instance(5)
    rng = RngStream(8)
    acc, out, n = replay(dist, x, None, rng, n_rep=n_rep)
    ref_rng = RngStream(8)
    ref_acc, ref_out, ref_n = replay(dist, x, random_orders(5, n_rep, ref_rng), ref_rng)
    assert n == ref_n == n_rep
    assert np.array_equal(acc, ref_acc) and np.array_equal(out, ref_out)
    assert rng.counter == ref_rng.counter == n_rep * (5 + 2 * 5 + 1)
    # both streams sit at the same state, not only at the same count
    assert np.array_equal(rng.uniform(4), ref_rng.uniform(4))


def test_estimate_holds_one_block_of_random_orders():
    import tracemalloc
    dist, x = path_instance(8)
    config = ExperimentConfig(seed=3, samples=1_000_000)
    tracemalloc.start()
    try:
        rec = estimate_selectability(dist, x, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (samples, 8) int64 orders array alone would take 61 MB
    assert peak < 8 * 2**20
    assert rec.n_rep == 1_000_000 and sum(rec.accepts) > 0


@pytest.mark.parametrize("n, n_rep", [(8, 1000), (4, 2 * _replay_py.BLOCK + 37),
                                      (1, 10), (5, 1), (3, 0)])
def test_random_orders_match_scalar_fisher_yates(n, n_rep):
    assert np.array_equal(random_orders(n, n_rep, RngStream(2)),
                          _orders_reference(n, n_rep, RngStream(2)))


def test_replay_runs_beyond_20_elements():
    # 21 elements: the replay holds the 22 feasible sets, not a 2^21 table
    env = k_uniform_environment(21, 1)
    dist = GibbsDistribution(env, [0.1] * 21)
    N = 20_000
    rng = RngStream(3)
    acc, outcomes, n_rep = replay(dist, [0.1] * 21, random_orders(21, N, rng), rng)
    assert len(outcomes) == 22 and outcomes.sum() == n_rep == N
    p = 0.1 / 3.1                                   # each singleton's witness mass
    for e in range(21):
        assert abs(acc[e] / N - p) < 4 * (p * (1 - p) / N) ** 0.5 + 1e-3


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


def test_replay_builds_the_conditionals_once(monkeypatch):
    calls = []
    real = dist_mod.family_masses
    monkeypatch.setattr(dist_mod, "family_masses",
                        lambda *a: calls.append(a) or real(*a))
    dist, x = path_instance(3)
    rng = RngStream(1)
    replay(dist, x, random_orders(3, 100, rng), rng)
    assert len(calls) == 1


def test_replay_raises_the_verifiers_first_violated_cap():
    # element 0 breaks its cap at T = {} (q = 0.4) and worse at T = {1}
    # (q = 0.8); the verifier reports the first in family order
    env = k_uniform_environment(2, 2)
    dist = ExplicitDistribution(env, {frozenset(): 0.3, frozenset({0}): 0.2,
                                      frozenset({1}): 0.1, frozenset({0, 1}): 0.4})
    x = [0.3, 0.9]
    first = verify_stationary_lp(dist, x, 0.0).violated_caps[0]
    assert first[:2] == (0, frozenset())
    rng = RngStream(1)
    with pytest.raises(CapViolationError) as info:
        replay(dist, x, random_orders(2, 100, rng), rng)
    exc = info.value
    assert (exc.e, exc.T, exc.q, exc.xe) == first


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.integers(4, 7), st.data())
def test_replay_frequencies_agree_with_the_exact_expansion(seed, n_vertices, data):
    # max-ent witnesses at alpha = 1/3 on random matchings of at most 7 edges
    n_edges = data.draw(st.integers(1, min(7, n_vertices * (n_vertices - 1) // 2)))
    env, x, _ = gen_instance("random-graph", seed=seed, n_vertices=n_vertices, n_edges=n_edges)
    gibbs = solve_maxent(env, CountingOracle("enumeration", env=env), np.asarray(x) / 3)
    witness = gibbs.to_explicit()
    _, acc = exact_output_law(gibbs, x, OrderStrategy.fixed(range(env.n)))
    for e in range(env.n):
        assert abs(acc[e] - witness.marginal(e)) <= 1e-12
    N = 20_000
    rng = RngStream(seed)
    counts, _, _ = replay(gibbs, x, random_orders(env.n, N, rng), rng)
    z = NormalDist().inv_cdf(1 - 1e-6 / (2 * env.n))      # Bonferroni over elements
    for e in range(env.n):
        lo, hi = wilson_interval(int(counts[e]), N, z)
        assert lo <= acc[e] <= hi


def test_python_kernel_still_guards_the_cap():
    # the kernel's tables built directly, without replay's check_cap pass
    dist, _ = path_instance(3, w=1.0, x=0.2)
    qt, moves, support_pos, _, xf, _, _ = _batch_inputs(dist, [0.2] * 3, 100, 1)
    with pytest.raises(ValueError, match="stationary caps"):
        _replay_py.kernel_tables(qt, moves, support_pos, xf)


@pytest.mark.parametrize("excess", [0.0, 0.5 * dist_mod.CAP_SLACK])
def test_kernel_clips_the_acceptance_ratio_at_the_cap(excess):
    # x_e at q_e's largest value (ratio exactly 1 there) or just below it,
    # within CAP_SLACK (ratio above 1, clipped to 1): both match the reference
    dist, _ = path_instance(4)
    qt = _kernel_tables(dist)[0]
    x = qt.reshape(-1, 4).max(axis=0) - excess
    inputs = _batch_inputs(dist, x, 3000, 11)
    acc2 = _replay_py.kernel_tables(*inputs[:3], inputs[4])[0]
    assert (acc2 == 1.0).any()
    acc, out = _run_kernel(dist.env, *inputs)
    ref_acc, ref_out = _replay_reference(dist, x, inputs[5], inputs[6])
    assert np.array_equal(acc, ref_acc) and _by_set(dist.env, out) == ref_out
    assert acc.sum() > 0


def test_kernel_tables_built_once_per_replay(monkeypatch):
    tables, batches = [], []
    real_tables, real_batch = _replay_py.kernel_tables, _replay_py.replay_batch
    monkeypatch.setattr(_replay_py, "kernel_tables",
                        lambda *a: tables.append(1) or real_tables(*a))
    monkeypatch.setattr(_replay_py, "replay_batch",
                        lambda *a: batches.append(1) or real_batch(*a))
    dist, x = path_instance(4)
    replay(dist, x, None, RngStream(1), n_rep=2 * _replay_py.BLOCK + 1)
    assert len(tables) == 1 and len(batches) == 3


@pytest.mark.parametrize("orders, n_rep", [
    ([[0, 0, 1]] * 4, None),        # not a permutation: element 0 twice
    ([[0, 1, 2]] * 4, 5),           # n_rep disagrees with the rows given
    ([[0, 1]] * 4, None),           # too narrow
    ([2, 0, 1, 3], 4),              # a single order too wide
    ([[[0, 1, 2]]], None)])         # neither one order nor a table of them
def test_replay_rejects_bad_fixed_orders_before_drawing(orders, n_rep):
    dist, x = path_instance(3)
    rng = RngStream(1)
    with pytest.raises(ValueError):
        replay(dist, x, orders, rng, n_rep=n_rep)
    assert rng.counter == 0


# accepts and outcome counts of one seeded `estimate --mode mc`, recorded
# before the replay kernel moved to per-replay tables: the rebuilt kernel
# keeps every count
MC_PINNED_ACCEPTS = [8670, 6639, 1488, 3398, 9976, 4098, 10721, 9855]
MC_PINNED_OUTCOMES = [51022, 7266, 5538, 1217, 2785, 7061, 3079, 8097, 8068, 376,
                      1028, 758, 343, 62, 209, 175, 1129, 501, 1286]


def test_mc_estimate_counts_are_pinned():
    env, x, _ = gen_instance("random-graph", seed=7, n_vertices=6, n_edges=8)
    gibbs = solve_maxent(env, CountingOracle("enumeration", env=env), 0.3 * np.asarray(x),
                         tol=1e-8)
    config = ExperimentConfig(seed=7, samples=100_000, alpha_target=0.3, mode="mc")
    assert [int(a) for a in estimate_selectability(gibbs, x, config).accepts] == MC_PINNED_ACCEPTS
    acc, out, _ = replay(gibbs, x, None, RngStream(7, stream=1), n_rep=100_000)
    assert acc.tolist() == MC_PINNED_ACCEPTS and out.tolist() == MC_PINNED_OUTCOMES


_BLOCK_N_REP = 4096 + 37


@functools.cache
def _block_reference(mode):
    """(orders argument, kernel uniforms, reference counts) of a replay of
    _BLOCK_N_REP rows, for random, fixed and one broadcast order."""
    dist, x = path_instance(4)
    rng = RngStream(13)
    if mode == "random":
        arg, orders = None, _orders_reference(4, _BLOCK_N_REP, rng)
    elif mode == "fixed":
        arg = orders = _orders_reference(4, _BLOCK_N_REP, RngStream(14))
    else:
        arg = np.array([3, 1, 0, 2])
        orders = np.broadcast_to(arg, (_BLOCK_N_REP, 4))
    u = rng.uniform((_BLOCK_N_REP, 2 * 4 + 1))
    return arg, _replay_reference(dist, x, orders, u)


@pytest.mark.parametrize("block", [1, 7, 4096, 8192])
@pytest.mark.parametrize("mode", ["random", "fixed", "single"])
def test_replay_bit_identical_for_every_block_size(monkeypatch, block, mode):
    arg, (ref_acc, ref_out) = _block_reference(mode)
    monkeypatch.setattr(_replay_py, "BLOCK", block)
    dist, x = path_instance(4)
    acc, out, n_rep = replay(dist, x, arg, RngStream(13),
                             n_rep=None if mode == "fixed" else _BLOCK_N_REP)
    assert n_rep == _BLOCK_N_REP
    assert np.array_equal(acc, ref_acc) and _by_set(dist.env, out) == ref_out


def test_replay_reproducible():
    dist, x = path_instance(3)
    a = replay(dist, x, random_orders(3, 5000, RngStream(9)), RngStream(10))
    b = replay(dist, x, random_orders(3, 5000, RngStream(9)), RngStream(10))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_random_orders_are_permutations():
    orders = random_orders(5, 200, RngStream(0))
    for row in orders:
        assert sorted(row) == list(range(5))
