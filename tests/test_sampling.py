"""RNG streams, table/sequential samplers, thinning, TV estimators."""

import math
from fractions import Fraction

import numpy as np
import pytest

from socrs.counting import CountingOracle
from socrs.dist import ExplicitDistribution, GibbsDistribution
from socrs.env import k_uniform_environment, matching_environment
from socrs.sampling import (ConditionalClampError, RngStream, _clamp,
                            empirical_tv, sample_explicit, sample_sequential,
                            thin, tv_multinomial_sigma)


def test_rng_stream_reproducible():
    a = RngStream(123)
    b = RngStream(123)
    assert [float(a.uniform()) for _ in range(5)] == \
           [float(b.uniform()) for _ in range(5)]
    assert a.counter == 5


def test_rng_counter_reconstruction():
    a = RngStream(9)
    head = [float(a.uniform()) for _ in range(10)]
    mid = RngStream(9, counter=4)
    assert [float(mid.uniform()) for _ in range(6)] == head[4:]
    # the jump skips exactly the draws: one 64-bit step per uniform
    drawn = RngStream(9)
    drawn.uniform(10**6)
    assert np.array_equal(drawn.uniform(3), RngStream(9, counter=10**6).uniform(3))
    # and costs O(1): drawing 10^12 uniforms would take 8 TB
    far = RngStream(9, counter=10**12)
    jumped = RngStream(9).jumped(10**12)
    advanced = RngStream(9)
    advanced.advance(10**12)
    assert far.counter == jumped.counter == advanced.counter == 10**12
    assert np.array_equal(far.uniform(3), jumped.uniform(3))
    assert np.array_equal(far.uniform(3), advanced.uniform(6)[3:])


def test_rng_streams_differ():
    a = RngStream(1, stream=0)
    b = RngStream(1, stream=1)
    assert float(a.uniform()) != float(b.uniform())
    c = a.spawn(0)
    d = a.spawn(1)
    assert float(c.uniform()) != float(d.uniform())


def test_rng_spawned_streams_do_not_collide():
    # the old integer ids (stream << 16) + 1 + i made both pairs identical
    pairs = [(RngStream(5, stream=0).spawn(65536), RngStream(5, stream=1).spawn(0)),
             (RngStream(5, stream=0).spawn(0), RngStream(5, stream=1))]
    for a, b in pairs:
        assert not np.array_equal(a.uniform(8), b.uniform(8))
    # spawning is deterministic
    assert np.array_equal(RngStream(5).spawn(3).uniform(4), RngStream(5).spawn(3).uniform(4))


def test_rng_top_level_streams_keep_their_draws():
    assert RngStream(5, stream=3).uniform(3).tolist() == \
        [0.7201956883590646, 0.6946643555619701, 0.6384116219089043]
    assert RngStream(2026).uniform(2).tolist() == [0.3826911772203264, 0.020440605975802884]


def test_clamp_slack():
    assert _clamp(1.0 + 5e-10) == 1.0
    assert _clamp(-5e-10) == 0.0
    with pytest.raises(ConditionalClampError):
        _clamp(1.0 + 1e-6)
    with pytest.raises(ConditionalClampError):     # inf / inf from an overflowed count
        _clamp(math.nan)


def test_sample_explicit_frequencies():
    env = k_uniform_environment(2, 2)
    d = ExplicitDistribution(env, {frozenset(): 0.25, frozenset({0}): 0.25,
                                   frozenset({1}): 0.25, frozenset({0, 1}): 0.25})
    rng = RngStream(2)
    counts = {}
    N = 100_000
    for _ in range(N):
        S = sample_explicit(d, rng)
        counts[S] = counts.get(S, 0) + 1
    for S in d.sets():
        assert abs(counts[S] / N - 0.25) < 0.01


def test_sequential_sampler_matches_gibbs_law():
    edges = [(0, 1), (1, 2), (2, 3)]
    env = matching_environment(edges, 4)
    dist = GibbsDistribution(env, [0.4, 0.7, 0.5])
    oracle = CountingOracle("enumeration", env=env)
    rng = RngStream(11)
    N = 40_000
    samples = [sample_sequential(oracle, [0.4, 0.7, 0.5], rng) for _ in range(N)]
    ref = dist.to_explicit()
    tv = empirical_tv(samples, ref)
    assert tv <= 3 * tv_multinomial_sigma(ref, N)


def test_sequential_sampler_beyond_float_range():
    # counts near e^800: a plain-float count overflows past e^709, so the
    # sampler works on the logs of pinned counts, and ksym-dp rescales its DP
    env = k_uniform_environment(5, 2)
    w = [math.exp(400 + e / 2) for e in range(5)]
    enum = CountingOracle("enumeration", env=env)
    ksym = CountingOracle("ksym-dp", env=env)
    assert abs(enum.partition(w) - 804.66036333) < 1e-6
    assert abs(ksym.partition(w) - enum.partition(w)) < 1e-9
    for e in range(5):
        assert abs(ksym.marginal_sum(w, e) - enum.marginal_sum(w, e)) < 1e-9
    draws = {}
    for name, oracle in [("enumeration", enum), ("ksym-dp", ksym)]:
        rng = RngStream(21)
        draws[name] = [sample_sequential(oracle, w, rng) for _ in range(300)]
    assert draws["enumeration"] == draws["ksym-dp"]
    # the sets of size < 2 carry mass below e^-400
    assert all(len(S) == 2 for S in draws["ksym-dp"])
    # matching-recursion runs on log-weights: the 4-edge path's count is
    # 3 e^800, which a plain-float recursion returns as inf
    env = matching_environment([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
    w = [math.exp(400)] * 4
    enum = CountingOracle("enumeration", env=env)
    rec = CountingOracle("matching-recursion", env=env)
    assert abs(enum.partition(w) - (800 + math.log(3))) < 1e-9
    assert abs(rec.partition(w) - enum.partition(w)) < 1e-9
    for e in range(4):
        assert abs(rec.marginal_sum(w, e) - enum.marginal_sum(w, e)) < 1e-9
    for name, oracle in [("enumeration", enum), ("matching-recursion", rec)]:
        rng = RngStream(21)
        draws[name] = [sample_sequential(oracle, w, rng) for _ in range(300)]
    assert draws["enumeration"] == draws["matching-recursion"]
    assert all(len(S) == 2 for S in draws["matching-recursion"])


def test_thin_marginals():
    rng = RngStream(4)
    tau = [0.2, 0.8, 0.5]
    S = frozenset({0, 1, 2})
    N = 50_000
    hits = [0, 0, 0]
    for _ in range(N):
        out = thin(S, tau, rng)
        assert out <= S
        for e in out:
            hits[e] += 1
    for e in range(3):
        assert abs(hits[e] / N - tau[e]) < 0.01


def test_empirical_tv_zero_for_exact_match():
    env = k_uniform_environment(1, 1)
    d = ExplicitDistribution(env, {frozenset(): 0.5, frozenset({0}): 0.5})
    samples = [frozenset(), frozenset({0})] * 500
    assert empirical_tv(samples, d) == 0.0
