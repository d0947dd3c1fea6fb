"""Random sampling: RNG streams, explicit-table sampling, sequential
counting-to-sampling, independent thinning, and empirical TV distance.
"""

from __future__ import annotations

import math

import numpy as np


class ConditionalClampError(RuntimeError):
    """A computed conditional escaped [0,1] by more than the slack tolerance."""


CLAMP_SLACK = 1e-9


class RngStream:
    """Deterministic, replayable random stream.

    Identical (seed, stream, counter) triples yield identical draws; distinct
    stream ids are independent.  A stream id is an int or, for spawned
    children, a tuple of ints: the SeedSequence spawn key.  The counter
    records how many uniforms have been consumed so a stream can be
    reconstructed mid-sequence, in O(1) by `advance`.
    """

    def __init__(self, seed, stream=0, counter=0):
        self.seed = int(seed)
        self.stream = stream
        self._key = tuple(map(int, stream)) if isinstance(stream, tuple) else (int(stream),)
        self._gen = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self._key)))
        self.counter = 0
        self.advance(counter)

    def uniform(self, size=None):
        self.counter += 1 if size is None else int(np.prod(size))
        return self._gen.random(size)

    def advance(self, k):
        """Skip the next k uniforms in O(1): each double that `uniform`
        draws takes exactly one 64-bit PCG64 step."""
        k = int(k)
        if k < 0:
            raise ValueError("a stream only advances forward")
        self._gen.bit_generator.advance(k)
        self.counter += k

    def jumped(self, k):
        """A copy of this stream k uniforms further on; this one stays put."""
        return RngStream(self.seed, self.stream, counter=self.counter + int(k))

    def spawn(self, i):
        """Independent child stream: the parent's spawn key extended by i."""
        return RngStream(self.seed, stream=self._key + (int(i),))


def _clamp(p):
    if not -CLAMP_SLACK <= p <= 1.0 + CLAMP_SLACK:      # NaN fails it too
        raise ConditionalClampError(f"conditional {p} outside [0,1] beyond slack")
    return min(max(p, 0.0), 1.0)


def sample_explicit(dist, rng):
    """Inverse-CDF draw over the deterministic support order."""
    u = float(rng.uniform())
    acc = 0.0
    sets = dist.sets()
    for S in sets:
        acc += float(dist.support[S])
        if u < acc:
            return S
    return sets[-1]


def sample_sequential(oracle, w, rng):
    """Visit elements in ascending order; include element k with probability
    g_{J, I+k}(w) / g_{J, I}(w).  Exact in rational mode; in double mode the
    ratio is taken of the logs, so counts beyond float range are fine.
    """
    I, J = [], []
    den = None
    for k in range(oracle.n):
        num = oracle.pinned(w, I + [k], J)
        if den is None:
            den = oracle.pinned(w, I, J)
        try:
            p = oracle.conditional(num, den)
        except ZeroDivisionError:
            raise RuntimeError("impossible prefix: zero denominator in sequential sampler") from None
        p = _clamp(p)
        if float(rng.uniform()) < p:
            I.append(k)
            den = num               # the next prefix's count is this numerator
        else:
            J.append(k)
            den = None
    return frozenset(I)


def thin(S, tau, rng):
    """Keep each element of S independently with probability tau_e."""
    out = set()
    for e in sorted(S):
        if float(rng.uniform()) < float(tau[e]):
            out.add(e)
    return frozenset(out)


def empirical_tv(samples, reference):
    """(1/2) sum over sets |freq(S) - ref(S)|."""
    counts = {}
    for S in samples:
        counts[frozenset(S)] = counts.get(frozenset(S), 0) + 1
    N = len(samples)
    keys = set(counts) | set(reference.support)
    return 0.5 * sum(abs(counts.get(S, 0) / N - float(reference.support.get(S, 0.0)))
                     for S in keys)


def tv_multinomial_sigma(reference, N):
    """One-sigma bound on E-scale fluctuations of empirical TV:
    (1/2) sum_S sqrt(p_S (1-p_S) / N)."""
    tot = 0.0
    for p in reference.support.values():
        p = float(p)
        tot += math.sqrt(max(p * (1.0 - p), 0.0) / N)
    return 0.5 * tot
