"""The simulate-then-replace online policy.

A feasible set S_hat is presampled from the witness law.  When element e
arrives, set T = S_hat minus e (forgetting e's simulated membership).  An
inactive element is rejected and S_hat becomes T; an active one is accepted
with probability q_e / x_e where q_e = P[e in S | S_-e = T], and S_hat is
updated accordingly.  This preserves the law of S_hat at every step, which
is what makes the output distribution independent of the arrival order.

The witness cap q_e <= x_e is enforced on every path.  The sampled step
`_replace` checks each cap it meets through `dist.check_cap`; the exact
expansion `exact_output_law`, like `replay.replay`, checks them all once,
up front, with `dist.verify_stationary_lp` and raises the first violated one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import (CapViolationError, ExplicitDistribution, NullConditioningError,
                   check_cap, conditional_without, stationary_conditionals,
                   verify_stationary_lp)
from .env import EnumerationBudgetError
from .sampling import sample_explicit


@dataclass
class PolicyState:
    dist: object
    x: list
    S_hat: frozenset
    accepted: frozenset = frozenset()
    processed: frozenset = frozenset()
    rng: object = None


@dataclass
class OrderStrategy:
    """fixed(permutation) | seeded-random | adaptive(callback).

    The adaptive callback receives the public history -- a list of
    (element, active, accepted) events -- plus the set of unprocessed
    elements, and returns the next element.  It never sees S_hat or the
    policy's random bits.
    """
    variant: str
    permutation: list = None
    callback: object = None

    @staticmethod
    def fixed(perm):
        return OrderStrategy("fixed", permutation=list(perm))

    @staticmethod
    def seeded_random():
        return OrderStrategy("seeded-random")

    @staticmethod
    def adaptive(callback):
        return OrderStrategy("adaptive", callback=callback)

    def next_element(self, history, unprocessed, rng):
        if self.variant == "fixed":
            done = {h[0] for h in history}
            return next(e for e in self.permutation if e not in done)
        if self.variant == "seeded-random":
            rest = sorted(unprocessed)
            return rest[int(rng.uniform() * len(rest)) % len(rest)]
        return self.callback(list(history), frozenset(unprocessed))


def _replace(dist, x, S_hat, e, active, rng):
    """One simulate-then-replace step; returns (S_hat, active, accepted).

    `active` None draws the activation with probability x_e from `rng`.
    """
    T = S_hat - {e}
    q = float(conditional_without(dist, e, T))
    xe = float(x[e])
    check_cap(e, T, q, xe)
    if active is None:
        active = float(rng.uniform()) < xe
    accepted = bool(active) and float(rng.uniform()) < min(q / xe, 1.0)
    S_hat = T | {e} if accepted else T
    if not dist.env.is_feasible(S_hat):
        raise RuntimeError(f"policy reached the infeasible set {sorted(S_hat)}")
    return S_hat, bool(active), accepted


def policy_step(state, e, active):
    """Process one arrival; returns (accepted, state).  Mutates state."""
    if e in state.processed:
        raise ValueError(f"element {e} already processed")
    state.S_hat, _, accepted = _replace(state.dist, state.x, state.S_hat, e,
                                        active, state.rng)
    if accepted:
        state.accepted = state.accepted | {e}
    state.processed = state.processed | {e}
    return accepted, state


def run_one_shot(dist, x, strategy, rng):
    """Play all n elements once, each active with probability x_e drawn from
    the stream.  Returns (accepted set, trace)."""
    S_hat = _initial_sample(dist, rng)
    unprocessed = set(range(dist.env.n))
    history = []
    while unprocessed:
        e = strategy.next_element(history, unprocessed, rng)
        if e not in unprocessed:
            raise ValueError("strategy returned a processed element")
        unprocessed.remove(e)
        S_hat, active, accepted = _replace(dist, x, S_hat, e, None, rng)
        history.append((e, active, accepted))
    return (frozenset(e for (e, _, acc) in history if acc),
            [(e, 0, a, acc) for (e, a, acc) in history])


def run_recurring(dist, x, trace, rng):
    """Replay a recurring-arrival event list.

    `trace` rows are (element, renewal_index, active) with active possibly
    None (drawn with probability x_e).  At each renewal the element's
    simulated membership is forgotten and redrawn through the acceptance
    coin.  Returns the acceptance log [(element, renewal, active, accepted)].
    """
    S_hat = _initial_sample(dist, rng)
    last_renewal = {}
    log = []
    for (e, ridx, active) in trace:
        if e in last_renewal and ridx <= last_renewal[e]:
            raise ValueError(f"renewal indices for element {e} must increase")
        last_renewal[e] = ridx
        S_hat, active, accepted = _replace(dist, x, S_hat, e, active, rng)
        log.append((e, ridx, active, accepted))
    return log


def _initial_sample(dist, rng):
    return sample_explicit(dist.to_explicit(), rng)


# ---------------------------------------------------------------------------
# exact expansion
# ---------------------------------------------------------------------------

EXACT_ATOM_CAP = 1_000_000


def exact_output_law(dist, x, strategy, atom_cap=EXACT_ATOM_CAP):
    """Exhaustively expand activations x acceptance coins over one strategy.

    Returns (output law as ExplicitDistribution, per-element acceptance
    probabilities).  No sampling: branch probabilities are exact up to float
    rounding (exact rationals when the witness table and x are rational).

    States are keyed by public history (what an adaptive adversary can see),
    each holding a sub-distribution over simulated sets: family positions
    and their masses.  A non-adaptive strategy sees no outcomes, so all of
    its states share the pseudo-history ((e, False, False), ...) of the
    elements processed so far.  Each arrival redraws e's membership of every
    atom at once: one heat-bath step over `dist.stationary_conditionals`
    and the family's down and up tables.
    """
    if strategy.variant == "seeded-random":
        raise ValueError("exact expansion needs a deterministic strategy")
    env = dist.env
    n = env.n
    table = dist.to_explicit()
    report = verify_stationary_lp(table, x, 0.0)
    if report.violated_caps:
        raise CapViolationError(*report.violated_caps[0])
    exact = table.exact and not any(isinstance(v, float) for v in x)
    zero = 0 if exact else 0.0
    xs = list(x) if exact else [float(v) for v in x]
    live = (lambda m: m != 0) if exact else (lambda m: m > 0)  # float: drop cap slack
    adaptive = strategy.variant == "adaptive"

    fam = env.family()
    size = len(fam.down)            # the family's positions and the sentinel
    mu, q, null = stationary_conditionals(table, exact)
    pos = np.flatnonzero(live(mu))
    states = [((), pos, mu[pos])]
    accept_prob = [zero] * n

    for _ in range(n):
        new_states = []
        for hist, pos, p in states:
            unprocessed = set(range(n)) - {h[0] for h in hist}
            e = strategy.next_element(list(hist), unprocessed, None)
            if e not in unprocessed:
                raise ValueError("strategy returned a processed element")
            xe, iT = xs[e], fam.down[pos, e]
            iTe = fam.up[iT, e]
            stuck = np.flatnonzero(null[pos, e])
            if len(stuck):
                raise NullConditioningError(f"P[S_-e = {sorted(fam.sets[iT[stuck[0]]])}] = 0")
            qe = q[pos, e]
            accept_prob[e] += (qe * p).sum()
            # branches: inactive (1-x); active+accept (q); active+reject (x-q)
            branches = [((e, False, False), iT, (1 - xe) * p),
                        ((e, True, True), iTe, qe * p),
                        ((e, True, False), iT, (xe - qe) * p)]
            if not adaptive:        # a non-adaptive order merges all three
                branches = [((e, False, False), np.concatenate([br[1] for br in branches]),
                             np.concatenate([br[2] for br in branches]))]
            for ev, at, mass in branches:
                keep = live(mass)
                if keep.any():
                    new_states.append((hist + (ev,), *_merge(at[keep], mass[keep], size)))
        states = new_states
        if sum(len(s[1]) for s in states) > atom_cap:
            raise EnumerationBudgetError(f"exact expansion exceeded {atom_cap} atoms")

    pos, p = _merge(np.concatenate([s[1] for s in states]),
                    np.concatenate([s[2] for s in states]), size)
    return ExplicitDistribution.on_family(env, pos, p, tol=1e-9), accept_prob


def _merge(at, mass, size):
    """Sum the masses that share a family position: (positions, masses).

    Each position's masses are added in input order.  When the atoms cover
    a sizeable share of the family's `size` positions (the one state of a
    fixed order) the positions hit are marked in a dense array; fewer atoms
    (an adaptive strategy's many small states) are sorted with np.unique."""
    if 8 * len(at) < size:
        pos, at = np.unique(at, return_inverse=True)
    else:
        hit = np.zeros(size, dtype=bool)
        hit[at] = True
        pos = np.flatnonzero(hit)
        at = np.cumsum(hit)[at] - 1
    out = np.zeros(len(pos), dtype=mass.dtype)
    np.add.at(out, at, mass)
    return pos, out


# ---------------------------------------------------------------------------
# built-in adaptive adversaries
# ---------------------------------------------------------------------------

def target_last_adversary(target):
    """Defer `target` to the very end; otherwise ascending order."""
    def cb(history, unprocessed):
        rest = sorted(unprocessed - {target})
        return rest[0] if rest else target
    return cb


def greedy_blocker_adversary(env, x):
    """Send elements that conflict with many accepted elements first.

    Works from public history only: prefers unprocessed elements that are
    infeasible together with the currently accepted set.
    """
    def cb(history, unprocessed):
        accepted = {e for (e, a, acc) in history if acc}
        blocked = [e for e in sorted(unprocessed)
                   if not env.is_feasible(accepted | {e})]
        if blocked:
            return blocked[0]
        return min(unprocessed)
    return cb
