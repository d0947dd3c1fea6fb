"""The simulate-then-replace online policy.

A feasible set S_hat is presampled from the witness law.  When element e
arrives, set T = S_hat minus e (forgetting e's simulated membership).  An
inactive element is rejected and S_hat becomes T; an active one is accepted
with probability q_e / x_e where q_e = P[e in S | S_-e = T], and S_hat is
updated accordingly.  This preserves the law of S_hat at every step, which
is what makes the output distribution independent of the arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dist import ExplicitDistribution, GibbsDistribution, conditional_without
from .sampling import sample_explicit, _clamp

CAP_SLACK = 1e-9


class CapViolationError(RuntimeError):
    def __init__(self, e, T, q, xe):
        self.e, self.T, self.q, self.xe = e, frozenset(T), q, xe
        super().__init__(
            f"witness violates stationary caps: q_{e}({sorted(T)}) = {float(q):.12g} "
            f"> x_{e} = {float(xe):.12g}")


@dataclass
class PolicyState:
    dist: object
    x: list
    S_hat: frozenset
    accepted: frozenset = frozenset()
    processed: frozenset = frozenset()
    rng: object = None

    @property
    def env(self):
        return self.dist.env


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


def _conditional(dist, e, T):
    q = conditional_without(dist, e, T)
    return float(q)


def policy_step(state, e, active):
    """Process one arrival; returns (accepted, state).  Mutates state."""
    if e in state.processed:
        raise ValueError(f"element {e} already processed")
    T = state.S_hat - {e}
    q = _conditional(state.dist, e, T)
    xe = float(state.x[e])
    if q > xe + CAP_SLACK:
        raise CapViolationError(e, T, q, xe)
    accepted = False
    if not active:
        state.S_hat = T
    else:
        p = _clamp(q / xe)
        if float(state.rng.uniform()) < p:
            state.S_hat = T | {e}
            state.accepted = state.accepted | {e}
            accepted = True
        else:
            state.S_hat = T
    state.processed = state.processed | {e}
    _check_feasible(state.env, state.S_hat)
    return accepted, state


def run_one_shot(dist, x, strategy, rng, activations=None):
    """Play all n elements once.  Returns (accepted set, trace).

    `activations`, when given, is a dict/sequence of per-element booleans;
    otherwise each element is active with probability x_e using the stream.
    """
    env = dist.env
    state = PolicyState(dist, list(x), S_hat=_initial_sample(dist, rng), rng=rng)
    history = []
    trace = []
    while len(state.processed) < env.n:
        unprocessed = set(range(env.n)) - state.processed
        e = strategy.next_element(history, unprocessed, rng)
        if e not in unprocessed:
            raise ValueError("strategy returned a processed element")
        if activations is None:
            active = bool(float(rng.uniform()) < float(x[e]))
        else:
            active = bool(activations[e])
        accepted, state = policy_step(state, e, active)
        history.append((e, active, accepted))
        trace.append((e, 0, active, accepted))
    return state.accepted, trace


def run_recurring(dist, x, trace, rng):
    """Replay a recurring-arrival event list.

    `trace` rows are (element, renewal_index, active) with active possibly
    None (drawn with probability x_e).  At each renewal the element's
    simulated membership is forgotten and redrawn through the acceptance
    coin.  Returns the acceptance log [(element, renewal, active, accepted)].
    """
    env = dist.env
    S_hat = _initial_sample(dist, rng)
    last_renewal = {}
    log = []
    for (e, ridx, active) in trace:
        if e in last_renewal and ridx <= last_renewal[e]:
            raise ValueError(f"renewal indices for element {e} must increase")
        last_renewal[e] = ridx
        T = S_hat - {e}
        q = _conditional(dist, e, T)
        xe = float(x[e])
        if q > xe + CAP_SLACK:
            raise CapViolationError(e, T, q, xe)
        if active is None:
            active = bool(float(rng.uniform()) < xe)
        accepted = False
        if active and float(rng.uniform()) < _clamp(q / xe):
            S_hat = T | {e}
            accepted = True
        else:
            S_hat = T
        _check_feasible(env, S_hat)
        log.append((e, ridx, bool(active), accepted))
    return log


def _check_feasible(env, S):
    if not env.is_feasible(S):
        raise RuntimeError(f"policy reached the infeasible set {sorted(S)}")


def _initial_sample(dist, rng):
    table = dist if isinstance(dist, ExplicitDistribution) else dist.to_explicit()
    return sample_explicit(table, rng)


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
    each holding a sub-distribution over simulated sets.
    """
    env = dist.env
    table = dist if isinstance(dist, ExplicitDistribution) else dist.to_explicit()
    exact = table.exact and not any(isinstance(v, float) for v in x)
    zero = 0 if exact else 0.0
    xs = list(x)

    adaptive = strategy.variant == "adaptive"
    # history-keyed only when the adversary can actually react
    states = {(): dict(table.support)}
    accept_prob = [zero] * env.n
    atoms = len(table.support)

    if strategy.variant == "seeded-random":
        raise ValueError("exact expansion needs a deterministic strategy")
    done_order = []      # processed elements, shared across states when non-adaptive
    for step in range(env.n):
        new_states = {}
        for hist, masses in states.items():
            if adaptive:
                done = {h[0] for h in hist}
            else:
                done = set(done_order)
            unprocessed = set(range(env.n)) - done
            pseudo_hist = list(hist) if adaptive else [(f, False, False) for f in done_order]
            e = strategy.next_element(pseudo_hist, unprocessed, None)
            if e not in unprocessed:
                raise ValueError("strategy returned a processed element")
            chosen = e
            xe = xs[e]
            for S, p in masses.items():
                if p == 0:
                    continue
                T = S - {e}
                q = conditional_without(table, e, T)
                if float(q) > float(xe) + CAP_SLACK:
                    raise CapViolationError(e, T, q, xe)
                # branches: inactive (1-x); active+accept (q); active+reject (x-q)
                outcomes = [((e, False, False), T, (1 - xe) * p),
                            ((e, True, True), T | {e}, q * p),
                            ((e, True, False), T, (xe - q) * p)]
                accept_prob[e] += q * p
                for ev, S2, mass in outcomes:
                    if (mass == 0) if exact else (float(mass) <= 0.0):
                        continue
                    key = hist + (ev,) if adaptive else ()
                    bucket = new_states.setdefault(key, {})
                    bucket[S2] = bucket.get(S2, zero) + mass
        if not adaptive:
            done_order.append(chosen)
        states = new_states
        atoms = sum(len(v) for v in states.values())
        if atoms > atom_cap:
            raise RuntimeError(f"exact expansion exceeded {atom_cap} atoms")

    out = {}
    for masses in states.values():
        for S, p in masses.items():
            out[S] = out.get(S, zero) + p
    law = ExplicitDistribution(env, out, tol=1e-9)
    return law, accept_prob


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
