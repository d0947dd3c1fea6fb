"""The simulate-then-replace online policy.

A feasible set S_hat is presampled from the witness law.  When element e
arrives, set T = S_hat minus e (forgetting e's simulated membership).  An
inactive element is rejected and S_hat becomes T; an active one is accepted
with probability q_e / x_e where q_e = P[e in S | S_-e = T], and S_hat is
updated accordingly.  This preserves the law of S_hat at every step, which
is what makes the output distribution independent of the arrival order.

Every runner works on the positions of the witness's family: it reads q,
the null flags and, through the family's `down` and `up`, the moves to
T = S - e and T + e from the one table `dist.stationary_conditionals`.
The sampled runners `run_one_shot` and `run_recurring` hold S_hat as a
position, draw it from `dist.support_cdf` and read the float table, as the
replay kernel does, checking each cap they meet through `dist.check_cap`;
no feasibility oracle is called, and S_hat cannot leave the family.  The
exact expansion `exact_output_law`, like `replay.replay`, checks every cap
once, up front, with `dist.verify_stationary_lp` on the witness's table,
raises the first violated one, and then reads the conditionals that check
built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import (CapViolationError, ExplicitDistribution, NullConditioningError,
                   check_cap, stationary_conditionals, support_cdf, verify_stationary_lp)
from .env import EnumerationBudgetError, EnvironmentError_


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


def _sampled_policy(dist, x, rng):
    """(p, step): S_hat's initial family position, drawn from
    `dist.support_cdf` with one uniform, and one simulate-then-replace step
    step(p, e, active) -> (p, active, accepted) over the float conditionals
    of the witness's table.  `active` None draws the activation with
    probability x_e from `rng`."""
    table = dist.to_explicit()
    fam = table.env.family()
    _, q, null = stationary_conditionals(table, exact=False)
    xs = [float(v) for v in x]

    def step(p, e, active):
        t = fam.down[p, e]
        if null[t, e]:
            raise NullConditioningError(f"P[S_-e = {sorted(fam.sets[t])}] = 0")
        qe, xe = float(q[t, e]), xs[e]
        check_cap(fam, t, e, qe, xe)
        if active is None:
            active = float(rng.uniform()) < xe
        accepted = bool(active) and float(rng.uniform()) < min(qe / xe, 1.0)
        return fam.up[t, e] if accepted else t, bool(active), accepted

    pos, cdf = support_cdf(table)
    return pos[np.searchsorted(cdf, rng.uniform(), side="right")], step


def run_one_shot(dist, x, strategy, rng):
    """Play all n elements once, each active with probability x_e drawn from
    the stream.  Returns (accepted set, trace)."""
    p, step = _sampled_policy(dist, x, rng)
    unprocessed = set(range(dist.env.n))
    history = []
    while unprocessed:
        e = strategy.next_element(history, unprocessed, rng)
        if e not in unprocessed:
            raise ValueError("strategy returned a processed element")
        unprocessed.remove(e)
        p, active, accepted = step(p, e, None)
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
    p, step = _sampled_policy(dist, x, rng)
    n = dist.env.n
    last_renewal = {}
    log = []
    for (e, ridx, active) in trace:
        if not 0 <= e < n:
            raise EnvironmentError_(f"element {e} out of range [0,{n})")
        if e in last_renewal and ridx <= last_renewal[e]:
            raise ValueError(f"renewal indices for element {e} must increase")
        last_renewal[e] = ridx
        p, active, accepted = step(p, e, active)
        log.append((e, ridx, active, accepted))
    return log


# ---------------------------------------------------------------------------
# exact expansion
# ---------------------------------------------------------------------------

EXACT_ATOM_CAP = 1_000_000


def exact_output_law(dist, x, strategy):
    """Exhaustively expand activations x acceptance coins over one strategy.

    Returns (output law as ExplicitDistribution, per-element acceptance
    probabilities).  No sampling: branch probabilities are exact up to float
    rounding (exact rationals when the witness table and x are rational).

    Each arrival of e redraws e's membership of every atom at once: a
    heat-bath step over `dist.stationary_conditionals` with the branches
    inactive (mass 1-x), active and accepted (q) and active and rejected
    (x-q).  An atom's branches whose mass is not live (not positive in
    floats, zero in exact numbers) are dropped; EXACT_ATOM_CAP, read at call
    time, bounds the live atoms after every arrival.

    An adaptive strategy's states are keyed by public history (what the
    adversary can see), each a sub-distribution over family positions, and
    `_merge` sums each branch's atoms.  A non-adaptive order sees no
    outcomes, so it keeps one dense mass vector m over the family's
    positions, and an arrival of e sweeps e's caps (T, T+e) with
    c = q[T, e], d = x - c (clipped at 0 in floats):

        new[T]   = (((1-x) m_T + (1-x) m_T+e) + d m_T) + d m_T+e
        new[T+e] = c m_T + c m_T+e

    and (1-x) m_T + x m_T at a T whose T+e is infeasible.  These are the
    additions a merge of the three branches in input order makes, in the
    same order: T's atoms come before T+e's in family order, the inactive
    branch before the accepted one before the rejected one, and a dropped
    branch adds an exact zero.  So the law and the acceptance
    probabilities are the merge's, bit for bit.  In exact numbers a
    position's terms may cancel to zero (c = 1 > x, a cap within
    CAP_SLACK); the merge keeps such a position as an atom of mass zero,
    and so does the sweep, which keeps every position a live branch hits.
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
    xs = list(x) if exact else [float(v) for v in x]
    live = (lambda m: m != 0) if exact else (lambda m: m > 0)  # float: drop cap slack
    accept_prob = [0 if exact else 0.0] * n
    expand = _expand_adaptive if strategy.variant == "adaptive" else _expand_fixed
    pos, p = expand(strategy, env.family(), stationary_conditionals(table, exact), xs,
                    live, accept_prob)
    return ExplicitDistribution.on_family(env, pos, p, tol=1e-9), accept_prob


def _next_arrival(strategy, hist, n):
    unprocessed = set(range(n)) - {h[0] for h in hist}
    e = strategy.next_element(list(hist), unprocessed, None)
    if e not in unprocessed:
        raise ValueError("strategy returned a processed element")
    return e


def _check_null(fam, null, at, e):
    """NullConditioningError at the first of the positions `at` whose
    conditioning event S_-e = T has probability zero."""
    stuck = np.flatnonzero(null[at, e])
    if len(stuck):
        raise NullConditioningError(
            f"P[S_-e = {sorted(fam.sets[fam.down[at[stuck[0]], e]])}] = 0")


def _expand_fixed(strategy, fam, conditionals, xs, live, accept_prob):
    """The expansion over a non-adaptive order on one dense mass vector,
    one cap sweep per arrival (see `exact_output_law`): (positions, masses).
    The arrivals are the ones `OrderStrategy.next_element` makes: each
    element at its first place in the permutation, which must list them
    all."""
    mu, q, null = conditionals
    n = len(xs)
    order = list(dict.fromkeys(strategy.permutation))[:n]
    if sorted(order) != list(range(n)):
        raise ValueError(f"a fixed order must list each of the {n} elements, "
                         f"not {strategy.permutation}")
    # every cap's positions (T, T+e), c = q[T, e] and d, grouped by element:
    # element e's caps are columns cuts[e]:cuts[e + 1]
    el = fam.caps[1].astype(np.min_scalar_type(n))    # a radix sort for few elements
    s, el, t = fam.caps.take(np.argsort(el, kind="stable"), axis=1)
    pairs, c = np.stack([t, s]), q.reshape(-1)[t * n + el]
    d = np.array(xs, dtype=mu.dtype)[el] - c
    exact = mu.dtype == object
    if exact:       # whether the accepted and rejected branches can be live
        c_live, d_live = c != 0, d != 0
    else:
        d = np.maximum(d, 0.0)
    cuts = [0, *np.cumsum(np.bincount(el, minlength=n)).tolist()]
    nullable = null[:-1].any()      # the sentinel never holds mass
    m, on = mu, live(mu)
    for e in order:
        if nullable:
            _check_null(fam, null, np.flatnonzero(on), e)
        accept_prob[e] += (q[:, e] * m)[on].sum()
        xe, k = xs[e], slice(cuts[e], cuts[e + 1])
        mm, ce, de = m[pairs[:, k]], c[k], d[k]
        am, dm, cm = (1 - xe) * mm, de * mm, ce * mm
        m = (1 - xe) * m + xe * m
        m[pairs[0, k]] = ((am[0] + am[1]) + dm[0]) + dm[1]
        m[pairs[1, k]] = cm[0] + cm[1]
        on = live(m)
        if exact:   # a hit position whose terms cancel stays an atom
            hit = (mm != 0).any(axis=0)
            on[pairs[0, k]] |= hit & ((xe != 1) | d_live[k])
            on[pairs[1, k]] |= hit & c_live[k]
        if np.count_nonzero(on) > EXACT_ATOM_CAP:
            raise EnumerationBudgetError(f"exact expansion exceeded {EXACT_ATOM_CAP} atoms")
    pos = np.flatnonzero(on)
    return pos, m[pos]


def _expand_adaptive(strategy, fam, conditionals, xs, live, accept_prob):
    """The expansion over an adaptive strategy, one state per public
    history, merged at the end: (positions, masses)."""
    mu, q, null = conditionals
    n = len(xs)
    pos = np.flatnonzero(live(mu))
    states = [((), pos, mu[pos])]
    for _ in range(n):
        new_states = []
        for hist, pos, p in states:
            e = _next_arrival(strategy, hist, n)
            _check_null(fam, null, pos, e)
            xe, iT = xs[e], fam.down[pos, e]
            iTe = fam.up[iT, e]
            qe = q[pos, e]
            accept_prob[e] += (qe * p).sum()
            for ev, at, mass in [((e, False, False), iT, (1 - xe) * p),
                                 ((e, True, True), iTe, qe * p),
                                 ((e, True, False), iT, (xe - qe) * p)]:
                keep = live(mass)
                if keep.any():
                    new_states.append((hist + (ev,), *_merge(at[keep], mass[keep])))
        states = new_states
        if sum(len(s[1]) for s in states) > EXACT_ATOM_CAP:
            raise EnumerationBudgetError(f"exact expansion exceeded {EXACT_ATOM_CAP} atoms")
    return _merge(np.concatenate([s[1] for s in states]),
                  np.concatenate([s[2] for s in states]))


def _merge(at, mass):
    """Sum the masses that share a family position: (positions, masses),
    the positions sorted and each position's masses added in input order.
    Serves the adaptive states of `exact_output_law` and their final
    union."""
    pos, at = np.unique(at, return_inverse=True)
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
