"""Output checks that do not rely on the CLI's exit gates.

``check(call, rc, out, inst, n_tests)`` returns ``None`` for a correct call
or a one-line reason.  ``out`` is the call's output document, ``inst`` the
instance document it read, and ``n_tests`` the number of distinct
Monte-Carlo element tests in the run, over which the false-failure rate is
split (Bonferroni).  Repeated passes make identical outputs, so they repeat
the same tests.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction
from statistics import NormalDist

# Chance that a correct run fails any Monte-Carlo check at all.
MC_FALSE_FAIL = 1e-9
EXACT_TOL = 1e-9
LP_FLOAT_TOL = 1e-6
MARGINAL_TOL = 1e-6


def digest(doc):
    """sha256 of an output document without its wall-clock ``runtime``."""
    body = {k: v for k, v in doc.items() if k != "runtime"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def wilson(successes, n, z):
    phat = successes / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


def _mc(call, out, inst, n_tests):
    # Simulate-then-replace preserves the witness law, so each element is
    # accepted with probability exactly alpha * x_e.
    n_rep, alpha = call["samples"], call["alpha"]
    z = NormalDist().inv_cdf(1 - MC_FALSE_FAIL / n_tests / 2)
    for e, (ratio, xe) in enumerate(zip(out["per_element"], inst["x"])):
        count = ratio * xe * n_rep
        if abs(count - round(count)) > 1e-6:
            return f"element {e}: ratio {ratio} is not a count out of {n_rep}"
        lo, hi = wilson(round(count), n_rep, z)
        if not lo <= alpha * xe <= hi:
            return f"element {e}: alpha*x = {alpha * xe} outside Wilson [{lo}, {hi}] at z={z:.2f}"
    return None


def _matchings(edges):
    """Every set of pairwise vertex-disjoint edges, as sorted index tuples."""
    out = []
    for r in range(len(edges) + 1):
        for S in itertools.combinations(range(len(edges)), r):
            verts = [v for e in S for v in edges[e]]
            if len(verts) == len(set(verts)):
                out.append(S)
    return out


def stationary_lp_highs(edges, x):
    """max alpha over laws on matchings with P[e] >= alpha x_e and stationary
    caps (1 - x_e) mu(T+e) <= x_e mu(T), solved in floats by HiGHS."""
    from scipy.optimize import linprog

    sets = _matchings(edges)
    idx = {S: i for i, S in enumerate(sets)}
    nv = len(sets) + 1
    rows = []
    for e in range(len(edges)):
        row = [0.0] * nv
        for S, i in idx.items():
            if e in S:
                row[i] = -1.0
        row[-1] = x[e]
        rows.append(row)
    for S, i in idx.items():
        for e in S:
            row = [0.0] * nv
            row[i] = 1.0 - x[e]
            row[idx[tuple(f for f in S if f != e)]] -= x[e]
            rows.append(row)
    res = linprog([0.0] * len(sets) + [-1.0], A_ub=rows, b_ub=[0.0] * len(rows),
                  A_eq=[[1.0] * len(sets) + [0.0]], b_eq=[1.0],
                  bounds=[(0, None)] * nv, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return -res.fun


def _lp_rational(call, out, inst, n_tests):
    # exact equality unless the call allows for x read as floats
    gap = abs(Fraction(out["alpha"]) - Fraction(call["alpha"]))
    if gap > call.get("alpha_tol", 0):
        return f"alpha {out['alpha']} is {float(gap):.3g} from {call['alpha']}"
    return None


def _lp_float(call, out, inst, n_tests):
    ref = stationary_lp_highs([tuple(e) for e in inst["edges"]], inst["x"])
    got = out["alpha_float"]
    if abs(got - ref) > LP_FLOAT_TOL:
        return f"alpha {got} differs from HiGHS {ref}"
    if got < call["family_alpha"] - EXACT_TOL:
        return f"alpha {got} below the family constant {call['family_alpha']}"
    return None


def _rayleigh(call, out, inst, n_tests):
    from socrs.dist import ExplicitDistribution, verify_stationary_lp
    from socrs.io import parse_instance

    env, x, b = parse_instance(inst)
    table = {frozenset() if k == "empty" else frozenset(map(int, k.split("+"))): p
             for k, p in out["mu_star"].items()}
    for e, xe in enumerate(x):
        marg = sum(p for S, p in table.items() if e in S)
        if abs(marg - xe / (1 + b)) > MARGINAL_TOL:
            return f"mu* marginal of {e} is {marg}, expected {xe / (1 + b)}"
    report = verify_stationary_lp(ExplicitDistribution(env, table, tol=1e-9), x, 1 / (1 + b))
    if report.violated_caps:
        return f"{len(report.violated_caps)} stationary caps violated"
    return None


def _verify_lp(call, out, inst, n_tests):
    if out["violated_caps"]:
        return f"{len(out['violated_caps'])} stationary caps violated"
    achieved = float(Fraction(out["alpha_achieved"])) if isinstance(
        out["alpha_achieved"], str) else out["alpha_achieved"]
    if achieved < call["alpha"] - EXACT_TOL:
        return f"alpha_achieved {achieved} below {call['alpha']}"
    return None


def _exact_estimate(call, out, inst, n_tests):
    if abs(out["alpha_achieved"] - call["alpha"]) > EXACT_TOL:
        return f"exact alpha_achieved {out['alpha_achieved']} != {call['alpha']}"
    return None


CHECKS = {"mc": _mc, "lp-rational": _lp_rational, "lp-float": _lp_float,
          "rayleigh": _rayleigh, "verify-lp": _verify_lp,
          "exact-estimate": _exact_estimate}


def check(call, rc, out, inst, n_tests):
    if rc != 0:
        return f"exit code {rc}"
    if out is None:
        return "no output document"
    try:
        return CHECKS[call["check"]](call, out, inst, n_tests)
    except (KeyError, TypeError, ValueError, RuntimeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def mc_tests(calls, instances):
    """Number of Monte-Carlo element tests in one pass over ``calls``."""
    return sum(len(instances[c["instance"]]["x"]) for c in calls if c["check"] == "mc") or 1
