"""Command-line surface.

Exit codes: 0 = all assertions pass, 1 = a violation was found,
2 = usage/input error, including an instance too large for an exact
computation's enumeration budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from statistics import NormalDist

import numpy as np

from . import generators, io
from .counting import BaseMeasure, CountingOracle
from .dist import solve_stationary_lp_exact, verify_stationary_lp
from .env import EnumerationBudgetError, EnvironmentError_
from .maxent import (solve_maxent, dominating_base_point, kl_diagnostics,
                     BoundaryDivergenceError)
from .policy import OrderStrategy, run_one_shot, run_recurring
from .rayleigh import build_witness, materialize
from .sampling import RngStream
from ._rat import rat_str


# Exit gates: exact checks allow verify-lp's slack; estimate's Monte-Carlo
# gate tests every element at this family-wise error level (Bonferroni).
EXACT_SLACK = 1e-7
MC_GATE_LEVEL = 1e-6


def _out(args, doc):
    text = json.dumps(doc, indent=2, default=str)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _maxent_witness(args, env, x):
    """The max-entropy Gibbs witness with marginals alpha x (alpha = 1 when
    --alpha is not given)."""
    alpha = args.alpha if args.alpha is not None else 1.0
    return solve_maxent(env, CountingOracle("enumeration", env=env), alpha * np.asarray(x),
                        tol=args.tol)


def _matroid_of(env):
    if env.kind != "matroid":
        raise EnvironmentError_("this command needs a matroid instance")
    return env.meta["matroid"]


def cmd_gen(args):
    params = json.loads(args.params) if args.params else {}
    _, _, doc = generators.gen_instance(args.name, seed=args.seed, **params)
    _out(args, doc)
    return 0


def cmd_solve_maxent(args):
    env, x, scale = io.parse_instance(args.instance)
    try:
        gibbs = _maxent_witness(args, env, x)
    except BoundaryDivergenceError as exc:
        _out(args, {"status": "divergence", "detail": str(exc)})
        return 1
    _out(args, {"status": "ok", "w": list(map(float, gibbs.w)),
                "rho": list(map(float, gibbs.rho))})
    return 0


def cmd_kl_project(args):
    env, x, scale = io.parse_instance(args.instance)
    m = _matroid_of(env)
    wit = build_witness(m, BaseMeasure.uniform_on_bases(m), np.asarray(x), tol=args.tol,
                        check_rayleigh=False)
    _out(args, {"q": list(map(float, wit.q)), "q_used": list(map(float, wit.q_used)),
                "w": list(map(float, wit.w)),
                "diagnostics": kl_diagnostics(wit.solver, wit.q, wit.q_used)})
    return 0


def cmd_dominate(args):
    env, x, scale = io.parse_instance(args.instance)
    m = _matroid_of(env)
    q = dominating_base_point(m, np.asarray(x))
    _out(args, {"q": list(map(float, q)), "sum": float(np.sum(q)),
                "rank": m.rank_total})
    return 0


def cmd_build_rayleigh(args):
    env, x, scale = io.parse_instance(args.instance)
    m = _matroid_of(env)
    mu0 = BaseMeasure.uniform_on_bases(m)
    witness = build_witness(m, mu0, np.asarray(x), b=scale, tol=args.tol,
                            rng=RngStream(args.seed))
    doc = witness.to_doc()
    if m.n <= 14:
        table = materialize(witness)
        doc["mu_star"] = {"+".join(map(str, sorted(S))) or "empty": float(p)
                          for S, p in sorted(table.support.items(),
                                             key=lambda kv: (len(kv[0]), sorted(kv[0])))}
    _out(args, doc)
    return 0


def cmd_run_policy(args):
    env, x, scale = io.parse_instance(args.instance)
    gibbs = _maxent_witness(args, env, x)
    rng = RngStream(args.seed)
    strategy = OrderStrategy.seeded_random()
    accepted, trace = run_one_shot(gibbs, x, strategy, rng)
    if args.trace_out:
        io.write_trace(args.trace_out, trace)
    _out(args, {"accepted": sorted(accepted), "trace_rows": len(trace)})
    return 0


def cmd_run_recurring(args):
    env, x, scale = io.parse_instance(args.instance)
    gibbs = _maxent_witness(args, env, x)
    rng = RngStream(args.seed)
    if args.replay:
        events = [(e, r, a) for (e, r, a, _) in io.read_trace(args.replay)]
    else:
        events = [(e, r, None) for r in range(args.renewals) for e in range(env.n)]
    log = run_recurring(gibbs, x, events, rng)
    if args.trace_out:
        io.write_trace(args.trace_out, log)
    freq = {}
    for (e, r, a, acc) in log:
        c = freq.setdefault(e, [0, 0])
        c[0] += int(acc)
        c[1] += 1
    _out(args, {"acceptance_frequency": {e: c[0] / c[1] for e, c in freq.items()}})
    return 0


def cmd_estimate(args):
    env, x, scale = io.parse_instance(args.instance)
    alpha = args.alpha
    gibbs = _maxent_witness(args, env, x)
    config = generators.ExperimentConfig(seed=args.seed, samples=args.samples,
                                         alpha_target=alpha, mode=args.mode)
    rec = generators.estimate_selectability(gibbs, x, config)
    _out(args, rec.to_doc())
    if alpha is None:
        return 0
    if args.mode == "exact":
        return int(rec.alpha_achieved < alpha - EXACT_SLACK)
    # a violation: some element's Wilson upper bound, over x_e, is below alpha
    z = NormalDist().inv_cdf(1 - MC_GATE_LEVEL / (2 * len(x)))
    return int(any(generators.wilson_interval(int(a), rec.n_rep, z)[1] / float(xe) < alpha
                   for a, xe in zip(rec.accepts, x)))


def cmd_verify_lp(args):
    env, x, scale = io.parse_instance(args.instance)
    alpha = args.alpha if args.alpha is not None else 1.0
    gibbs = _maxent_witness(args, env, x)
    report = verify_stationary_lp(gibbs, x, alpha)
    _out(args, report.to_doc())
    return 0 if report.passes(alpha, tol=EXACT_SLACK) else 1


def cmd_lp_exact(args):
    env, x, scale = io.parse_instance(args.instance)
    alpha, witness = solve_stationary_lp_exact(env, x)
    _out(args, {"alpha": rat_str(alpha), "alpha_float": float(alpha),
                "support_size": len(witness.support)})
    return 0


def cmd_alpha_table(args):
    params = json.loads(args.params) if args.params else {}
    val = generators.alpha_table(args.kind, **params)
    _out(args, {"kind": args.kind, "params": params, "alpha": val})
    return 0


def cmd_barriers(args):
    report = generators.run_barriers()
    _out(args, report)
    return 0 if (report["hat_ok"] and report["k4_limit_ok"]) else 1


# the options a command may read; each command registers only those it reads
_FLAGS = {
    "seed": dict(type=int, default=0),
    "samples": dict(type=int, default=100_000),
    "tol": dict(type=float, default=1e-8),
    "alpha": dict(type=float, default=None),
    "mode": dict(choices=["exact", "mc"], default="mc"),
}


@functools.cache
def build_parser():
    """The argument parser, built on the first call.  A command's handler is
    not stored in it: `main` looks `cmd_<command>` up when it runs."""
    p = argparse.ArgumentParser(prog="socrs",
                                description="stationary online contention resolution")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, reads, instance=True, **kw):
        sp = sub.add_parser(name, **kw)
        for flag in reads:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        sp.add_argument("--out", default=None)
        if instance:
            sp.add_argument("instance", help="instance JSON file or literal document")
        return sp

    sp = command("gen", ["seed"], instance=False,
                 help="emit a named instance document")
    sp.add_argument("name")
    sp.add_argument("--params", default=None, help="JSON parameter object")

    for name, reads in [
            ("solve-maxent", ["alpha", "tol"]),
            ("kl-project", ["tol"]),
            ("dominate", []),
            ("build-rayleigh", ["seed", "tol"]),
            ("verify-lp", ["alpha", "tol"]),
            ("lp-exact", []),
            ("estimate", ["seed", "samples", "tol", "alpha", "mode"])]:
        command(name, reads)

    sp = command("run-policy", ["seed", "tol", "alpha"])
    sp.add_argument("--trace-out", default=None)

    sp = command("run-recurring", ["seed", "tol", "alpha"])
    sp.add_argument("--trace-out", default=None)
    sp.add_argument("--replay", default=None, help="trace file to replay")
    sp.add_argument("--renewals", type=int, default=100)

    sp = command("alpha-table", [], instance=False)
    sp.add_argument("kind")
    sp.add_argument("--params", default=None)

    command("barriers", [], instance=False)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # looked up at call time, so a rebinding of cli.cmd_* takes effect
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (EnvironmentError_, EnumerationBudgetError, FileNotFoundError,
            json.JSONDecodeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:          # violations and solver failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
