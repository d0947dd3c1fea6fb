"""The four workloads: which ``socrs`` CLI calls a run makes, and on what.

Every instance comes from ``socrs.generators.gen_instance`` with a seed
derived from the run's ``--seed``; the CLI sees only the JSON file written
here.  The calls depend on the workload and the seed alone, so both sides of
a comparison make the same calls on the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

ALPHA_MATCHING = 1.0 / 3.0
ALPHA_BIPARTITE = (3.0 - math.sqrt(5.0)) / 2.0


class Workload:
    def __init__(self, name, why, plan, expected):
        self.name = name
        self.why = why
        self.plan = plan            # plan(gen, seed_of) -> list of calls
        self.expected = expected    # spans that must record calls when traced


def sub_seed(seed, workload, slot):
    """Deterministic, well-spread instance seed for one slot of a run."""
    key = f"{workload}/{seed}/{slot}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big")


def _mc(gen, seed_of):
    # 100,000 replications per call: with fewer, the CLI's own exit gate
    # (alpha_achieved within 0.03 of alpha) fails on some seeds.
    calls = []
    for slot in range(2):
        s = seed_of(slot)
        calls.append({"instance": gen("random-graph", s, n_vertices=6, n_edges=8),
                      "argv": ["estimate", "--mode", "mc", "--alpha", "0.3",
                               "--samples", "100000", "--seed", str(s)],
                      "check": "mc", "alpha": 0.3, "samples": 100000})
    return calls


def _lp(gen, seed_of):
    # Calls of 0.03-0.3 s each, so that the speed reference around a call
    # tells how fast the machine ran during it (n=4 takes 8 s in one call).
    # n=3 reads x = 1/3, 2/3 as floats, so its alpha is a 98-digit rational
    # within 1e-12 of criterion 03's 33/67.  The seeded instances have a
    # fixed shape (K2,3 and K4) and take only x from the seed: on larger
    # graphs the simplex cost moves by a third with x.
    calls = [{"instance": gen("bipartite-impossibility", 0, n=3),
              "argv": ["lp-exact"], "check": "lp-rational", "alpha": "33/67",
              "alpha_tol": 1e-12}]
    shapes = [("random-bipartite", 5, 6, ALPHA_BIPARTITE), ("random-graph", 4, 6, ALPHA_MATCHING)]
    for slot, (name, n_vertices, n_edges, family_alpha) in enumerate(shapes * 6):
        calls.append({"instance": gen(name, seed_of(slot), n_vertices=n_vertices, n_edges=n_edges),
                      "argv": ["lp-exact"], "check": "lp-float",
                      "family_alpha": family_alpha})
    return calls


def _rayleigh(gen, seed_of):
    # A fixed instance: on seeded random graphic matroids the cost is bimodal
    # (the dual descent either converges in tens of steps or runs to its
    # 20,000-step cap, depending on x), so medians over seeds do not settle.
    # The 2-hat graph with its terminal edge always runs to the cap; the seed
    # drives the Rayleigh check's random tilts, one tilt seed per call.  It
    # takes 1.2 s a call where the 3-hat graph takes 2 s: shorter calls are
    # tracked more closely by the speed reference around them.
    calls = []
    for slot in range(2):
        s = seed_of(slot)
        calls.append({"instance": gen("hat-graph", s, n=2, terminal_edge=True),
                      "argv": ["build-rayleigh", "--seed", str(s)], "check": "rayleigh"})
    return calls


def _maxent(gen, seed_of):
    # Complete graphs (K8, |F| = 764; K5,5, |F| = 1546) fix the feasible
    # family, so only x varies with the seed; sparse random graphs of the same
    # size vary several-fold in |F| and so in cost.  Each family is taken at
    # its own selectability constant, where max-ent witnesses exist.
    calls = []
    for slot in range(8):
        name, n_vertices, n_edges, alpha = (
            ("random-graph", 8, 28, ALPHA_MATCHING) if slot % 2 == 0 else
            ("random-bipartite", 10, 25, ALPHA_BIPARTITE))
        path = gen(name, seed_of(slot), n_vertices=n_vertices, n_edges=n_edges)
        a = repr(alpha)
        calls.append({"instance": path, "argv": ["verify-lp", "--alpha", a],
                      "check": "verify-lp", "alpha": alpha})
        calls.append({"instance": path, "argv": ["estimate", "--mode", "exact", "--alpha", a],
                      "check": "exact-estimate", "alpha": alpha})
    return calls


_COMMON_SPANS = ["cli.main", "io.parse_instance", "generators.gen_instance"]

WORKLOADS = {w.name: w for w in [
    Workload("mc-estimate",
             "MC estimates on two 8-edge random graphs: only workload that reaches the replay kernel and order sampling",
             _mc,
             _COMMON_SPANS + ["cli.estimate", "maxent.solve_maxent", "replay.replay",
                              "replay.random_orders", "replay.kernel", "sampling.uniform"]),
    Workload("exact-lp",
             "exact rational stationary LP (n=3 impossibility, seeded K2,3 and K4): simplex and rational type do all the work",
             _lp,
             _COMMON_SPANS + ["cli.lp-exact", "dist.solve_stationary_lp_exact",
                              "simplex.solve_lp", "env.enumerate_feasible"]),
    Workload("rayleigh-witness",
             "build-rayleigh on the 2-hat graph with terminal edge: KL dual descent to its cap, base-measure mass, materialize",
             _rayleigh,
             _COMMON_SPANS + ["cli.build-rayleigh", "rayleigh.build_witness",
                              "rayleigh.rayleigh_check", "rayleigh.materialize",
                              "maxent.solve_kl_projection", "maxent.dominating_base_point",
                              "maxent.dual_value", "maxent.dual_gradient",
                              "counting.partition", "counting.marginals",
                              "counting.second_moments", "counting.BaseMeasure.mass",
                              "env.Matroid.bases", "env.enumerate_feasible"]),
    Workload("maxent-certify",
             "verify-lp and exact estimate on K8 and K5,5: max-ent Newton path, exact output law, LP verification",
             _maxent,
             _COMMON_SPANS + ["cli.verify-lp", "cli.estimate", "maxent.solve_maxent",
                              "maxent.dual_value", "maxent.dual_gradient",
                              "counting.partition", "counting.marginals",
                              "counting.second_moments", "dist.GibbsDistribution.to_explicit",
                              "dist.verify_stationary_lp", "policy.exact_output_law",
                              "env.enumerate_feasible"]),
]}


def plan(workload, seed, workdir, gen_instance):
    """Write every instance of the run into ``workdir``; return its calls."""
    paths = []

    def gen(name, s, **params):
        _, _, doc = gen_instance(name, seed=s, **params)
        path = os.path.join(workdir, f"i{len(paths)}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        paths.append(path)
        return path

    calls = WORKLOADS[workload].plan(gen, lambda slot: sub_seed(seed, workload, slot))
    for i, c in enumerate(calls):
        c["id"] = f"c{i}"
    return calls
