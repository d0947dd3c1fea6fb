"""Closed-form constants, named instances, instance documents, and the CLI."""

import hashlib
import json
import math
import re
import shlex
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socrs import cli, io
from socrs.counting import CountingOracle
from socrs.dist import ExplicitDistribution, GibbsDistribution
from socrs.env import Family, check_membership, matching_environment
from socrs.generators import (ExperimentConfig, alpha_bipartite, alpha_hypergraph,
                              alpha_k, alpha_rayleigh, alpha_table,
                              bipartite_impossibility_bound, estimate_selectability,
                              gen_instance, greedy_bound, greedy_gamma,
                              hat_graph_disconnection, wilson_interval)
from socrs.maxent import solve_maxent


def test_alpha_constants_known_values():
    assert alpha_k(1) == pytest.approx(0.5, abs=1e-15)
    assert alpha_k(2) == pytest.approx(0.6, abs=1e-15)
    assert alpha_bipartite() == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-15)
    assert alpha_hypergraph(3) == pytest.approx(0.25, abs=1e-15)
    assert alpha_rayleigh() == 0.5
    assert alpha_rayleigh(b=2) == pytest.approx(1 / 3, abs=1e-15)
    assert alpha_bipartite(b=1) == pytest.approx(
        (2 + 1 - math.sqrt(5)) / 2, abs=1e-15)


def test_alpha_k_brute_force_poisson():
    # independent recomputation from raw Poisson pmf sums
    for k in (1, 2, 3, 5, 8):
        lam = float(k)
        pmf = [math.exp(-lam) * lam ** j / math.factorial(j) for j in range(k + 1)]
        assert alpha_k(k) == pytest.approx(sum(pmf[:k]) / sum(pmf), rel=1e-12)


def test_greedy_gamma_rounding():
    assert greedy_gamma(2) == 0.5       # [1] / 2
    assert greedy_gamma(8) == 0.75      # [2] / 8
    assert greedy_gamma(9) == pytest.approx(1 - 2 / 9)
    assert 0 < greedy_bound(2) < greedy_bound(12) < 1


def test_alpha_table_dispatch():
    assert alpha_table("matching") == pytest.approx(1 / 3)
    assert alpha_table("k-uniform", k=2) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        alpha_table("nope")


def test_impossibility_bound_values():
    # smaller root of (1-eps) a^2 - (3-2 eps) a + 1 = 0
    for eps, expect in [(1 / 3, 0.5), (1 / 4, 0.4648162), (1 / 5, 0.4457524)]:
        a = bipartite_impossibility_bound(eps)
        assert a == pytest.approx(expect, abs=1e-6)
        assert (1 - eps) * a * a - (3 - 2 * eps) * a + 1 == pytest.approx(0, abs=1e-12)


def test_hat_graph_formula():
    for n in range(1, 5):
        assert hat_graph_disconnection(n) == Fraction(3, n + 3)


def test_gen_instances_are_valid():
    for name, params in [("bipartite-impossibility", {"n": 3}),
                         ("K4-barrier", {"eps": 0.1}),
                         ("hat-graph", {"n": 2}),
                         ("symmetric-uniform", {"n": 4, "k": 2}),
                         ("random-graph", {}), ("random-bipartite", {}),
                         ("random-hypergraph", {}),
                         ("random-graphic-matroid", {})]:
        env, x, doc = gen_instance(name, seed=1, **params)
        assert len(x) == env.n
        assert all(0 < v <= 1 for v in x)
        rep = check_membership(env, x)
        assert rep.status != "outside"
        # documents round-trip through the parser
        env2, x2, scale = io.parse_instance(json.dumps(doc))
        assert env2.n == env.n
        assert x2 == pytest.approx([float(v) for v in x])


def test_gen_deterministic_in_seed():
    _, x1, d1 = gen_instance("random-graph", seed=5)
    _, x2, d2 = gen_instance("random-graph", seed=5)
    _, x3, _ = gen_instance("random-graph", seed=6)
    assert d1 == d2
    assert x1 != x3 or d1["edges"] != gen_instance("random-graph", seed=6)[2]["edges"]


def test_parse_instance_rejects_unknown_fields():
    doc = {"kind": "k-uniform", "k": 1, "x": [0.5], "bogus": 1}
    with pytest.raises(Exception):
        io.parse_instance(doc)
    with pytest.raises(Exception):
        io.parse_instance({"kind": "who-knows", "x": [0.5]})


def test_trace_round_trip(tmp_path):
    rows = [(0, 0, True, False), (1, 0, False, False), (0, 1, True, True)]
    path = tmp_path / "trace.csv"
    io.write_trace(path, rows)
    assert io.read_trace(path) == rows


def test_cli_gen_and_verify(tmp_path):
    inst = tmp_path / "inst.json"
    rc = cli.main(["gen", "random-graph", "--seed", "3", "--out", str(inst)])
    assert rc == 0
    rc = cli.main(["verify-lp", "--alpha", "0.3", "--out",
                   str(tmp_path / "v.json"), str(inst)])
    assert rc == 0
    doc = json.loads((tmp_path / "v.json").read_text())
    assert doc["alpha_achieved"] >= 0.3 - 1e-7
    assert not doc["violated_caps"]


def test_cli_lp_exact_and_alpha_table(tmp_path):
    inst = tmp_path / "inst.json"
    cli.main(["gen", "symmetric-uniform", "--params", '{"n": 4, "k": 2}',
              "--out", str(inst)])
    out = tmp_path / "lp.json"
    assert cli.main(["lp-exact", "--out", str(out), str(inst)]) == 0
    doc = json.loads(out.read_text())
    assert 0 < doc["alpha_float"] <= 1
    out2 = tmp_path / "tab.json"
    assert cli.main(["alpha-table", "k-uniform", "--params", '{"k": 2}',
                     "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["alpha"] == pytest.approx(0.6)


def test_cli_lp_exact_beyond_budget_exits_two(tmp_path):
    # |F| = 6196 exceeds the rational simplex budget of 5000: too large an
    # instance is an input error, not a violation
    inst = tmp_path / "inst.json"
    cli.main(["gen", "symmetric-uniform", "--params", '{"n": 20, "k": 4}',
              "--out", str(inst)])
    assert cli.main(["lp-exact", "--out", str(tmp_path / "lp.json"), str(inst)]) == 2
    assert not (tmp_path / "lp.json").exists()


def test_cli_exact_estimate_on_a_64_edge_star(tmp_path):
    # 64 elements, more than a 64-bit set mask holds; |F| = 65
    inst = tmp_path / "star.json"
    inst.write_text(json.dumps({"kind": "general-matching",
                                "edges": [[0, i] for i in range(1, 65)], "x": [1 / 64] * 64}))
    out = tmp_path / "est.json"
    assert cli.main(["estimate", "--mode", "exact", "--alpha", "0.5", "--out", str(out),
                     str(inst)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["per_element"]) == 64 and doc["stationarity_tv"][0] <= 1e-12


def test_cli_mc_estimate_beyond_20_elements(tmp_path):
    # 24 edges: the replay works on the family's positions, not on 2^n masks
    inst = tmp_path / "inst.json"
    cli.main(["gen", "random-graph", "--params", '{"n_vertices": 14, "n_edges": 24}',
              "--seed", "2", "--out", str(inst)])
    out = tmp_path / "est.json"
    assert cli.main(["estimate", "--alpha", "0.3", "--samples", "1000", "--out", str(out),
                     str(inst)]) == 0
    env, x, _ = io.parse_instance(str(inst))
    assert env.n == 24
    witness = solve_maxent(env, CountingOracle("enumeration", env=env),
                           0.3 * np.asarray(x), tol=1e-8).to_explicit()
    # the exit gate's Bonferroni level, so all 24 intervals hold together
    z = NormalDist().inv_cdf(1 - cli.MC_GATE_LEVEL / (2 * env.n))
    for e, ratio in enumerate(json.loads(out.read_text())["per_element"]):
        lo, hi = wilson_interval(round(ratio * x[e] * 1000), 1000, z)
        assert lo <= witness.marginal(e) <= hi


GEN_DIGESTS = [
    ("random-graphic-matroid", 0, {"n_vertices": 5, "n_edges": 8},
     "15432429dc03ef082011bc1b6710c4481b5caf406f1e24d9be5d683b1cc6e018"),
    ("random-graphic-matroid", 1, {"n_vertices": 6, "n_edges": 12},
     "592ed7b71e183797cabac8eca19a1d01fcbfc31913062aa28f9b80a999cb65b5"),
    ("random-graphic-matroid", 7, {"n_vertices": 8, "n_edges": 16},
     "984fec19be89a8ff95ce8b64f9222629eac6c32ec78075006f3d19e1287ae0f7"),
    ("hat-graph", 0, {"n": 2, "terminal_edge": True},
     "f245e365c0e85b869ce3f7edea9e6b9b8af2d2d5f626493362a0d94895b9671a"),
    ("hat-graph", 0, {"n": 3}, "a8132f87b9fb892525ffff9db8936ac42f33c1c1bce73ebc1642f9e524aca4e7"),
]


@pytest.mark.parametrize("name,seed,params,digest", GEN_DIGESTS)
def test_cli_gen_matroid_documents_are_pinned(tmp_path, name, seed, params, digest):
    # sha256 of the written document: a matroid's x reads its subset sums and rank table
    out = tmp_path / "doc.json"
    assert cli.main(["gen", name, "--seed", str(seed), "--params", json.dumps(params),
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_gen_matroid_beyond_rank_table_exits_two():
    # 21 elements: the rank table over all 2^21 subsets is beyond budget
    assert cli.main(["gen", "random-graphic-matroid", "--params",
                     '{"n_vertices": 8, "n_edges": 21}']) == 2


@pytest.mark.parametrize("mode", ["mc", "exact"])
def test_cli_estimate_document_keys(tmp_path, mode):
    inst = tmp_path / "inst.json"
    cli.main(["gen", "random-graph", "--seed", "4", "--out", str(inst)])
    out = tmp_path / "est.json"
    assert cli.main(["estimate", "--alpha", "0.3", "--samples", "2000", "--mode", mode,
                     "--out", str(out), str(inst)]) == 0
    assert set(json.loads(out.read_text())) == {
        "instance_id", "alpha_target", "alpha_achieved", "per_element",
        "stationarity_tv", "intervals", "runtime"}


@pytest.mark.parametrize("argv", [["verify-lp"], ["estimate", "--mode", "exact"]])
def test_certifying_a_matching_builds_no_set_objects(argv, tmp_path, monkeypatch):
    # both commands work on family positions and mass arrays: no family
    # builds its frozensets (which `enumerate_feasible` reads too) and no
    # {set: mass} dict is built
    inst = tmp_path / "inst.json"
    cli.main(["gen", "random-graph", "--seed", "3", "--out", str(inst)])
    families, reads = [], []
    init, support = Family.__init__, ExplicitDistribution.support
    monkeypatch.setattr(Family, "__init__",
                        lambda fam, *a: families.append(fam) or init(fam, *a))
    monkeypatch.setattr(ExplicitDistribution, "support",
                        property(lambda law: reads.append("support") or support.fget(law)))
    assert cli.main(argv + ["--alpha", "0.3", "--out", str(tmp_path / "out.json"),
                            str(inst)]) == 0
    assert families and reads == []
    assert all({"sets", "index"}.isdisjoint(vars(fam)) for fam in families)


def test_exact_estimate_reports_the_output_laws_distance_to_the_witness():
    env, x, _ = gen_instance("random-graph", seed=4)
    gibbs = solve_maxent(env, CountingOracle("enumeration", env=env), np.asarray(x) / 3)
    rec = estimate_selectability(gibbs, x, ExperimentConfig(mode="exact"))
    assert len(rec.stationarity_tv) == 1 and 0 <= rec.stationarity_tv[0] <= 1e-12
    assert estimate_selectability(gibbs, x, ExperimentConfig(samples=100)).stationarity_tv == []
    # rational witness and x: the expansion reproduces the witness exactly
    triangle = matching_environment([(0, 1), (1, 2), (0, 2)], 3)
    rec = estimate_selectability(GibbsDistribution(triangle, [Fraction(1, 4)] * 3),
                                 [Fraction(1, 2)] * 3, ExperimentConfig(mode="exact"))
    assert rec.stationarity_tv == [0.0]


def test_cli_usage_and_input_errors(tmp_path):
    assert cli.main(["definitely-not-a-command"]) == 2
    assert cli.main([]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "nope", "x": [0.5]}')
    assert cli.main(["verify-lp", str(bad)]) == 2
    assert cli.main(["verify-lp", str(tmp_path / "missing.json")]) == 2


# the options each subcommand reads; every other one of the five is refused
_READS = {
    "gen": {"seed"},
    "solve-maxent": {"alpha", "tol"}, "verify-lp": {"alpha", "tol"},
    "kl-project": {"tol"},
    "build-rayleigh": {"seed", "tol"},
    "estimate": {"seed", "samples", "tol", "alpha", "mode"},
    "run-policy": {"seed", "tol", "alpha"}, "run-recurring": {"seed", "tol", "alpha"},
    "dominate": set(), "lp-exact": set(), "alpha-table": set(), "barriers": set(),
}
_FLAG_VALUE = {"seed": "1", "samples": "10", "tol": "1e-6", "alpha": "0.3", "mode": "exact"}
_POSITIONAL = {"gen": ["random-graph"], "alpha-table": ["k-uniform"], "barriers": []}


@pytest.mark.parametrize("command", sorted(_READS))
def test_cli_registers_only_the_flags_a_command_reads(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    positional = _POSITIONAL.get(command, ["inst.json"])
    parser = cli.build_parser()
    for flag in sorted(_FLAG_VALUE):
        argv = [command, f"--{flag}", _FLAG_VALUE[flag], "--out", "o.json"] + positional
        if flag in _READS[command]:
            assert getattr(parser.parse_args(argv), flag) is not None
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2
            assert cli.main(argv) == 2


_TRIANGLE = {"kind": "matroid",
             "matroid": {"variant": "graphic", "n_vertices": 3,
                         "edges": [[0, 1], [1, 2], [0, 2]]}}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([c for c in sorted(_READS) if c not in _POSITIONAL]),
       st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
       st.integers(0, 2), st.sampled_from([0.0, 1.5, -0.2, math.nan]))
def test_cli_x_outside_unit_interval_exits_two(command, x, e, bad):
    x[e] = bad
    flags = ["--alpha", "0.3"] if "alpha" in _READS[command] else []
    assert cli.main([command, *flags, json.dumps(dict(_TRIANGLE, x=x))]) == 2


@pytest.mark.parametrize("argv", [["solve-maxent"], ["verify-lp"], ["estimate", "--mode", "mc"],
                                  ["estimate", "--mode", "exact"], ["run-policy"],
                                  ["run-recurring"]], ids=" ".join)
def test_cli_alpha_zero_exits_two(argv, tmp_path):
    # alpha = 0 asks for marginals 0: an input error, not a solve at alpha = 1
    inst = tmp_path / "inst.json"
    cli.main(["gen", "random-graph", "--seed", "1", "--params",
              '{"n_vertices": 5, "n_edges": 6}', "--out", str(inst)])
    assert cli.main([*argv, "--alpha", "0", "--out", str(tmp_path / "o.json"), str(inst)]) == 2


def test_readme_command_block_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line.*?```\n(.*?)```", readme, re.S).group(1)
    lines = [ln for ln in block.splitlines() if ln.strip()]
    assert len(lines) >= 9
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "socrs"
        assert cli.main(argv[1:]) == 0, line


def test_cli_run_policy_and_estimate(tmp_path):
    inst = tmp_path / "inst.json"
    cli.main(["gen", "random-graph", "--seed", "4", "--out", str(inst)])
    trace = tmp_path / "trace.csv"
    rc = cli.main(["run-policy", "--alpha", "0.3", "--seed", "1",
                   "--trace-out", str(trace), "--out",
                   str(tmp_path / "p.json"), str(inst)])
    assert rc == 0
    assert len(io.read_trace(trace)) == json.loads(
        (tmp_path / "p.json").read_text())["trace_rows"]
    rc = cli.main(["estimate", "--alpha", "0.3", "--samples", "5000",
                   "--mode", "mc", "--seed", "1", "--out",
                   str(tmp_path / "e.json"), str(inst)])
    assert rc == 0


@pytest.mark.parametrize("mode", ["mc", "exact"])
def test_cli_estimate_cap_violation_exits_one(tmp_path, mode):
    # the max-ent witness for alpha = 0.6 breaks a cap on this instance;
    # that is a violation (1) like in run-policy and verify-lp, not an input error (2)
    inst = tmp_path / "inst.json"
    cli.main(["gen", "random-graph", "--seed", "3", "--out", str(inst)])
    rc = cli.main(["estimate", "--alpha", "0.6", "--samples", "2000",
                   "--mode", mode, "--out", str(tmp_path / "est.json"), str(inst)])
    assert rc == 1


def test_cli_estimate_gate_allows_sampling_noise(tmp_path):
    # with 1,000 samples the point estimates of this valid witness scatter
    # well below alpha; verify-lp passes, so no seed may exit 1
    inst = tmp_path / "inst.json"
    cli.main(["gen", "random-graph", "--seed", "3", "--out", str(inst)])
    out = str(tmp_path / "out.json")
    assert cli.main(["verify-lp", "--alpha", "0.3", "--out", out, str(inst)]) == 0
    for seed in range(20):
        assert cli.main(["estimate", "--alpha", "0.3", "--samples", "1000",
                         "--seed", str(seed), "--out", out, str(inst)]) == 0
    assert cli.main(["estimate", "--alpha", "0.3", "--mode", "exact",
                     "--out", out, str(inst)]) == 0


def test_cli_estimate_gate_fails_counts_far_below_alpha(tmp_path, monkeypatch):
    from socrs import generators
    real_replay = generators.replay_mod.replay

    def short_replay(*args, **kwargs):
        acc, outcomes, n_rep = real_replay(*args, **kwargs)
        acc[0] = acc[0] * 4 // 5      # 80% of the accepts of element 0
        return acc, outcomes, n_rep

    monkeypatch.setattr(generators.replay_mod, "replay", short_replay)
    inst = tmp_path / "inst.json"
    cli.main(["gen", "random-graph", "--seed", "3", "--out", str(inst)])
    assert cli.main(["estimate", "--alpha", "0.3", "--samples", "20000",
                     "--out", str(tmp_path / "est.json"), str(inst)]) == 1


def test_cli_run_recurring(tmp_path):
    inst = tmp_path / "inst.json"
    cli.main(["gen", "random-graph", "--seed", "2", "--out", str(inst)])
    out = tmp_path / "r.json"
    rc = cli.main(["run-recurring", "--alpha", "0.3", "--renewals", "20",
                   "--out", str(out), str(inst)])
    assert rc == 0
    freq = json.loads(out.read_text())["acceptance_frequency"]
    assert all(0.0 <= v <= 1.0 for v in freq.values())
