"""Tests of the benchmark itself: its oracles, its tracer and its contract file.

Run from the repository root with the program importable:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracles      # noqa: E402
import run          # noqa: E402
import tracing      # noqa: E402
import workloads    # noqa: E402

from socrs import cli, maxent, generators   # noqa: E402


def _call(tmp_path, cid, name, params, argv, **check):
    _, _, doc = generators.gen_instance(name, seed=3, **params)
    inst = tmp_path / f"{cid}.json"
    inst.write_text(json.dumps(doc))
    out = tmp_path / f"{cid}.out.json"
    rc = cli.main(argv + ["--out", str(out), str(inst)])
    return dict(check, id=cid, instance=str(inst), argv=argv), \
        {"id": cid, "rc": rc, "out": str(out)}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One call of every check kind on small instances, with its outputs."""
    tmp = tmp_path_factory.mktemp("run")
    a = workloads.ALPHA_MATCHING
    made = [
        _call(tmp, "mc", "random-graph", {"n_vertices": 5, "n_edges": 4},
              ["estimate", "--mode", "mc", "--alpha", "0.3", "--samples", "3000"],
              check="mc", alpha=0.3, samples=3000),
        _call(tmp, "lpr", "bipartite-impossibility", {"n": 2}, ["lp-exact"],
              check="lp-rational", alpha=None),
        _call(tmp, "lpf", "random-graph", {"n_vertices": 5, "n_edges": 5}, ["lp-exact"],
              check="lp-float", family_alpha=a),
        _call(tmp, "ray", "random-graphic-matroid", {"n_vertices": 4, "n_edges": 5},
              ["build-rayleigh"], check="rayleigh"),
        _call(tmp, "vlp", "random-graph", {"n_vertices": 6, "n_edges": 6},
              ["verify-lp", "--alpha", repr(a)], check="verify-lp", alpha=a),
        _call(tmp, "ex", "random-graph", {"n_vertices": 6, "n_edges": 6},
              ["estimate", "--mode", "exact", "--alpha", repr(a)],
              check="exact-estimate", alpha=a),
    ]
    specs = [s for s, _ in made]
    calls = [c for _, c in made]
    # the exact rational value is only known from the document for this size
    specs[1]["alpha"] = json.loads(Path(calls[1]["out"]).read_text())["alpha"]
    return specs, calls


def _corrupt(calls, cid, edit):
    """Copy of ``calls`` whose call ``cid`` has its output document edited."""
    calls = copy.deepcopy(calls)
    rec = next(c for c in calls if c["id"] == cid)
    doc = json.loads(Path(rec["out"]).read_text())
    edit(doc)
    bad = Path(rec["out"]).with_suffix(".bad.json")
    bad.write_text(json.dumps(doc))
    rec["out"] = str(bad)
    return calls


def test_correct_outputs_pass(small_run):
    specs, calls = small_run
    failures, digests = run.check_passes(specs, [calls, calls], ["p0", "p1"])
    assert failures == {}
    assert all(digests.values())


def _perturb_witness(doc):
    keys = sorted(doc["mu_star"], key=lambda k: doc["mu_star"][k])
    doc["mu_star"][keys[-1]] -= 1e-3
    doc["mu_star"][keys[0]] += 1e-3


def _shift_mc(doc):
    doc["per_element"][0] *= 1.05


@pytest.mark.parametrize("cid, edit", [
    ("lpr", lambda d: d.update(alpha="1/3")),
    ("lpf", lambda d: d.update(alpha_float=d["alpha_float"] + 1e-3)),
    ("ex", lambda d: d.update(alpha_achieved=d["alpha_achieved"] + 1e-6)),
    ("vlp", lambda d: d["violated_caps"].append({"e": 0})),
    ("ray", _perturb_witness),
    ("mc", _shift_mc),
])
def test_negative_control_corrupted_output_fails(small_run, cid, edit):
    specs, calls = small_run
    failures, _ = run.check_passes(specs, [_corrupt(calls, cid, edit)], ["p0"])
    assert list(failures) == [f"{cid}@p0"]
    assert len(failures) / len(calls) > 0


def test_output_that_changes_between_passes_fails(small_run):
    specs, calls = small_run
    changed = _corrupt(calls, "lpf", lambda d: d.update(support_size=d["support_size"] + 1))
    failures, _ = run.check_passes(specs, [calls, changed], ["p0", "p1"])
    assert failures == {"lpf@p1": "output differs from the first pass"}


def test_negative_control_nonzero_exit_fails(small_run):
    specs, calls = small_run
    calls = copy.deepcopy(calls)
    calls[4]["rc"] = 1
    failures, _ = run.check_passes(specs, [calls], ["p0"])
    assert failures == {"vlp@p0": "exit code 1"}


def test_lp_rational_tolerance_is_exact_rational():
    call = {"alpha": "33/67", "alpha_tol": 1e-12}
    near = str(Fraction(33, 67) + Fraction(1, 10 ** 13))
    far = str(Fraction(33, 67) + Fraction(1, 10 ** 9))
    assert oracles._lp_rational(call, {"alpha": near}, None, 1) is None
    assert oracles._lp_rational(call, {"alpha": far}, None, 1) is not None
    assert oracles._lp_rational({"alpha": "33/67"}, {"alpha": near}, None, 1) is not None


def test_digest_ignores_runtime_only():
    assert oracles.digest({"a": 1, "runtime": 2.0}) == oracles.digest({"a": 1, "runtime": 5.0})
    assert oracles.digest({"a": 1}) != oracles.digest({"a": 2})


def test_mc_bound_is_bonferroni_adjusted():
    out = {"per_element": [150 / 1000 / 0.5]}
    call = {"samples": 1000, "alpha": 0.3}
    # 150 of 1000 at x = 0.5 is exactly alpha * x
    assert oracles._mc(call, out, {"x": [0.5]}, 1) is None
    z1 = oracles.NormalDist().inv_cdf(1 - oracles.MC_FALSE_FAIL / 2)
    z100 = oracles.NormalDist().inv_cdf(1 - oracles.MC_FALSE_FAIL / 100 / 2)
    assert z100 > z1 > 6


def _spans_ok(spans):
    own = tracing.self_times(spans)
    for sp, s in zip(spans, own):
        assert s >= 0
        if sp.parent >= 0:
            parent = spans[sp.parent]
            assert parent.start <= sp.start <= sp.end <= parent.end
            assert s <= parent.end - parent.start


def test_child_self_time_never_exceeds_parent():
    tr = tracing.Tracer()

    def leaf(k):
        return sum(range(k))

    def mid(k):
        return tr_leaf(k) + tr_leaf(2 * k)

    tr_leaf = tr.wrap("leaf", leaf)
    tr_mid = tr.wrap("mid", mid)
    root = tr.wrap("root", lambda: [tr_mid(1000), tr_mid(2000), tr_leaf(10)])
    root()
    _spans_ok(tr.spans)
    agg = tracing.aggregate(tr.spans)
    assert agg["leaf"]["calls"] == 5 and agg["mid"]["calls"] == 2
    top = next(sp for sp in tr.spans if sp.parent < 0)
    assert sum(tracing.self_times(tr.spans)) == pytest.approx(top.end - top.start)


def test_nested_same_name_counts_inclusive_time_once():
    tr = tracing.Tracer()

    def fact(n):
        return 1 if n == 0 else n * traced(n - 1)

    traced = tr.wrap("fact", fact)
    traced(5)
    agg = tracing.aggregate(tr.spans)
    outer = next(sp for sp in tr.spans if not sp.nested)
    assert agg["fact"]["calls"] == 6
    assert agg["fact"]["s"] == pytest.approx(outer.end - outer.start)


def test_install_wraps_every_binding_and_uninstall_restores(tmp_path):
    original = maxent.solve_maxent
    assert cli.solve_maxent is original and generators.solve_maxent is original
    _, _, doc = generators.gen_instance("random-graph", seed=1, n_vertices=5, n_edges=5)
    inst = tmp_path / "i.json"
    inst.write_text(json.dumps(doc))
    tr = tracing.Tracer()
    tr.install()
    try:
        assert cli.solve_maxent is not original
        assert cli.main(["estimate", "--mode", "mc", "--alpha", "0.3", "--samples", "20000",
                         "--out", str(tmp_path / "o.json"), str(inst)]) == 0
    finally:
        tr.uninstall()
    assert cli.solve_maxent is original and generators.solve_maxent is original
    agg = tracing.aggregate(tr.spans)
    for name in workloads.WORKLOADS["mc-estimate"].expected:
        if name != "generators.gen_instance":
            assert agg[name]["calls"] > 0, name
    assert agg["replay.kernel"]["replay.kernel.replays"] == 20000
    assert agg["sampling.uniform"]["sampling.uniform.draws"] == 20000 * (5 + 11)
    _spans_ok(tr.spans)


def test_missing_span_fails_the_traced_run():
    layers = {"cli.main": {"calls": 1, "s": 1.0, "self_s": 0.1}}
    with pytest.raises(run.BenchError, match="replay.kernel"):
        run.layer_metrics(layers, ["cli.main", "replay.kernel"], 1.0, 0.1)


def test_benchmark_json_matches_the_code():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.PER_LAYER
