"""Benchmark of the ``socrs`` command line; see perfbench/README.md.

    python3 perfbench/run.py --workload mc-estimate --seed 1 --seconds 20 --trace 0

Run from the repository root.  Builds the program from ``src/`` into
``.bench_build/``, times a fixed set of CLI calls in a fresh child process,
checks every output, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles      # noqa: E402
import speed        # noqa: E402
import workloads    # noqa: E402

BUILD_DIR = ".bench_build"
SETUP_SAMPLES = 9
RUN_DEADLINE_S = 170

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("replay.kernel.s", "s"), ("replay.kernel.replays", "count"),
    ("replay.kernel.bytes_in", "B"), ("replay.random_orders.s", "s"),
    ("replay.replay.self_s", "s"), ("sampling.uniform.s", "s"),
    ("sampling.uniform.draws", "count"), ("replays_per_s", "1/s"),
    ("simplex.solve_lp.s", "s"), ("dist.solve_stationary_lp_exact.self_s", "s"),
    ("dist.lp.rows", "count"), ("dist.lp.cols", "count"),
    ("maxent.solve_kl_projection.s", "s"), ("maxent.dual_value.calls", "count"),
    ("maxent.dual_gradient.calls", "count"), ("maxent.dominating_base_point.s", "s"),
    ("counting.partition.s", "s"), ("counting.partition.calls", "count"),
    ("counting.BaseMeasure.mass.calls", "count"), ("counting.BaseMeasure.mass.s", "s"),
    ("env.Matroid.bases.calls", "count"), ("rayleigh.rayleigh_check.s", "s"),
    ("rayleigh.materialize.s", "s"), ("rayleigh.build_witness.self_s", "s"),
    ("maxent.solve_maxent.s", "s"), ("maxent.solve_maxent.calls", "count"),
    ("counting.marginals.s", "s"), ("counting.marginals.calls", "count"),
    ("counting.second_moments.s", "s"), ("counting.second_moments.calls", "count"),
    ("dist.GibbsDistribution.to_explicit.s", "s"), ("dist.verify_stationary_lp.s", "s"),
    ("policy.exact_output_law.s", "s"), ("policy.exact_output_law.support", "count"),
    ("env.enumerate_feasible.s", "s"), ("env.enumerate_feasible.calls", "count"),
    ("env.enumerate_feasible.sets", "count"),
    ("io.parse_instance.s", "s"), ("cli.estimate.self_s", "s"),
    ("cli.lp-exact.self_s", "s"), ("cli.build-rayleigh.self_s", "s"),
    ("cli.verify-lp.self_s", "s"), ("generators.gen_instance.s", "s"),
    ("trace.overhead_frac", "ratio"),
]


class BenchError(RuntimeError):
    pass


def source_files(root):
    files = [root / "setup.py", root / "pyproject.toml"]
    files += [p for p in (root / "src").rglob("*")
              if p.is_file() and "__pycache__" not in p.parts]
    return sorted(files)


def build(root):
    """Build the program from ``src/`` once per source digest; return its import root."""
    if not (root / "src" / "socrs").is_dir():
        raise BenchError("no src/socrs: run from the repository root")
    h = hashlib.sha256()
    for p in source_files(root):
        h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes() + b"\0")
    source_digest = h.hexdigest()
    dest = root / BUILD_DIR / "program" / source_digest[:16]
    if not (dest / "BUILT").exists():
        shutil.rmtree(dest, ignore_errors=True)
        for p in source_files(root):
            target = dest / p.relative_to(root)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(p, target)
        # the program's own build: compiles the replay kernel where it can
        for cmd in ([sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
                    [sys.executable, "-m", "compileall", "-q", "src"]):
            proc = subprocess.run(cmd, cwd=dest, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)}\n{proc.stdout}{proc.stderr}")
        (dest / "BUILT").write_text(source_digest + "\n")
    return dest / "src", source_digest


def git_commit(root):
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def spawn(spec, workdir, env, deadline):
    """Run one child to completion; return (speed reference just before it,
    monotonic start, its result)."""
    spec = dict(spec, result=str(workdir / f"child-{time.monotonic_ns()}.json"))
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    ref = speed.reference()
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                          env=env, stdout=sys.stderr, timeout=max(deadline - t_spawn, 1))
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    with open(spec["result"]) as fh:
        return ref, t_spawn, json.load(fh)


def check_pass(calls, recs, tag):
    """(failures {call@tag: reason}, digests {call id: digest}) for one pass."""
    instances = {}
    for c in calls:
        if c["instance"] not in instances:
            with open(c["instance"]) as fh:
                instances[c["instance"]] = json.load(fh)
    n_tests = oracles.mc_tests(calls, instances)
    specs = {c["id"]: c for c in calls}
    failures, digests = {}, {}
    for rec in recs:
        c = specs[rec["id"]]
        try:
            with open(rec["out"]) as fh:
                out = json.load(fh)
        except (OSError, json.JSONDecodeError):
            out = None
        reason = oracles.check(c, rec["rc"], out, instances[c["instance"]], n_tests)
        if reason is not None:
            failures[f"{rec['id']}@{tag}"] = reason
        digests[rec["id"]] = oracles.digest(out) if out is not None else None
    return failures, digests


def check_passes(calls, passes, tags):
    """Check every pass; a pass whose outputs differ from the first fails too."""
    failures, first = {}, None
    for recs, tag in zip(passes, tags):
        fails, digests = check_pass(calls, recs, tag)
        failures.update(fails)
        first = first or digests
        for cid, d in digests.items():
            if d != first[cid]:
                failures.setdefault(f"{cid}@{tag}", "output differs from the first pass")
    return failures, first


def layer_metrics(layers, expected, untraced_s, overhead_frac):
    """Per-layer metric values from aggregated spans; raises on a missing span."""
    missing = [name for name in expected if layers.get(name, {}).get("calls", 0) == 0]
    if missing:
        raise BenchError(f"traced run recorded no calls for {missing}")
    values = {}
    for name, unit in PER_LAYER:
        if name == "replays_per_s":
            replays = layers.get("replay.kernel", {}).get("replay.kernel.replays", 0)
            values[name] = replays / untraced_s
        elif name == "trace.overhead_frac":
            values[name] = overhead_frac
        else:
            span, _, field = name.rpartition(".")
            if field in ("s", "self_s", "calls"):
                values[name] = layers.get(span, {}).get(field, 0)
            else:
                values[name] = next((rec[name] for rec in layers.values() if name in rec), 0)
    return values


def run(args, root):
    t_begin = time.monotonic()
    speed.pin_to_one_cpu()
    program, source_digest = build(root)
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = dict(os.environ, PYTHONPATH=str(program), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path.insert(0, str(program))
    workdir = root / BUILD_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "workdir": str(workdir), "trace": bool(args.trace), "probe": True}
        setups = []     # (set-up seconds, speed reference just before)
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                ref, t_spawn, res = spawn(spec, workdir, env, deadline)
                setups.append((res["setup_done"] - t_spawn, ref))
        ref, t_spawn, res = spawn(dict(spec, probe=False), workdir, env, deadline)
        setups.append((res["setup_done"] - t_spawn, ref))

        calls, passes = res["calls"], res["passes"]
        tags = ["u0", "traced", "u1"] if args.trace else [f"p{i}" for i in range(len(passes))]
        failures, digests = check_passes(calls, passes, tags)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pass_s = [sum(r["s"] for r in recs) for recs in passes]
    call_s = {c["id"]: [recs[i]["s"] for recs in passes] for i, c in enumerate(calls)}
    if args.trace:
        # pass times at the reference's nominal speed, as wall_s is taken
        norm_s = [speed.NOMINAL_S * sum(r["s"] / r["ref"] for r in recs) for recs in passes]
        untraced_s = min(norm_s[0], norm_s[2])
        values = layer_metrics(res["layers"], workloads.WORKLOADS[args.workload].expected,
                               untraced_s, norm_s[1] / untraced_s - 1.0)
        units = dict(PER_LAYER)
    else:
        values = {"setup_s": speed.NOMINAL_S * statistics.median(s / r for s, r in setups),
                  "wall_s": speed.NOMINAL_S * sum(
                      statistics.median(recs[i]["s"] / recs[i]["ref"] for recs in passes)
                      for i in range(len(calls))),
                  "peak_rss_mb": res["peak_rss_mb"]}
        units = dict(END_TO_END)
    attempted = sum(len(recs) for recs in passes)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "calls": len(calls), "passes": len(passes),
        "env": dict(res["env"], git_commit=git_commit(root), source_digest=source_digest),
        "pass_s": pass_s, "call_s": call_s,
        "ref_s": [[r["ref"] for r in recs] for recs in passes],
        "wall_raw_s": sum(statistics.median(v) for v in call_s.values()),
        "setup_samples": setups,
        "digest": hashlib.sha256("".join(str(digests[c["id"]]) for c in calls)
                                 .encode()).hexdigest(),
        "call_digests": digests,
        "failures": failures, "failed_frac": len(failures) / attempted,
        "run_s": time.monotonic() - t_begin,
    }
    if args.trace:
        report["layers"] = res["layers"]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        run(args, Path.cwd().resolve())
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
