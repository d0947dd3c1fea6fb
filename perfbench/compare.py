"""Summarise benchmark runs, or compare two sets of them.

    python3 perfbench/compare.py BASE.log [NEW.log]

A log holds the standard output of any number of ``run.py`` runs, each a
``{"report": ...}`` line followed by the result line.  For every workload and
metric it prints the median, the quartiles and the spread (interquartile
distance over the median).  Given two logs it adds the change of the median
against the metric's bound in BENCHMARK.json, flags a comparison whose two
sides ran a different replay kernel or rational type (either changes timings
by 10-100x), and checks that runs with the same workload and seed produced
identical output digests.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

# environment fields that change timings by themselves
ENV_KEYS = ("kernel", "gmpy2", "python", "numpy", "nproc")


def load(path):
    """[(report, result)] for every complete run in a log."""
    runs, report = [], None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        doc = json.loads(line)
        if "report" in doc:
            report = doc["report"]
        elif "metrics" in doc and report is not None:
            runs.append((report, doc))
            report = None
    return runs


def summarise(runs):
    """{(workload, trace): {metric: [values]}}"""
    out = defaultdict(lambda: defaultdict(list))
    for report, result in runs:
        for name, m in result["metrics"].items():
            out[report["workload"], report["trace"]][name].append(m["value"])
    return out


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def env_of(runs):
    return {tuple((k, r["env"].get(k)) for k in ENV_KEYS) for r, _ in runs}


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(p) for p in argv]
    bench = Path("BENCHMARK.json")
    meta = {m["name"]: m for m in json.loads(bench.read_text())["end_to_end"]} \
        if bench.exists() else {}
    status = 0
    if len(sides) == 2 and env_of(sides[0]) != env_of(sides[1]):
        print(f"WARNING: environments differ, timings are not comparable:\n"
              f"  base {sorted(env_of(sides[0]))}\n  new  {sorted(env_of(sides[1]))}")
        status = 1
    stats = [summarise(s) for s in sides]
    for key in sorted(stats[0]):
        workload, trace = key
        print(f"{workload} (trace {trace})")
        for name, base in sorted(stats[0][key].items()):
            med, q1, q3, sp = spread(base)
            line = f"  {name:40s} n={len(base):2d} median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={sp:.4f}"
            new = stats[1].get(key, {}).get(name) if len(stats) == 2 else None
            if new:
                nmed = spread(new)[0]
                change = (nmed - med) / med if med else float("nan")
                line += f" | new median={nmed:.6g} change={change:+.4f}"
                m = meta.get(name)
                if m:
                    worse = change if m["better"] == "lower" else -change
                    verdict = "REGRESSION" if worse > m["bound"] else "ok"
                    line += f" bound={m['bound']} {verdict}"
                    status |= verdict != "ok"
            print(line)
    digests = defaultdict(set)
    for runs in sides:
        for report, _ in runs:
            digests[report["workload"], report["seed"]].add(report["digest"])
    clash = sorted(k for k, v in digests.items() if len(v) > 1)
    for k in clash:
        print(f"DIGEST MISMATCH: workload {k[0]} seed {k[1]}")
    repeated = sum(1 for runs in sides for _ in runs) - len(digests)
    print(f"digests: {len(digests)} distinct (workload, seed) inputs, "
          f"{repeated} repeated runs, {len(clash)} mismatches")
    return status | bool(clash)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
