"""The benchmark's traced spans stay reachable from the CLI.

A refactor that moves the last caller of a traced function fails here, in
the unit tests, and not only in a traced benchmark run.  The benchmark's
tracer and workload table are read from `perfbench/`, unchanged.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import tracing      # noqa: E402
import workloads    # noqa: E402

from socrs import cli, generators   # noqa: E402


def test_build_rayleigh_records_every_rayleigh_witness_span(tmp_path):
    # the rayleigh-witness workload's instance; gen_instance runs outside the CLI
    doc = generators.gen_instance("hat-graph", seed=1, n=2, terminal_edge=True)[2]
    inst = tmp_path / "hat.json"
    inst.write_text(json.dumps(doc))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = cli.main(["build-rayleigh", "--seed", "1", "--out", str(tmp_path / "out.json"),
                       str(inst)])
    finally:
        tracer.uninstall()
    assert rc == 0
    expected = set(workloads.WORKLOADS["rayleigh-witness"].expected) - {"generators.gen_instance"}
    assert expected - {sp.name for sp in tracer.spans} == set()
