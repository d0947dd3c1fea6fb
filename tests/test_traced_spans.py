"""The benchmark's traced spans stay reachable from the CLI.

A refactor that moves the last caller of a traced function fails here, in
the unit tests, and not only in a traced benchmark run.  The benchmark's
tracer and workload table are read from `perfbench/`, unchanged.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import tracing      # noqa: E402
import workloads    # noqa: E402

from socrs import cli, generators   # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_records_its_spans(name, tmp_path):
    # one run's instances and calls at seed 1, as the benchmark's child makes
    # them, all traced: every call exits 0 and every expected span records
    tracer = tracing.Tracer()
    tracer.install()
    try:
        calls = workloads.plan(name, 1, str(tmp_path), generators.gen_instance)
        rcs = [cli.main(c["argv"] + ["--out", str(tmp_path / f"{c['id']}.out.json"),
                                     c["instance"]]) for c in calls]
    finally:
        tracer.uninstall()
    assert rcs == [0] * len(calls)
    assert set(workloads.WORKLOADS[name].expected) - {sp.name for sp in tracer.spans} == set()
