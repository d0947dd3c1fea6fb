"""One measured process: set up, then make the run's ``socrs`` CLI calls.

Started by ``run.py`` as ``python3 child.py SPEC.json`` with the built program
on ``PYTHONPATH``; writes its measurements to ``spec["result"]``.  A probe
(``spec["probe"]``) only sets up, so that set-up time is sampled several
times per run.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

import speed


def _run_pass(cli, calls, tag, tracer=None):
    """Make every call once, each between two runs of the speed reference;
    return [{"id", "rc", "s", "ref", "out"}], ``ref`` the mean of the two."""
    recs = []
    ref = speed.reference()
    for c in calls:
        out = os.path.join(os.path.dirname(c["instance"]), f"{c['id']}-{tag}.out.json")
        if tracer is not None:
            tracer.call = c["id"]
        t = time.perf_counter()
        rc = cli.main(c["argv"] + ["--out", out, c["instance"]])
        s = time.perf_counter() - t
        ref_after = speed.reference()
        recs.append({"id": c["id"], "rc": rc, "s": s, "ref": (ref + ref_after) / 2, "out": out})
        ref = ref_after
    return recs


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    import numpy
    import socrs
    from socrs import _rat, cli, generators, replay

    import tracing
    import workloads

    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
        tracer.call = "setup"
    calls = workloads.plan(spec["workload"], spec["seed"], spec["workdir"],
                           generators.gen_instance)
    result = {"setup_done": time.monotonic(), "calls": calls}
    if not spec["probe"]:
        if tracer is not None:
            # untraced, traced, untraced: the overhead is taken against the
            # faster untraced pass, so first-call warm-up does not hide it
            tracer.uninstall()
            result["passes"] = [_run_pass(cli, calls, "u0")]
            tracer.install()
            result["passes"].append(_run_pass(cli, calls, "traced", tracer))
            tracer.uninstall()
            result["passes"].append(_run_pass(cli, calls, "u1"))
            # set-up counts only through gen_instance, whose time moves setup_s
            result["layers"] = tracing.aggregate(
                tracer.spans,
                lambda sp: sp.call != "setup" or sp.name == "generators.gen_instance")
        else:
            # Repeat the calls while another pass of average length still
            # ends within --seconds, so that a run never overruns by a pass.
            start = time.perf_counter()
            passes = [_run_pass(cli, calls, "p0")]
            # Peak after one pass: later passes reuse freed heap differently
            # from a fresh process, and their number depends on the clock.
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            while True:
                spent = time.perf_counter() - start
                if spent * (len(passes) + 1) / len(passes) > spec["seconds"]:
                    break
                passes.append(_run_pass(cli, calls, f"p{len(passes)}"))
            result["passes"] = passes
        result["env"] = {"kernel": replay.KERNEL, "gmpy2": _rat.HAVE_GMPY2,
                         "python": platform.python_version(), "numpy": numpy.__version__,
                         "socrs": socrs.__version__, "nproc": os.cpu_count()}
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
