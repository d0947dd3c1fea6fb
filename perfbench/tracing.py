"""In-memory spans around the public functions of each ``socrs`` layer.

Tracing lives in the benchmark, not in the program: ``Tracer.install`` swaps
each traced function for a wrapper at every binding a ``socrs`` module holds
(``cli`` imports ``solve_maxent`` by name, ``generators`` imports
``exact_output_law``, ...), so a call is recorded whichever module makes it.
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _lp_rows(args, kwargs, out):
    return sum(len(_arg(args, kwargs, pos, name) or [])
               for pos, name in ((1, "A_ub"), (3, "A_eq")))


def _kernel_bytes(args, kwargs, out):
    # replay_batch(n, mass, support_masks, support_cdf, x, orders, u, ...)
    return int(args[1].nbytes + args[5].nbytes + args[6].nbytes)


# (owner module, attribute path, span name, {counter metric: fn(args, kwargs, result)})
# ``replay._kernel`` resolves to whichever replay kernel the import selected.
LAYERS = [
    ("socrs.cli", "main", "cli.main", {}),
    ("socrs.cli", "cmd_estimate", "cli.estimate", {}),
    ("socrs.cli", "cmd_lp_exact", "cli.lp-exact", {}),
    ("socrs.cli", "cmd_build_rayleigh", "cli.build-rayleigh", {}),
    ("socrs.cli", "cmd_verify_lp", "cli.verify-lp", {}),
    ("socrs.io", "parse_instance", "io.parse_instance", {}),
    ("socrs.generators", "gen_instance", "generators.gen_instance", {}),
    ("socrs.generators", "estimate_selectability", "generators.estimate_selectability", {}),
    ("socrs.replay", "replay", "replay.replay", {}),
    ("socrs.replay", "random_orders", "replay.random_orders", {}),
    ("socrs.replay", "_kernel.replay_batch", "replay.kernel", {
        "replay.kernel.replays": lambda a, k, out: int(a[5].shape[0]),
        "replay.kernel.bytes_in": _kernel_bytes}),
    ("socrs.sampling", "RngStream.uniform", "sampling.uniform", {
        "sampling.uniform.draws": lambda a, k, out: int(np.size(out))}),
    ("socrs.simplex", "solve_lp", "simplex.solve_lp", {
        "dist.lp.rows": _lp_rows,
        "dist.lp.cols": lambda a, k, out: len(a[0])}),
    ("socrs.dist", "solve_stationary_lp_exact", "dist.solve_stationary_lp_exact", {}),
    ("socrs.dist", "verify_stationary_lp", "dist.verify_stationary_lp", {}),
    ("socrs.dist", "GibbsDistribution.to_explicit", "dist.GibbsDistribution.to_explicit", {}),
    ("socrs.maxent", "solve_maxent", "maxent.solve_maxent", {}),
    ("socrs.maxent", "solve_kl_projection", "maxent.solve_kl_projection", {}),
    ("socrs.maxent", "dominating_base_point", "maxent.dominating_base_point", {}),
    ("socrs.maxent", "dual_value", "maxent.dual_value", {}),
    ("socrs.maxent", "dual_gradient", "maxent.dual_gradient", {}),
    ("socrs.counting", "CountingOracle.partition", "counting.partition", {}),
    ("socrs.counting", "CountingOracle.marginals", "counting.marginals", {}),
    ("socrs.counting", "CountingOracle.second_moments", "counting.second_moments", {}),
    ("socrs.counting", "BaseMeasure.mass", "counting.BaseMeasure.mass", {}),
    ("socrs.env", "Environment.enumerate_feasible", "env.enumerate_feasible", {
        "env.enumerate_feasible.sets": lambda a, k, out: len(out)}),
    ("socrs.env", "Matroid.bases", "env.Matroid.bases", {}),
    ("socrs.policy", "exact_output_law", "policy.exact_output_law", {
        "policy.exact_output_law.support": lambda a, k, out: len(out[0].support)}),
    ("socrs.rayleigh", "build_witness", "rayleigh.build_witness", {}),
    ("socrs.rayleigh", "rayleigh_check", "rayleigh.rayleigh_check", {}),
    ("socrs.rayleigh", "materialize", "rayleigh.materialize", {}),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "call", "nested", "counts")

    def __init__(self, name, start, end, parent, call, nested, counts):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent      # index into Tracer.spans, -1 for a root
        self.call = call          # id of the benchmark call the span belongs to
        self.nested = nested      # inside another span of the same name
        self.counts = counts


class Tracer:
    """Records one span per traced call; single-threaded by design."""

    def __init__(self):
        self.spans = []
        self.call = None
        self._stack = []
        self._depth = {}
        self._saved = []

    def wrap(self, name, fn, counters=None):
        counters = counters or {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            depth = self._depth.get(name, 0)
            self._depth[name] = depth + 1
            self._stack.append(idx)
            counts = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                counts = {m: f(args, kwargs, out) for m, f in counters.items()}
                return out
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._depth[name] = depth
                self.spans[idx] = Span(name, start, end, parent, self.call,
                                       depth > 0, counts)
        return traced

    def install(self, layers=LAYERS):
        """Wrap every layer at every ``socrs`` binding; raises if one is missing."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "socrs" or k.startswith("socrs.")) and m is not None]
        for modname, path, name, counters in layers:
            owner = sys.modules[modname]
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            fn = getattr(owner, attr)     # AttributeError: the layer went away
            wrapper = self.wrap(name, fn, counters)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            bindings = [(m, k) for m in modules for k, v in list(vars(m).items())
                        if v is fn]
            for m, k in bindings:
                self._patch(m, k, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def aggregate(spans, keep=lambda sp: True):
    """{span name: {"calls", "s", "self_s", counters...}} over the kept spans.

    ``s`` is inclusive time counted once per outermost span of a name;
    ``self_s`` subtracts the time covered by direct children.
    """
    out = {}
    for sp, own in zip(spans, self_times(spans)):
        if not keep(sp):
            continue
        rec = out.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        dur = sp.end - sp.start
        rec["calls"] += 1
        rec["self_s"] += own
        if not sp.nested:
            rec["s"] += dur
        for m, v in (sp.counts or {}).items():
            rec[m] = rec.get(m, 0) + v
    return out


def self_times(spans):
    """Per-span self time, in the order of ``spans``."""
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child_time[sp.parent] += sp.end - sp.start
    return [sp.end - sp.start - c for sp, c in zip(spans, child_time)]
