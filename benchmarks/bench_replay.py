"""Benchmark the compiled replay kernel against the pure-Python fallback.

Both kernels consume the same uniforms in the same pattern, so their outputs
are bit-identical; the question is only throughput.  Run:

    python3 benchmarks/bench_replay.py [--reps 200000] [--edges 8]
"""

import argparse
import time

import numpy as np

from socrs import _replay_py
from socrs.dist import GibbsDistribution
from socrs.env import matching_environment
from socrs.replay import KERNEL, kernel_tables, random_orders
from socrs.sampling import RngStream

try:
    from socrs import _replay_cy
except ImportError:
    _replay_cy = None


def build_inputs(n_edges, n_rep, seed):
    edges = [(i, i + 1) for i in range(n_edges)]
    env = matching_environment(edges, n_edges + 1)
    dist = GibbsDistribution(env, [0.3] * n_edges)
    x = np.full(n_edges, 0.4)
    _, mass, masks, cdf = kernel_tables(dist)
    rng = RngStream(seed)
    orders = random_orders(n_edges, n_rep, rng)
    u = rng.uniform((n_rep, 2 * n_edges + 1))
    return n_edges, mass, masks, cdf, x, orders, u


def run(kernel, inputs):
    n = inputs[0]
    acc = np.zeros(n, dtype=np.int64)
    out = np.zeros(1 << n, dtype=np.int64)
    t0 = time.perf_counter()
    kernel.replay_batch(*inputs, acc, out)
    return time.perf_counter() - t0, acc, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=200_000)
    ap.add_argument("--edges", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    inputs = build_inputs(args.edges, args.reps, args.seed)
    print(f"instance: path with {args.edges} edges, {args.reps} replications")
    print(f"import-time kernel selection: {KERNEL}")

    t_py, acc_py, out_py = run(_replay_py, inputs)
    rate_py = args.reps / t_py
    print(f"pure python : {t_py:8.3f}s   {rate_py:12.0f} replays/s")

    if _replay_cy is None:
        print("compiled kernel not built; skipping comparison")
        return

    t_cy, acc_cy, out_cy = run(_replay_cy, inputs)
    rate_cy = args.reps / t_cy
    print(f"compiled    : {t_cy:8.3f}s   {rate_cy:12.0f} replays/s")
    print(f"speedup     : {t_py / t_cy:8.1f}x")
    identical = (np.array_equal(acc_py, acc_cy) and np.array_equal(out_py, out_cy))
    print(f"bit-identical outputs: {identical}")
    if not identical:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
