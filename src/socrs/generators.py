"""Named instance generators, closed-form selectability constants, barrier
computations, and the selectability estimation driver.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import replay as replay_mod
from .counting import CountingOracle
from .dist import total_variation
from .env import (_vertex_loads, matching_environment, hypergraph_matching_environment,
                  k_uniform_environment, matroid_environment, Matroid)
from .maxent import solve_maxent, BoundaryDivergenceError
from .policy import OrderStrategy, exact_output_law
from .sampling import RngStream


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------

def _poisson_cdf_parts(lam, k):
    """(P[Q < k], P[Q <= k]) for Q ~ Poisson(lam), stable term recurrence."""
    term = math.exp(-lam)
    lt = 0.0
    for j in range(k):
        lt += term
        term *= lam / (j + 1)
    return lt, lt + term


def alpha_k(k, b=1.0):
    """P[Q < k | Q <= k] for Q ~ Poisson(b k)."""
    lt, le = _poisson_cdf_parts(b * k, k)
    return lt / le


def alpha_bipartite(b=1.0):
    """(2b + 1 - sqrt(4b + 1)) / (2 b^2); equals (3 - sqrt 5)/2 at b=1."""
    return (2 * b + 1 - math.sqrt(4 * b + 1)) / (2 * b * b)


def alpha_hypergraph(L, b=1.0):
    return 1.0 / (1.0 + b * L)


def alpha_rayleigh(b=1.0):
    return 1.0 / (1.0 + b)


def greedy_gamma(k):
    """gamma = 1 - [sqrt(k/2)]/k with [.] the nearest integer."""
    r = math.sqrt(k / 2.0)
    nearest = math.floor(r + 0.5)
    return 1.0 - nearest / k


def greedy_bound(k):
    return 1.0 - math.sqrt(2.0 / (k + 1))


def alpha_table(kind, **params):
    """Closed-form selectability constants by family name."""
    if kind == "k-uniform":
        return alpha_k(params["k"], params.get("b", 1.0))
    if kind == "bipartite":
        return alpha_bipartite(params.get("b", 1.0))
    if kind == "hypergraph":
        return alpha_hypergraph(params["L"], params.get("b", 1.0))
    if kind == "rayleigh":
        return alpha_rayleigh(params.get("b", 1.0))
    if kind == "matching":
        return 1.0 / 3.0
    if kind == "greedy-discard":
        return greedy_bound(params["k"])
    raise ValueError(f"unknown constant family {kind}")


def bipartite_impossibility_bound(eps):
    """The smaller root of (1-eps) a^2 - (3-2 eps) a + 1 = 0, i.e. the fixed
    point of a = (1 - a(1-eps)) / (2 - eps - a(1-eps))."""
    A, B, C = 1 - eps, -(3 - 2 * eps), 1
    return (-B - math.sqrt(B * B - 4 * A * C)) / (2 * A)


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------

def gen_instance(name, seed=0, **params):
    """Deterministic named instance documents: (env, x, doc)."""
    rng = RngStream(seed, stream=7)
    if name == "bipartite-impossibility":
        n = params["n"]
        eps = 1.0 / n
        # center a = 0, u_i = 1..n, v_i = n+1..2n; edges e_i = (a, v_i) then
        # g_i = (u_i, v_i)
        edges = [(0, n + 1 + i) for i in range(n)] + [(1 + i, n + 1 + i) for i in range(n)]
        sides = [0] * (n + 1) + [1] * n
        env = matching_environment(edges, sides=sides)
        x = [eps] * n + [1.0 - eps] * n
        return env, x, {"kind": "bipartite-matching", "edges": [list(e) for e in edges],
                        "sides": sides, "x": x, "name": name, "n": n}
    if name == "K4-barrier":
        eps = params["eps"]
        # outer 4-cycle then the two diagonals
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]
        env = matching_environment(edges)
        x = [(1 - eps) / 2] * 4 + [eps] * 2
        return env, x, {"kind": "general-matching", "edges": [list(e) for e in edges],
                        "x": x, "name": name, "eps": eps}
    if name == "hat-graph":
        n = params["n"]
        with_terminal = params.get("terminal_edge", False)
        # u = 0, v = 1, midpoints 2..n+1
        edges = []
        for i in range(n):
            edges.append((0, 2 + i))
            edges.append((2 + i, 1))
        if with_terminal:
            edges.append((0, 1))
        m = Matroid.graphic(n + 2, edges)
        env = matroid_environment(m)
        x = params.get("x", [0.5] * len(edges))
        return env, list(x), {"kind": "matroid", "matroid": {"variant": "graphic",
                              "n_vertices": n + 2, "edges": [list(e) for e in edges]},
                              "x": list(x), "name": name, "n": n}
    if name == "symmetric-uniform":
        n, k = params["n"], params["k"]
        env = k_uniform_environment(n, k)
        x = [k / n] * n
        return env, x, {"kind": "k-uniform", "n": n, "k": k, "x": x, "name": name}
    if name == "random-graph" or name == "random-bipartite":
        n_vertices = params.get("n_vertices", 6)
        n_edges = params.get("n_edges", 6)
        bipartite = name == "random-bipartite"
        sides = None
        if bipartite:
            nl = n_vertices // 2
            sides = [0] * nl + [1] * (n_vertices - nl)
        edges, seen = [], set()
        guard = 0
        while len(edges) < n_edges and guard < 10000:
            guard += 1
            u = int(rng.uniform() * n_vertices) % n_vertices
            v = int(rng.uniform() * n_vertices) % n_vertices
            if u == v or (u, v) in seen or (v, u) in seen:
                continue
            if bipartite and sides[u] == sides[v]:
                continue
            seen.add((u, v))
            edges.append((min(u, v), max(u, v)))
        if len(edges) < n_edges:
            raise ValueError(f"{name} found {len(edges)} distinct edges on {n_vertices} "
                             f"vertices, not the {n_edges} asked for")
        env = matching_environment(edges, n_vertices=n_vertices, sides=sides)
        x = _scaled_random_x(rng, env)
        doc = {"kind": env.kind, "edges": [list(e) for e in edges], "x": x, "name": name}
        if sides is not None:
            doc["sides"] = sides
        return env, x, doc
    if name == "random-hypergraph":
        n_vertices = params.get("n_vertices", 9)
        n_edges = params.get("n_edges", 5)
        L = params.get("L", 3)
        edges = []
        for _ in range(n_edges):
            size = 2 + int(rng.uniform() * (L - 1)) % max(L - 1, 1)
            verts = set()
            while len(verts) < size:
                verts.add(int(rng.uniform() * n_vertices) % n_vertices)
            edges.append(tuple(sorted(verts)))
        env = hypergraph_matching_environment(edges)
        x = _scaled_random_x(rng, env)
        return env, x, {"kind": "hypergraph-matching",
                        "edges": [list(e) for e in edges], "x": x, "name": name}
    if name == "random-graphic-matroid":
        n_vertices = params.get("n_vertices", 5)
        edges = []
        for u in range(1, n_vertices):
            edges.append((int(rng.uniform() * u) % u, u))   # spanning-connected
        n_edges = params.get("n_edges", n_vertices)
        extra = n_edges - len(edges)
        seen = set(edges)
        guard = 0
        while extra > 0 and guard < 10000:
            guard += 1
            u = int(rng.uniform() * n_vertices) % n_vertices
            v = int(rng.uniform() * n_vertices) % n_vertices
            if u == v or (min(u, v), max(u, v)) in seen:
                continue
            seen.add((min(u, v), max(u, v)))
            edges.append((min(u, v), max(u, v)))
            extra -= 1
        if len(edges) < n_edges:
            raise ValueError(f"{name} found {len(edges)} distinct edges on {n_vertices} "
                             f"vertices, not the {n_edges} asked for")
        m = Matroid.graphic(n_vertices, edges)
        env = matroid_environment(m)
        x = _scaled_random_x(rng, env)
        return env, x, {"kind": "matroid", "matroid": {"variant": "graphic",
                        "n_vertices": n_vertices, "edges": [list(e) for e in edges]},
                        "x": x, "name": name}
    raise ValueError(f"unknown generator {name}")


def _scaled_random_x(rng, env):
    """Random activations scaled strictly inside the load constraints."""
    n = env.n
    raw = 0.1 + 0.9 * np.asarray(rng.uniform(n))
    if env.kind in ("general-matching", "bipartite-matching", "hypergraph-matching"):
        scale = 0.9 / max(max(_vertex_loads(env, raw)), 1.0)
    elif env.kind == "k-uniform":
        scale = 0.9 * env.meta["k"] / raw.sum()
    else:
        m = env.meta["matroid"]
        # the nonempty subsets: masks >= 1
        scale = 0.9 / float((m.subset_sums(raw)[1:] / m.rank_table()[1:]).max())
    x = np.minimum(raw * min(scale, 0.95 / raw.max()), 0.95)
    return [float(v) for v in x]


# ---------------------------------------------------------------------------
# barrier computations
# ---------------------------------------------------------------------------

def hat_graph_disconnection(n):
    """P[u, v disconnected] under the uniform distribution on forests of the
    n-hat graph, by exhaustive forest enumeration.  Equals 3/(n+3).

    The forests are those of the graph with its terminal edge t = (u, v) that
    avoid t, and a forest S joins u and v exactly when t does not raise its rank."""
    env, _, _ = gen_instance("hat-graph", n=n, terminal_edge=True)
    m, t = env.meta["matroid"], 2 * n
    forests = [S for S in env.enumerate_feasible() if t not in S]
    bad = sum(1 for S in forests if m.rank(S | {t}) > len(S))
    return Fraction(bad, len(forests))


def k4_alpha_limit(eps):
    """Largest alpha whose K4 max-entropy witness obeys the diagonal cap
    rho_d <= eps, by bisection to width 1e-10."""
    env, x, _ = gen_instance("K4-barrier", eps=eps)
    oracle = CountingOracle("enumeration", env=env)
    x = np.asarray(x)

    def diag_rho(alpha):
        gibbs = solve_maxent(env, oracle, alpha * x, tol=1e-10)
        w_d = gibbs.w[4]   # the two diagonals are symmetric
        return w_d / (1 + w_d)

    lo, hi = 0.0, 1.0
    # find a feasible lower start and an infeasible upper bracket
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        try:
            r = diag_rho(mid)
        except BoundaryDivergenceError:
            hi = mid
            continue
        if r <= eps:
            lo = mid
        else:
            hi = mid
    return lo


def run_barriers():
    """Hat-graph disconnection probabilities and the K4 max-entropy barrier."""
    report = {"hat": [], "k4": []}
    for n in range(1, 7):
        p = hat_graph_disconnection(n)
        report["hat"].append({"n": n, "probability": str(p),
                              "formula": str(Fraction(3, n + 3)),
                              "match": p == Fraction(3, n + 3)})
    limit = (math.sqrt(3) - 1) / 2
    for eps in (0.1, 0.01, 0.001):
        a = k4_alpha_limit(eps)
        report["k4"].append({"eps": eps, "alpha": a, "limit": limit,
                             "gap": abs(a - limit)})
    report["k4_limit_ok"] = report["k4"][-1]["gap"] < 5e-3
    report["hat_ok"] = all(r["match"] for r in report["hat"])
    return report


# ---------------------------------------------------------------------------
# selectability estimation
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    seed: int = 0
    samples: int = 100_000
    alpha_target: float = None
    mode: str = "mc"            # "exact" | "mc"

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


@dataclass
class ResultRecord:
    instance_id: str
    alpha_target: float
    alpha_achieved: float
    per_element: list = field(default_factory=list)
    # filled by one mode each, and in the document only when filled:
    # stationarity_tv by "exact", the Wilson intervals by "mc"
    stationarity_tv: list = None
    runtime: float = 0.0
    intervals: list = None
    accepts: list = field(default_factory=list)    # MC counts for the exit
    n_rep: int = 0                                 # gate; not in the document

    def to_doc(self):
        doc = {
            "instance_id": self.instance_id,
            "alpha_target": self.alpha_target,
            "alpha_achieved": self.alpha_achieved,
            "per_element": self.per_element,
        }
        if self.stationarity_tv is not None:
            doc["stationarity_tv"] = self.stationarity_tv
        if self.intervals is not None:
            doc["intervals"] = self.intervals
        doc["runtime"] = self.runtime
        return doc


def wilson_interval(successes, n, z=1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(center - half, 0.0), min(center + half, 1.0))


def estimate_selectability(dist, x, config):
    """Estimate min_e P[e in S]/x_e for the simulate-then-replace policy.

    mode "exact" expands the output law over a fixed arrival order; otherwise
    `config.samples` replays with uniformly random orders, drawn by `replay`
    one block at a time, give the ratios and their Wilson intervals.
    """
    t0 = time.time()
    env = dist.env
    n = env.n
    if config.mode == "exact":
        table = dist.to_explicit()
        law, acc = exact_output_law(table, x, OrderStrategy.fixed(list(range(n))))
        ratios = [float(acc[e]) / float(x[e]) for e in range(n)]
        rec = ResultRecord("instance", config.alpha_target, min(ratios),
                           per_element=ratios, stationarity_tv=[total_variation(law, table)],
                           runtime=time.time() - t0)
        return rec
    # random orders drawn per replay block: memory stays one block, not (samples, n)
    rng = RngStream(config.seed, stream=1)
    acc, outcomes, n_rep = replay_mod.replay(dist, x, None, rng, n_rep=config.samples)
    ratios, intervals = [], []
    for e in range(n):
        ratios.append(acc[e] / n_rep / float(x[e]))
        lo, hi = wilson_interval(int(acc[e]), n_rep)
        intervals.append((lo / float(x[e]), hi / float(x[e])))
    rec = ResultRecord("instance", config.alpha_target, min(ratios),
                       per_element=ratios, intervals=intervals,
                       runtime=time.time() - t0, accepts=list(acc), n_rep=n_rep)
    return rec
