"""Instance documents, witness exports, and trace files.

Instances are JSON documents: {kind, vertices/edges or k or matrix, x[],
optional scale b, optional labels}.  Unknown fields are rejected.
"""

from __future__ import annotations

import csv
import json

from .env import (matching_environment, hypergraph_matching_environment,
                  k_uniform_environment, matroid_environment, Matroid,
                  ActivationVector, EnvironmentError_)

_COMMON = {"kind", "x", "scale", "labels", "name"}
_ALLOWED = {
    "general-matching": _COMMON | {"edges", "vertices", "n_vertices"},
    "bipartite-matching": _COMMON | {"edges", "vertices", "n_vertices", "sides"},
    "hypergraph-matching": _COMMON | {"edges"},
    "k-uniform": _COMMON | {"k", "n"},
    "matroid": _COMMON | {"matroid", "eps"},
}
# generator provenance fields tolerated on named instances
_EXTRA = {"n", "eps"}


def parse_instance(doc):
    """Build (env, x, scale) from an instance document (dict or JSON str/path)."""
    if isinstance(doc, str):
        if doc.lstrip().startswith("{"):
            doc = json.loads(doc)
        else:
            with open(doc) as fh:
                doc = json.load(fh)
    kind = doc.get("kind")
    if kind not in _ALLOWED:
        raise EnvironmentError_(f"unknown instance kind {kind!r}")
    unknown = set(doc) - _ALLOWED[kind] - _EXTRA
    if unknown:
        raise EnvironmentError_(f"unknown instance fields {sorted(unknown)}")

    labels = doc.get("labels")
    if kind in ("general-matching", "bipartite-matching"):
        edges = [tuple(e) for e in doc["edges"]]
        nv = doc.get("n_vertices") or doc.get("vertices")
        sides = doc.get("sides") if kind == "bipartite-matching" else None
        env = matching_environment(edges, n_vertices=nv, sides=sides)
    elif kind == "hypergraph-matching":
        env = hypergraph_matching_environment(doc["edges"])
    elif kind == "k-uniform":
        n = doc.get("n") or len(doc["x"])
        env = k_uniform_environment(n, doc["k"])
    else:
        m = doc["matroid"]
        variant = m["variant"]
        if variant == "uniform":
            matroid = Matroid.uniform(m["n"], m["k"])
        elif variant == "graphic":
            matroid = Matroid.graphic(m["n_vertices"], [tuple(e) for e in m["edges"]])
        elif variant == "linear":
            matroid = Matroid.linear(m["matrix"])
        elif variant == "explicit":
            matroid = Matroid.explicit(m["n"], [frozenset(s) for s in m["independent_sets"]])
        else:
            raise EnvironmentError_(f"unknown matroid variant {variant!r}")
        env = matroid_environment(matroid)

    x = ActivationVector(doc["x"]).x
    if len(x) != env.n:
        raise EnvironmentError_("x length does not match element count")
    scale = float(doc.get("scale", 1.0))
    if labels is not None and len(labels) != env.n:
        raise EnvironmentError_("labels length does not match element count")
    return env, x, scale


def write_trace(path, rows):
    """Delimited trace rows (element, renewal, active, accepted)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["element", "renewal", "active", "accepted"])
        for (e, r, a, acc) in rows:
            w.writerow([e, r, int(a), int(acc)])


def read_trace(path):
    rows = []
    with open(path) as fh:
        rd = csv.reader(fh)
        next(rd)
        for row in rd:
            rows.append((int(row[0]), int(row[1]), bool(int(row[2])), bool(int(row[3]))))
    return rows
