"""Seeded input generation owned by the benchmark.

Graphs are drawn with the benchmark's own numpy generator and handed to
sgspec only as JSON files, so a change to ``sgspec.harness`` cannot change
what the benchmark measures. Every graph has a fixed edge count (the work
of the exact solvers grows steeply with |E|, so fixing it keeps runs with
different seeds comparable), weights uniform in [0.5, 2] and a signature
that is either uniformly random or antibalanced (a switching of all-negative).
"""

from __future__ import annotations

from itertools import product

import numpy as np

MODELS = ("uniform", "antibalanced")


def random_graph(rng: np.random.Generator, n: int, m: int, model: str) -> dict:
    """Connected graph document with n vertices, exactly m edges, unit mu."""
    if model not in MODELS:
        raise ValueError(f"unknown signature model {model!r}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        chosen = sorted(pairs[k] for k in rng.choice(len(pairs), size=m, replace=False))
        if _connected(n, chosen):
            break
    w = rng.uniform(0.5, 2.0, size=m)
    if model == "uniform":
        sigma = rng.choice((-1, 1), size=m)
    else:
        tau = rng.choice((-1, 1), size=n)
        sigma = np.array([-tau[u] * tau[v] for u, v in chosen])
    ids = [f"v{i + 1}" for i in range(n)]
    return {
        "vertices": [{"id": vid, "mu": 1.0, "kappa": 0.0} for vid in ids],
        "edges": [
            {"u": ids[u], "v": ids[v], "w": float(w[k]), "sigma": int(sigma[k])}
            for k, (u, v) in enumerate(chosen)
        ],
    }


def _connected(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(x) for x in range(n)}) == 1


def arrays(doc: dict):
    """(ids, mu, kappa, u, v, w, sigma) numpy views of a graph document."""
    ids = [vx["id"] for vx in doc["vertices"]]
    index = {vid: i for i, vid in enumerate(ids)}
    mu = np.array([float(vx.get("mu", 1.0)) for vx in doc["vertices"]])
    kappa = np.array([float(vx.get("kappa", 0.0)) for vx in doc["vertices"]])
    edges = doc["edges"]
    u = np.array([index[e["u"]] for e in edges], dtype=int)
    v = np.array([index[e["v"]] for e in edges], dtype=int)
    w = np.array([float(e.get("w", 1.0)) for e in edges])
    s = np.array([int(e.get("sigma", 1)) for e in edges])
    return ids, mu, kappa, u, v, w, s


def form_matrix(doc: dict) -> np.ndarray:
    """p = 2 form matrix L of a graph document, built from its edge arrays."""
    ids, _, kappa, u, v, w, s = arrays(doc)
    n = len(ids)
    lmat = np.diag(kappa.copy())
    np.add.at(lmat, (u, u), w)
    np.add.at(lmat, (v, v), w)
    np.add.at(lmat, (u, v), -s * w)
    np.add.at(lmat, (v, u), -s * w)
    return lmat


def screen_survivors(doc: dict) -> tuple[int, int]:
    """(patterns scanned, patterns passing the per-vertex lambda screen).

    Mirrors the necessary condition that ``one_lap_enumerate`` applies before
    its exact LPs: every support vertex pins lambda to an interval of
    achievable flux, and the intervals must intersect. Counted over the
    {-1, 0, 1} patterns whose first nonzero entry is +1.
    """
    ids, mu, kappa, u, v, w, s = arrays(doc)
    n = len(ids)
    pats = np.array([p for p in product((0, 1, -1), repeat=n)
                     if next((t for t in p if t != 0), 0) == 1], dtype=float)
    lo = np.tile(kappa * 1.0, (len(pats), 1)) * pats
    hi = lo.copy()
    for a, b, wk, sk in zip(u, v, w, s):
        for x, y in ((a, b), (b, a)):
            d = pats[:, x] - sk * pats[:, y]
            lo[:, x] += np.where(d > 0, wk, -wk)
            hi[:, x] += np.where(d < 0, -wk, wk)
    sgn = np.sign(pats)
    with np.errstate(invalid="ignore"):
        a_lo = np.where(sgn != 0, np.minimum(lo * sgn, hi * sgn) / mu, -np.inf)
        a_hi = np.where(sgn != 0, np.maximum(lo * sgn, hi * sgn) / mu, np.inf)
    passed = a_lo.max(axis=1) <= a_hi.min(axis=1)
    return len(pats), int(passed.sum())
