"""The four workloads: pools, rounds of CLI jobs, and their input properties.

A workload is a sequence of *rounds*, cycled. Every round has the same job
mix (the workload's job list); the run executes whole rounds in a closed
loop. Inputs for ``exact-p1``, ``extremal-p`` and ``verify-suite`` come
from pools recorded in ``bench/refs/`` together with their reference
outputs: the seed picks ``exact-p1`` graphs from the pool and orders the
fixed inputs of the other two. Inputs for ``p2-nodal`` are drawn fresh from
the seed, because its references (numpy ``eigh`` and the closure oracles)
are cheap to compute at run time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from inputs import random_graph, screen_survivors

WORKLOADS = ("exact-p1", "extremal-p", "p2-nodal", "verify-suite")

REFS_DIR = Path(__file__).resolve().parent / "refs"

# Pool shapes, shared with record_refs.py.
ONELAP_N, ONELAP_M, ONELAP_TIERS, ONELAP_TIER_SIZE = 7, 10, 6, 8
CHEEGER_N, CHEEGER_M, CHEEGER_POOL = 10, 27, 16
EXTREMAL_N, EXTREMAL_M, EXTREMAL_POOL = 8, 17, 6  # per signature model
EXTREMAL_MODELS = ("uniform", "antibalanced")
EXTREMAL_ARGS = ("--restarts", "0")
NODAL_N, NODAL_M, NODAL_ROUNDS, NODAL_GRAPHS, NODAL_ZERO_SHARE = 60, 531, 20, 2, 0.4
VERIFY_NS, VERIFY_POOL = (4, 5, 6, 7), 2
VERIFY_CHECKS = (
    "nodal-bounds", "interlacing-edge", "interlacing-node", "count-identity",
    "surgery-preservation", "perron-frobenius", "cheeger-bounds", "onelap-h1",
    "weak-balanced-two",
)

# ROADMAP item 2: the float screen in one_lap_enumerate drops the pattern
# (1, 1, 0, 0, 0) although it is an exact eigenpair with lambda = a + b + c.
REPRO_K = 149451.3924888155
REPRO_PATTERN = (1, 1, 0, 0, 0)


@dataclass
class Job:
    kind: str
    argv: list[str]
    ref: dict = field(default_factory=dict)
    props: dict = field(default_factory=dict)  # measured input properties
    known_defect: str | None = None  # the gate's reason while the defect is open


def verify_config(n: int, k: int, check: str) -> dict:
    """Suite config of pool entry (n, k), restricted to one check."""
    models = ["uniform", "balanced", "antibalanced"]
    r = k % 3
    return {
        "seed": 100 * n + k, "trials": 1, "n_min": n, "n_max": n, "density": 0.6,
        "models": models[r:] + models[:r], "p_list": [2.0, 3.0], "mu_mode": "degree",
        "checks": [check], "tol": 1e-9,
    }


def repro_graph() -> dict:
    a, b, c = 0.1 * REPRO_K, 0.2 * REPRO_K, 0.3 * REPRO_K
    mu = {"x": 1.0, "y": 1.0, "z1": 1e9, "z2": 1e9, "z3": 1e9}
    edges = [("x", "z1", a), ("x", "z2", b), ("x", "z3", c),
             ("y", "z1", c), ("y", "z2", b), ("y", "z3", a)]
    return {
        "vertices": [{"id": vid, "mu": m, "kappa": 0.0} for vid, m in mu.items()],
        "edges": [{"u": p, "v": q, "w": w, "sigma": 1} for p, q, w in edges],
    }


def repro_lambda() -> Fraction:
    a, b, c = 0.1 * REPRO_K, 0.2 * REPRO_K, 0.3 * REPRO_K
    return Fraction(a) + Fraction(b) + Fraction(c)


def load_pool(workload: str) -> dict | None:
    path = REFS_DIR / f"{workload}.json"
    if workload == "p2-nodal":
        return None
    with open(path) as fh:
        return json.load(fh)


class _Writer:
    """Writes each distinct input document once into the work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.paths: dict[str, str] = {}

    def file(self, key: str, doc) -> str:
        if key not in self.paths:
            path = self.workdir / f"{key}.json"
            path.write_text(json.dumps(doc))
            self.paths[key] = str(path)
        return self.paths[key]


def make_rounds(workload: str, seed: int, pool: dict | None, workdir: Path) -> list[list[Job]]:
    """Generate and write the inputs; return the rounds of jobs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out = _Writer(workdir)
    return {
        "exact-p1": _exact_p1,
        "extremal-p": _extremal_p,
        "p2-nodal": _p2_nodal,
        "verify-suite": _verify_suite,
    }[workload](rng, pool, out)


def _exact_p1(rng, pool, out):
    # The onelap pool is sorted by how many sign patterns pass the screen
    # (which sets the LP work) and cut into tiers; every round takes one
    # graph per tier, so rounds of different seeds carry similar work.
    tiers = [rng.permutation(ONELAP_TIER_SIZE) for _ in range(ONELAP_TIERS)]
    cperm = rng.permutation(CHEEGER_POOL)
    onelap, cheeger = pool["onelap"], pool["cheeger"]
    per_round = CHEEGER_POOL // ONELAP_TIER_SIZE
    repro_doc = repro_graph()
    repro = out.file("repro", repro_doc)
    scanned, survivors = screen_survivors(repro_doc)
    repro_props = {"edges": len(repro_doc["edges"]), "scanned": scanned, "survivors": survivors}
    rounds = []
    for r in range(ONELAP_TIER_SIZE):
        jobs = []
        for t in range(ONELAP_TIERS):
            entry = onelap[t * ONELAP_TIER_SIZE + tiers[t][r]]
            path = out.file(f"onelap-{entry['id']}", entry["graph"])
            jobs.append(Job("onelap", ["onelap", "--graph", path, "--verify"],
                            {"graph": entry["id"], "onelap": entry["onelap"],
                             "ids": [vx["id"] for vx in entry["graph"]["vertices"]]},
                            entry["props"]))
            jobs.append(Job("cheeger", ["cheeger", "--graph", path, "--k", "1"],
                            {"graph": entry["id"], "doc": entry["graph"], "value": entry["h1"],
                             "equals_lambda_1": True}, {"edges": ONELAP_M}))
            if t < per_round:
                c = cheeger[cperm[per_round * r + t]]
                cpath = out.file(f"cheeger-{c['id']}", c["graph"])
                for k in ("1", "2"):
                    jobs.append(Job("cheeger", ["cheeger", "--graph", cpath, "--k", k],
                                    {"graph": c["id"], "doc": c["graph"], "value": c["h" + k]},
                                    {"edges": CHEEGER_M}))
        jobs.append(Job("cheeger", ["cheeger", "--graph", repro, "--k", "1"],
                        {"graph": "repro", "doc": repro_doc, "oracle": True},
                        {"edges": repro_props["edges"]}))
        jobs.append(Job("repro", ["onelap", "--graph", repro, "--verify"],
                        {"doc": repro_doc, "lambda": repro_lambda(),
                         "pattern": list(REPRO_PATTERN)}, repro_props,
                        known_defect="pattern missing"))
        rounds.append(jobs)
    return rounds


def _extremal_p(rng, pool, out):
    # A fixed set of graphs, seed-ordered: the cost of one p = 1.5 job varies
    # up to 7x between graphs, so the few that fit in one run cannot be drawn
    # per seed without the draw dominating the run-to-run spread. Half the
    # graphs run at both p, half only at p = 3, so p = 3 jobs are two thirds
    # of the jobs and the median falls well inside their cluster.
    jobs = []
    for m in EXTREMAL_MODELS:
        for i, entry in enumerate(e for e in pool["graphs"] if e["model"] == m):
            path = out.file(f"extremal-{entry['id']}", entry["graph"])
            for p in ("1.5", "3") if i < EXTREMAL_POOL // 2 else ("3",):
                jobs.append(Job("extremal",
                                ["extremal", "--graph", path, "--p", p, *EXTREMAL_ARGS],
                                {"doc": entry["graph"], "p": float(p),
                                 "lambda": entry["lambda"][p]}, {"edges": EXTREMAL_M}))
    return [[jobs[i] for i in rng.permutation(len(jobs))]]


def _p2_nodal(rng, pool, out):
    from inputs import form_matrix

    rounds = []
    n_zero = round(NODAL_ZERO_SHARE * NODAL_N)
    for r in range(NODAL_ROUNDS):
        jobs = []
        for j in range(NODAL_GRAPHS):
            key = f"nodal-{r}-{j}"
            doc = random_graph(rng, NODAL_N, NODAL_M, "uniform")
            path = out.file(key, doc)
            jobs.append(Job("spectrum", ["spectrum", "--graph", path], {"doc": doc},
                            {"edges": NODAL_M}))
            # Inputs for nodal: mu is unit, so the pencil's eigenvectors are
            # those of L itself.
            _, vecs = np.linalg.eigh(form_matrix(doc))
            ids = [vx["id"] for vx in doc["vertices"]]
            # One eigenvector per graph, plain and with zeros: with the two
            # spectra and the surgery that makes the zeroed nodal jobs the
            # middle fifth of the latencies, so the median sits inside them.
            for k in rng.choice(NODAL_N, size=1):
                f = vecs[:, k].copy()
                fz = f.copy()
                fz[rng.choice(NODAL_N, size=n_zero, replace=False)] = 0.0
                for tag, vals in (("plain", f), ("zeroed", fz)):
                    fpath = out.file(f"{key}-f{k}-{tag}",
                                     {"values": {vid: float(x) for vid, x in zip(ids, vals)}})
                    jobs.append(Job("nodal", ["nodal", "--graph", path, "--function", fpath,
                                              "--dual"], {"doc": doc, "f": vals},
                                    {"edges": NODAL_M, "zero_share": float(np.mean(vals == 0))}))
            x = ids[int(rng.integers(NODAL_N))]
            tpath = str(out.workdir / f"{key}-minus-{x}.json")
            jobs.append(Job("transform", ["transform", "--graph", path, "--remove-node", x,
                                          "-o", tpath], {"doc": doc, "node": x, "out": tpath},
                            {"edges": NODAL_M}))
            jobs.append(Job("spectrum", ["spectrum", "--graph", tpath],
                            {"doc": doc, "removed": x}))
        rounds.append(jobs)
    return rounds


def _verify_suite(rng, pool, out):
    # A fixed set of suite configs (ROADMAP item 1 asks for a fixed verify
    # config): the seed only orders them. Their cost varies several-fold
    # from config to config, so a seeded draw of the few configs that fit
    # in one run would make the run-to-run spread exceed any useful bound.
    entries = pool["configs"]
    jobs = []
    for i in rng.permutation(len(entries)):
        entry = entries[i]
        for check in VERIFY_CHECKS:
            path = out.file(f"verify-{entry['n']}-{entry['k']}-{check}",
                            verify_config(entry["n"], entry["k"], check))
            props = dict(entry["props"]) if check == "onelap-h1" else {
                "edges": entry["props"]["edges"]}
            jobs.append(Job("verify", ["verify", "--config", path],
                            {"aggregates": {check: entry["aggregates"][check]}}, props))
    return [jobs]
