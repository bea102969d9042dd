"""Correctness gate: every job output is checked against an independent
reference, outside the timed region.

``attach`` computes the references a job needs once, after its first run
and outside its timing; ``check`` compares one output with them and returns
None or the reason the job failed.
"""

from __future__ import annotations

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from inputs import arrays, form_matrix

EIG_RTOL = 1e-9
RESIDUAL_TOL = 1e-8
LAMBDA_RTOL = 1e-9


def load_oracles(root: Path):
    """tests/oracles.py of the checkout, imported read-only."""
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def removed_node(doc: dict, x: str) -> dict:
    """Expected result of node removal: neighbours absorb the lost weight."""
    kappa = {vx["id"]: float(vx.get("kappa", 0.0)) for vx in doc["vertices"]}
    for e in doc["edges"]:
        if x in (e["u"], e["v"]):
            y = e["v"] if e["u"] == x else e["u"]
            kappa[y] += e["w"]
    return {
        "vertices": [{"id": vx["id"], "mu": vx["mu"], "kappa": kappa[vx["id"]]}
                     for vx in doc["vertices"] if vx["id"] != x],
        "edges": [e for e in doc["edges"] if x not in (e["u"], e["v"])],
    }


def pencil_eigenvalues(doc: dict) -> np.ndarray:
    _, mu, *_ = arrays(doc)
    dinv = 1.0 / np.sqrt(mu)
    return np.linalg.eigvalsh(dinv[:, None] * form_matrix(doc) * dinv[None, :])


def _signed(doc: dict, flip: bool, sgspec_graph):
    g = sgspec_graph.parse_graph(json.dumps(doc))
    if not flip:
        return g
    return sgspec_graph.SignedGraph(ids=g.ids, mu=g.mu, kappa=g.kappa,
                                    edges=tuple((u, v, w, -s) for u, v, w, s in g.edges))


class Gate:
    def __init__(self, oracles, sgspec_graph, sgspec_operators):
        self.oracles = oracles
        self.graph_mod = sgspec_graph
        self.operators = sgspec_operators
        self.lambda_1: dict[str, str] = {}
        self._cache: dict = {}

    # -- references, computed once per job -------------------------------

    def attach(self, job) -> None:
        ref = job.ref
        if job.kind == "spectrum":
            doc = ref["doc"] if "removed" not in ref else removed_node(ref["doc"], ref["removed"])
            key = ("eig", id(ref["doc"]), ref.get("removed"))
            if key not in self._cache:
                ids, mu, *_ = arrays(doc)
                self._cache[key] = (pencil_eigenvalues(doc), form_matrix(doc), mu, ids)
            ref["eig"], ref["lmat"], ref["mu"], ref["ids"] = self._cache[key]
        elif job.kind == "nodal":
            counts = []
            for flip in (False, True):
                g = _signed(ref["doc"], flip, self.graph_mod)
                counts += [self.oracles.strong_count_oracle(g, ref["f"]),
                           self.oracles.weak_count_oracle(g, ref["f"])]
            ref["counts"] = counts
        elif job.kind == "cheeger" and ref.get("oracle"):
            g = self.graph_mod.parse_graph(json.dumps(ref["doc"]))
            ref["value"] = str(self.oracles.cheeger_h1_oracle(g))
        elif job.kind == "transform":
            ref["expected"] = removed_node(ref["doc"], ref["node"])
        elif job.kind == "repro":
            g = self.graph_mod.parse_graph(json.dumps(ref["doc"]))
            ref["exact"] = self.operators.one_lap_lambda_range(g, np.array(ref["pattern"], float))

    # -- comparison, after each job --------------------------------------

    def check(self, job, code: int, out: str) -> str | None:
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            return f"exit {code}, output is not JSON"
        if code != 0:
            return f"exit {code}"
        try:
            return getattr(self, "_" + job.kind)(job.ref, doc)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            return f"output does not have the expected shape: {exc!r}"

    def _onelap(self, ref, doc):
        want = ref["onelap"]
        for key in ("eigenvalues", "lambda_1", "lambda_2", "smallest_positive"):
            if doc[key] != want[key]:
                return f"{key} differs from the reference"
        got = sorted([p["lambda"], p["lambda_hi"], [p["f"][v] for v in ref["ids"]]]
                     for p in doc["pairs"])
        if got != want["pairs"]:
            return "eigenpairs differ from the reference"
        self.lambda_1[ref["graph"]] = doc["lambda_1"]
        return None

    def _repro(self, ref, doc):
        if ref["exact"] != [(ref["lambda"], ref["lambda"])]:
            return f"one_lap_lambda_range gives {ref['exact']}, not a + b + c"
        for p in doc["pairs"]:
            f = [p["f"][vx["id"]] for vx in ref["doc"]["vertices"]]
            if f == ref["pattern"]:
                if Fraction(p["lambda"]) == ref["lambda"] == Fraction(p["lambda_hi"]):
                    return None
                return "wrong lambda for the repro pattern"
        return "pattern missing"

    def _cheeger(self, ref, doc):
        if doc["value"] != ref["value"] or not doc["exact"]:
            return "h_k differs from the reference"
        if ref.get("equals_lambda_1") and self.lambda_1.get(ref["graph"], doc["value"]) != doc["value"]:
            return "h_1 differs from lambda_1 of onelap on the same graph"
        values = [_beta(ref["doc"], v1, v2) for v1, v2 in doc["pairs"]]
        if [str(v) for v in values] != doc["pair_values"] or str(max(values)) != doc["value"]:
            return "pair values do not match the returned sub-bipartitions"
        return None

    def _extremal(self, ref, doc):
        p = ref["p"]
        for which in ("min", "max"):
            lam = doc["lambda_" + which]
            res = _p_residual(ref["doc"], p, doc["f_" + which], lam)
            if not res <= RESIDUAL_TOL:
                return f"lambda_{which} residual {res:.3g} above {RESIDUAL_TOL}"
        lo, hi = ref["lambda"]
        if doc["lambda_min"] > lo + LAMBDA_RTOL * max(1.0, abs(lo)):
            return "lambda_min worse than the reference"
        if doc["lambda_max"] < hi - LAMBDA_RTOL * max(1.0, abs(hi)):
            return "lambda_max worse than the reference"
        return None

    def _spectrum(self, ref, doc):
        vals = np.array(doc["eigenvalues"])
        eig = ref["eig"]
        scale = max(1.0, float(np.max(np.abs(eig))))
        if vals.shape != eig.shape or np.max(np.abs(vals - eig)) > EIG_RTOL * scale:
            return "eigenvalues differ from numpy eigh of the pencil"
        vecs = np.array([doc["eigenvectors"][v] for v in ref["ids"]])
        resid = ref["lmat"] @ vecs - ref["mu"][:, None] * vecs * vals[None, :]
        if np.max(np.abs(resid)) > EIG_RTOL * scale * max(1.0, float(np.max(np.abs(vecs)))):
            return "eigenvector residual too large"
        return None

    def _nodal(self, ref, doc):
        got = [doc["strong"], doc["weak"], doc["dual_strong"], doc["dual_weak"]]
        if got != ref["counts"]:
            return f"counts {got} differ from the closure oracles {ref['counts']}"
        return None if doc["identity_ok"] else "count identity failed"

    def _transform(self, ref, doc):
        with open(ref["out"]) as fh:
            res = json.load(fh)
        if _canonical(res) != _canonical(ref["expected"]):
            return "surgery result differs from the expected graph"
        return None

    def _verify(self, ref, doc):
        if doc["ok"] is not True:
            return "suite report is not ok"
        if doc["aggregates"] != ref["aggregates"]:
            return "suite aggregates differ from the reference"
        return None


def _canonical(doc):
    return ([(vx["id"], vx["mu"], vx["kappa"]) for vx in doc["vertices"]],
            sorted((e["u"], e["v"], e["w"], e["sigma"]) for e in doc["edges"]))


def _beta(doc, v1, v2) -> Fraction:
    """Sub-bipartition functional in exact arithmetic, from the document."""
    v1, v2 = set(v1), set(v2)
    omega = v1 | v2
    num = Fraction(0)
    for e in doc["edges"]:
        u, v, w, s = e["u"], e["v"], Fraction(e["w"]), e["sigma"]
        same = (u in v1 and v in v1) or (u in v2 and v in v2)
        across = (u in v1 and v in v2) or (u in v2 and v in v1)
        if (s == 1 and across) or (s == -1 and same):
            num += 2 * w
        if (u in omega) != (v in omega):
            num += w
    vol = sum((Fraction(vx["mu"]) for vx in doc["vertices"] if vx["id"] in omega), Fraction(0))
    return num / vol


def _p_residual(doc, p: float, fvals: dict, lam: float) -> float:
    """Relative eigen-residual of (lam, f) for the signed p-Laplacian."""
    ids, mu, kappa, u, v, w, s = arrays(doc)
    f = np.array([fvals[x] for x in ids])

    def phi(t):
        return np.sign(t) * np.abs(t) ** (p - 1)

    t = phi(f[u] - s * f[v])
    lap = kappa * phi(f)
    np.add.at(lap, u, w * t)
    np.add.at(lap, v, -s * w * t)
    scale = 1.0 + abs(lam) * mu * np.abs(f) ** (p - 1)
    return float(np.max(np.abs(lap - lam * mu * phi(f)) / scale))
