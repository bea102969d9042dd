"""Eigenpair-preserving graph surgeries and p = 2 interlacing checks.

Removing an edge whose endpoints carry nonzero values compensates the two
endpoint potentials so the given eigenpair survives; removing a vertex where
the function vanishes adds the lost edge weights to the neighbors'
potentials. Both directions interlace the p = 2 spectra. Each surgery checks
its f once, by ``graph._function``, and an interlacing step checks it
through the surgery it runs.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .graph import GraphError, SignedGraph, _exponent, _function, _tol, _vertices, induced_subgraph
from .operators import phi_p
from .spectra import spectrum_p2

__all__ = [
    "SurgeryResult",
    "remove_edge",
    "remove_node",
    "interlacing_check_p2",
]


@dataclass(frozen=True)
class SurgeryResult:
    graph: SignedGraph
    f: np.ndarray | None
    kind: str
    kappa_changes: dict[str, float]


def remove_edge(g: SignedGraph, p: float, f, e: tuple[int, int]) -> SurgeryResult:
    """Delete edge e compensating the endpoint potentials.

    With d = w * Phi_p(1 - sigma f(y0)/f(x0)) added to kappa at x0 (and
    symmetrically at y0), any eigenpair (lambda, f) of the original graph
    remains one of the result. Requires p > 1 and f nonzero at both
    endpoints.
    """
    _exponent(p, single_valued=True)
    f = _function(g, f)
    ends = sorted(_vertices(g, e))
    hit = [ed for ed in g.edges if [ed[0], ed[1]] == ends]
    if not hit:
        raise GraphError(f"edge {{{','.join(g.ids[x] for x in ends)}}} not in graph")
    x0, y0, w, s = hit[0]
    if f[x0] == 0.0 or f[y0] == 0.0:
        raise GraphError("remove_edge requires f nonzero at both endpoints")
    dx = w * phi_p(1.0 - s * f[y0] / f[x0], p)
    dy = w * phi_p(1.0 - s * f[x0] / f[y0], p)
    kappa = list(g.kappa)
    kappa[x0] = kappa[x0] + dx
    kappa[y0] = kappa[y0] + dy
    new_edges = tuple(ed for ed in g.edges if (ed[0], ed[1]) != (x0, y0))
    gq = SignedGraph(ids=g.ids, mu=g.mu, kappa=tuple(kappa), edges=new_edges)
    return SurgeryResult(
        graph=gq,
        f=f,
        kind="remove_edge",
        kappa_changes={g.ids[x0]: float(dx), g.ids[y0]: float(dy)},
    )


def remove_node(g: SignedGraph, x0: int, f=None) -> SurgeryResult:
    """Delete vertex x0, adding each lost edge weight to the neighbor's
    potential. If f is supplied it must vanish at x0; the restriction is
    then an eigenpair of the result whenever (lambda, f) was one."""
    (x0,) = _vertices(g, [x0])
    if f is not None:
        f = _function(g, f, nonzero=False)
        if f[x0] != 0.0:
            raise GraphError("remove_node transport requires f(x0) = 0")
    changes: dict[str, float] = {}
    kappa = list(g.kappa)
    for u, v, w, _ in g.edges:
        if x0 in (u, v):
            y = u + v - x0
            kappa[y] = kappa[y] + w
            changes[g.ids[y]] = changes.get(g.ids[y], 0.0) + w
    keep = [x for x in range(g.n) if x != x0]
    base = SignedGraph(ids=g.ids, mu=g.mu, kappa=tuple(kappa), edges=g.edges)
    gq = induced_subgraph(base, keep)
    f_new = f[keep] if f is not None else None
    return SurgeryResult(graph=gq, f=f_new, kind="remove_node", kappa_changes=changes)


def _bracket(lower, value, upper, tol: float) -> list[dict]:
    """Rows checking lower_k <= value_k <= upper_k (up to tol), k from 1."""
    return [{"k": k, "lower": lo, "value": v, "upper": hi,
             "pass": bool(lo <= v + tol and v <= hi + tol)}
            for k, (lo, v, hi) in enumerate(zip(lower, value, upper), 1)]


def interlacing_check_p2(g: SignedGraph, surgery_sequence, tol: float = 1e-9) -> dict:
    """Apply surgeries in order, checking the p = 2 spectral interlacing per step.

    Each step is a dict: {"kind": "remove_edge", "edge": (u, v), "f": ...}
    or {"kind": "remove_node", "node": x, "f": optional}. Edge steps check
    eta_{k-1} <= lambda_k <= eta_k when f(x0) sigma f(y0) < 0 and
    eta_k <= lambda_k <= eta_{k+1} when positive; node steps check
    lambda_k <= eta_k <= lambda_{k+1}. A trailing cumulative check
    lambda_k <= eta_k <= lambda_{k+m} is added when the sequence removes
    m nodes and nothing else. Each graph's spectrum is computed once: a
    step's eta is the next step's lambda. A step of another shape raises
    GraphError naming its index; so does a tol that is not a finite real
    >= 0.
    """
    _tol(tol)
    cur = g
    lam0 = lam = spectrum_p2(g).values
    steps = []
    nodes_removed = 0
    for i, step in enumerate(surgery_sequence):
        if not isinstance(step, Mapping):
            raise GraphError(f"surgery step {i} must be a dict, got {step!r}")
        kind = step.get("kind")
        if kind not in ("remove_edge", "remove_node"):
            raise GraphError(f"surgery step {i}: unknown surgery kind {kind!r}")
        missing = [k for k in (("edge", "f") if kind == "remove_edge" else ("node",))
                   if k not in step]
        if missing:
            raise GraphError(f"surgery step {i}: {kind} needs {' and '.join(missing)}")
        if kind == "remove_edge":
            # remove_edge checks f, and that it is nonzero at both ends
            res = remove_edge(cur, 2.0, step["f"], step["edge"])
            x0, y0 = sorted(step["edge"])
            sig = next(s for u, v, _, s in cur.edges if (u, v) == (x0, y0))
            prod = res.f[x0] * sig * res.f[y0]
            eta = spectrum_p2(res.graph).values
            # eta_{k+shift-1} <= lam_k <= eta_{k+shift}, padded with -inf, +inf
            shift = 0 if prod < 0 else 1
            padded = np.concatenate(([-np.inf], eta, [np.inf]))
            checks = _bracket(padded[shift:], lam, padded[shift + 1:], tol)
            case = "negative-product" if prod < 0 else "positive-product"
        else:
            nodes_removed += 1
            res = remove_node(cur, step["node"], step.get("f"))
            eta = spectrum_p2(res.graph).values
            checks = _bracket(lam, eta, lam[1:], tol)
            case = "node"
        steps.append({"kind": kind, "case": case, "checks": checks,
                      "all_pass": all(c["pass"] for c in checks)})
        cur, lam = res.graph, eta

    report = {"steps": steps, "all_pass": all(s["all_pass"] for s in steps)}
    if nodes_removed == len(steps) > 0 and cur.n > 0:
        m = nodes_removed
        cum = _bracket(lam0, lam, lam0[m:], tol)
        report["cumulative_node_check"] = {"m": m, "checks": cum,
                                           "all_pass": all(c["pass"] for c in cum)}
        report["all_pass"] = report["all_pass"] and report["cumulative_node_check"]["all_pass"]
    return report
