"""Traced mode: spans around the calls into each sgspec layer.

Each traced public function is wrapped and the wrapper is rebound in every
loaded ``sgspec`` module that refers to the original, so calls between
modules and within a module both pass through it. Spans (name, start, end,
parent span, job) are kept in flat arrays and written out when the run
ends; self time is a span's duration minus that of its direct children.
``phi_p`` is deliberately not wrapped: it runs ~10^5 times per extremal job.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

EXTREMAL_TOL = 1e-9  # extremal_p's default certification tolerance

TRACED = {
    "cli": ("main",),
    "graph": ("parse_graph", "parse_function", "serialize_graph", "balance_state",
              "components", "cycle_surplus", "induced_subgraph", "switch"),
    "simplex": ("solve_lp",),
    "operators": ("apply_p_laplacian", "rayleigh", "check_eigenpair",
                  "check_eigenpair_1lap", "one_lap_lambda_range"),
    "spectra": ("spectrum_p2", "form_matrix", "extremal_p", "one_lap_enumerate"),
    "cheeger": ("cheeger_k", "check_theorem41"),
    "nodal": ("weak_domains", "nodal_quantities", "bound_report"),
    "transforms": ("remove_node", "remove_edge", "interlacing_check_p2"),
    "harness": ("run_suite", "random_signed_graph"),
}


def _count_result(counts: Counter, name: str, res) -> None:
    if name == "simplex.solve_lp":
        counts["simplex.solve_lp.optimal"] += res.status == "optimal"
    elif name == "spectra.one_lap_enumerate":
        counts["spectra.one_lap.patterns_scanned"] += res.patterns_scanned
        counts["spectra.one_lap.patterns_solved"] += res.patterns_solved
        counts["spectra.one_lap.pairs"] += len(res.pairs)
    elif name == "spectra.extremal_p":
        counts["spectra.extremal_p.restarts"] += len(res.trace)
        counts["spectra.extremal_p.certified"] += sum(t["residual"] <= EXTREMAL_TOL
                                                      for t in res.trace)
    elif name == "cheeger.cheeger_k":
        counts["cheeger.subsets_scored"] += res.subsets_scored


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: list[Counter] = []
        self.current_job = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        nid = self.name_id[name]
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.current_job)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.start[idx] = t0
                stack.pop()
            _count_result(self.counts[self.current_job], name, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded sgspec module."""
        mods = [m for key, m in sys.modules.items()
                if m is not None and (key == "sgspec" or key.startswith("sgspec."))]
        for layer, funcs in TRACED.items():
            home = sys.modules[f"sgspec.{layer}"]
            for fname in funcs:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def begin_job(self) -> None:
        self.counts.append(Counter())
        self.current_job = len(self.counts) - 1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def per_layer(self, jobs: list[int]) -> dict[str, float]:
        """Per-layer metrics summed over the given traced jobs."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_t = dur - child
        sel = np.isin(a["job"], jobs)
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for nid, name in enumerate(self.names):
            m = sel & (a["name"] == nid)
            calls[name] = int(m.sum())
            total[name] = float(dur[m].sum())
            own[name] = float(self_t[m].sum())
        counts: Counter = Counter()
        for j in jobs:
            counts.update(self.counts[j])

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in ("simplex.solve_lp", "operators.one_lap_lambda_range",
                     "operators.check_eigenpair_1lap", "operators.apply_p_laplacian",
                     "operators.rayleigh", "spectra.extremal_p", "spectra.spectrum_p2",
                     "cheeger.cheeger_k", "nodal.nodal_quantities", "graph.parse_graph",
                     "harness.random_signed_graph"):
            out[f"{name}.calls"] = calls[name]
        for name in ("simplex.solve_lp", "operators.check_eigenpair_1lap",
                     "operators.apply_p_laplacian", "operators.rayleigh",
                     "operators.check_eigenpair", "spectra.form_matrix", "cheeger.cheeger_k",
                     "cheeger.check_theorem41", "nodal.nodal_quantities", "nodal.weak_domains",
                     "nodal.bound_report", "transforms.remove_node", "transforms.remove_edge",
                     "transforms.interlacing_check_p2", "graph.parse_graph",
                     "harness.random_signed_graph"):
            out[f"{name}.s"] = total[name]
        for name in ("operators.one_lap_lambda_range", "spectra.one_lap_enumerate",
                     "spectra.extremal_p", "spectra.spectrum_p2", "harness.run_suite"):
            out[f"{name}.self_s"] = own[name]
        out["graph.self_s"] = sum(own[f"graph.{f}"] for f in TRACED["graph"])
        out["cli.self_s"] = own["cli.main"]
        out["simplex.solve_lp.optimal_frac"] = ratio(counts["simplex.solve_lp.optimal"],
                                                     calls["simplex.solve_lp"])
        for key in ("patterns_scanned", "patterns_solved"):
            out[f"spectra.one_lap.{key}"] = counts[f"spectra.one_lap.{key}"]
        out["spectra.one_lap.pairs_per_solved"] = ratio(counts["spectra.one_lap.pairs"],
                                                        counts["spectra.one_lap.patterns_solved"])
        out["spectra.extremal_p.certified_frac"] = ratio(counts["spectra.extremal_p.certified"],
                                                         counts["spectra.extremal_p.restarts"])
        out["cheeger.subsets_scored"] = counts["cheeger.subsets_scored"]
        return out
