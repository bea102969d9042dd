"""Random instances, symmetric-matrix import and the empirical check suite.

The suite draws seeded random signed graphs and runs the certified checks
of the other modules on them. The checks are functions in one table,
``_CHECKS``, which also fixes the order they run in; one driver records
their outcomes. In every trial each enabled check records a verdict or a
named skip, and each failing verdict becomes a replayable (seed, trial,
graph, inputs) bundle. The RNG of a trial is seeded from (seed, trial), so
no trial depends on the trials before it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, asdict
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import cheeger as _cheeger
from .graph import (
    GraphError,
    ParseError,
    SignedGraph,
    _exponent,
    _indented_json,
    _is,
    _load_json,
    _seed,
    _tol,
    balance_state,
    components,
    serialize_graph,
    switch,
    with_degree_measure,
)
from .nodal import SpectrumContext, _bound_reports, nodal_quantities, strong_domains, weak_domains
from .operators import EigenPair, check_eigenpair
from .spectra import ONE_LAP_CAP, RESTARTS, _extremes, one_lap_enumerate, spectrum_p2
from .transforms import interlacing_check_p2, remove_edge

__all__ = [
    "random_signed_graph",
    "import_symmetric_matrix",
    "SuiteConfig",
    "SuiteReport",
    "run_suite",
    "example_3_1_check",
    "ALL_CHECKS",
]

MODELS = ("uniform", "all-negative", "all-positive", "balanced", "antibalanced")
MU_MODES = ("unit", "degree")


def _density(x) -> None:
    """The one check of an edge density: a real number in (0, 1], not a bool."""
    if not (_is(x, numbers.Real) and 0 < x <= 1):
        raise GraphError(f"density must be a finite real number in (0, 1], got {x!r}")


def _option(x, name: str, options: tuple[str, ...]) -> None:
    """The one check of a signature model or a mu_mode: one of the str ``options``."""
    if not (type(x) is str and x in options):
        raise GraphError(f"unknown {name} {x!r}; choose one of {options}")


def random_signed_graph(
    n: int,
    density: float = 0.6,
    model: str = "uniform",
    seed: int = 0,
    mu_mode: str = "unit",
    connected: bool = False,
) -> SignedGraph:
    """Seeded random signed graph; weights uniform in [0.5, 2].

    Models: uniform signature, all-negative, all-positive, or
    balanced/antibalanced obtained by switching the all-positive /
    all-negative base with a random tau (correct by switching invariance).
    ``connected=True`` retries until the graph is connected.
    """
    _seed(n, "n")
    if n < 1:
        raise GraphError("n must be >= 1")
    _density(density)
    _option(model, "signature model", MODELS)
    _option(mu_mode, "mu_mode", MU_MODES)
    _seed(seed)
    rng = np.random.default_rng((seed, n))
    for _ in range(1000):
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    w = float(rng.uniform(0.5, 2.0))
                    if model in ("all-negative", "antibalanced"):
                        s = -1
                    elif model == "uniform":
                        s = (-1, 1)[rng.integers(0, 2)]  # the draw of rng.choice((-1, 1))
                    else:
                        s = 1
                    edges.append((i, j, w, s))
        ids = tuple(f"v{i+1}" for i in range(n))
        g = SignedGraph(ids=ids, mu=(1.0,) * n, kappa=(0.0,) * n, edges=tuple(sorted(edges)))
        if mu_mode == "degree":
            g = with_degree_measure(g)
        if model in ("balanced", "antibalanced"):
            tau = [int(t) for t in rng.choice((-1, 1), size=n)]
            g = switch(g, tau)
        if not connected or len(components(g)) == 1:
            return g
    raise GraphError("failed to draw a connected graph; raise density or n")


def import_symmetric_matrix(m) -> tuple[SignedGraph, dict]:
    """Signed graph whose p = 2 form matrix equals M exactly.

    Off-diagonal M_xy != 0 becomes an edge with w = |M_xy| and
    sigma = -sign(M_xy); kappa_x = M_xx - sum_y w_xy. Returns the graph and
    a record of the diagonal shifts.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise GraphError("matrix must be square")
    if np.max(np.abs(m - m.T), initial=0.0) > 1e-12:
        raise GraphError("matrix is not symmetric (tolerance 1e-12)")
    n = m.shape[0]
    ids = [f"v{i+1}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if m[i, j] != 0.0:
                edges.append((ids[i], ids[j], abs(m[i, j]), int(-np.sign(m[i, j]))))
    shifts = [float(sum(abs(m[i, j]) for j in range(n) if j != i)) for i in range(n)]
    kappa = [float(m[i, i]) - shifts[i] for i in range(n)]
    g = SignedGraph.build(ids, edges, kappa=kappa)
    return g, {"diagonal_shift": {ids[i]: -shifts[i] for i in range(n)}}


_ZERO_RTOL = 1e-9


def _clean_zeros(f: np.ndarray) -> np.ndarray:
    out = f.copy()
    out[np.abs(out) <= _ZERO_RTOL * np.max(np.abs(out))] = 0.0
    return out


def _solid_edge(g: SignedGraph, f: np.ndarray):
    """First edge whose endpoints are both solidly nonzero in f, or None.

    Near-zero endpoints would let the kappa compensation of edge surgery
    amplify eigensolver rounding through the value ratio.
    """
    floor = 1e-2 * np.max(np.abs(f))
    return next(((u, v) for u, v, _, _ in g.edges
                 if abs(f[u]) > floor and abs(f[v]) > floor), None)


_NO_SOLID_EDGE = "no edge with both endpoints nonzero"


class _Verdict(NamedTuple):
    ok: bool
    extra: dict  # the failure bundle's inputs
    graph: SignedGraph | None = None  # the bundled graph, when not the trial's


class _Trial:
    """What the checks of one trial share.

    The trial rng is seeded from (seed, trial). It draws n, then the main
    graph g; ``spec`` is g's p = 2 spectrum and c its number of
    components, each taken when a check first reads it (neither draws).
    Checks draw from the same rng in table order.
    """

    def __init__(self, cfg: SuiteConfig, trial: int):
        self.cfg = cfg
        self.rng = np.random.default_rng((cfg.seed, trial))
        self.n = int(self.rng.integers(cfg.n_min, cfg.n_max + 1))
        self.g = self.draw(cfg.models[trial % len(cfg.models)])

    spec = cached_property(lambda t: spectrum_p2(t.g))
    c = cached_property(lambda t: len(components(t.g)))

    def draw(self, model: str) -> SignedGraph:
        """A connected graph on n vertices, seeded by the next trial draw."""
        return random_signed_graph(self.n, self.cfg.density, model,
                                   seed=int(self.rng.integers(0, 2**31)),
                                   mu_mode=self.cfg.mu_mode, connected=True)


# Each check yields, per trial, at least one outcome: a _Verdict or a skip
# reason (a str).

def _uncertified(t: _Trial):
    # Eigenvalue-position checks need certified placements, i.e. p = 2.
    for p in t.cfg.p_list:
        if p != 2.0:
            yield f"interior eigenvalues uncertified for p={p}"


def _nodal_bounds(t: _Trial):
    yield from _uncertified(t)
    if 2.0 not in t.cfg.p_list:
        return
    groups = t.spec.groups
    F = np.stack([_clean_zeros(t.spec.vectors[:, grp[0]]) for grp in groups], axis=1)
    ctxs = [SpectrumContext(k=grp[0] + 1, r=len(grp), c=t.c,
                            lam=float(t.spec.values[grp[0]]), p=2.0) for grp in groups]
    for f, rep in zip(F.T.tolist(), _bound_reports(t.g, F, ctxs)):
        yield _Verdict(rep["all_pass"], {"function": f, "report": rep})


def _count_identity(t: _Trial):
    f = t.rng.standard_normal(t.n)
    f[t.rng.random(t.n) < 0.4] = 0.0
    if not np.any(f):
        yield "drawn function is zero"
        return
    yield _Verdict(nodal_quantities(t.g, f).identity_ok, {"function": list(map(float, f))})


def _interlacing_edge(t: _Trial):
    f = t.spec.vectors[:, -1]
    edge = _solid_edge(t.g, f)
    if edge is None:
        yield _NO_SOLID_EDGE
        return
    rep = interlacing_check_p2(t.g, [{"kind": "remove_edge", "edge": edge, "f": f}],
                               tol=t.cfg.tol)
    yield _Verdict(rep["all_pass"], {"edge": list(edge), "function": list(map(float, f))})


def _interlacing_node(t: _Trial):
    x = int(t.rng.integers(0, t.n))
    rep = interlacing_check_p2(t.g, [{"kind": "remove_node", "node": x}], tol=t.cfg.tol)
    yield _Verdict(rep["all_pass"], {"node": x})


def _surgery_preservation(t: _Trial):
    k = int(t.rng.integers(0, t.n))
    lam, f = float(t.spec.values[k]), t.spec.vectors[:, k]
    edge = _solid_edge(t.g, f)
    if edge is None:
        yield _NO_SOLID_EDGE
        return
    res = remove_edge(t.g, 2.0, f, edge)
    cert = check_eigenpair(res.graph, EigenPair(lam, res.f, 2.0), tol=t.cfg.tol)
    yield _Verdict(cert.verdict, {"edge": list(edge), "lambda": lam,
                                  "residual": cert.max_residual})


def _perron_frobenius(t: _Trial):
    ganti = t.draw("antibalanced")
    anti_tau = balance_state(ganti).antibalancing_tau
    for p in t.cfg.p_list:
        if p <= 1:
            yield "extremal solver requires p > 1"
            continue
        # the claim is about lambda_max alone, so only the max starts run
        ext = _extremes(ganti, p, RESTARTS, int(t.rng.integers(0, 2**31)), ("max",))
        fmax = ext["f_max"] / np.max(np.abs(ext["f_max"]))
        switched = np.array(anti_tau) * fmax
        positive = bool(np.min(switched * np.sign(switched[np.argmax(np.abs(switched))]))
                        > 1e-8)
        ok = ext["converged_max"] and ext["residual_max"] <= 1e-8 and positive
        if p == 2.0:
            sa = spectrum_p2(ganti)
            ok = ok and (sa.values[-1] - sa.values[-2] > 0)
        yield _Verdict(ok, {"p": p, "lambda_max": ext["lambda_max"],
                            "residual": ext["residual_max"]}, ganti)


def _cheeger_bounds(t: _Trial):
    yield from _uncertified(t)
    if 2.0 not in t.cfg.p_list:
        return
    k = int(t.rng.integers(1, t.n + 1))
    f = _clean_zeros(t.spec.vectors[:, k - 1])
    m = strong_domains(t.g, f)[0]
    if _cheeger._refusal(t.n, k) or _cheeger._refusal(t.n, m):
        yield "n over exact Cheeger cap"
        return
    rec = _cheeger.check_theorem41(t.g, 2.0, k, float(t.spec.values[k - 1]), m)
    yield _Verdict(rec["pass"], {"record": rec})


def _onelap_h1(t: _Trial):
    if t.n > ONE_LAP_CAP:  # h_1's cap is no lower
        yield "n over 1-Laplacian enumeration budget"
        return
    lam1 = one_lap_enumerate(t.g).lambda_1
    h1 = _cheeger.cheeger_k(t.g, 1).value
    yield _Verdict(lam1 == h1, {"lambda_1": str(lam1), "h_1": str(h1)})


def _weak_balanced_two(t: _Trial):
    gbal = t.draw("balanced")
    sb = spectrum_p2(gbal)
    if sb.values[1] - sb.values[0] < 1e-9:
        yield "second eigenvalue not separated from the first"
        return
    f = _clean_zeros(sb.vectors[:, 1])
    wc = weak_domains(gbal, f)[0]
    yield _Verdict(wc == 2, {"weak_count": wc, "function": list(map(float, f))}, gbal)


# The only list of check names, in execution order: checks that draw from
# the trial rng must keep their places, or every later draw changes.
_CHECKS = {
    "nodal-bounds": _nodal_bounds,
    "count-identity": _count_identity,
    "interlacing-edge": _interlacing_edge,
    "interlacing-node": _interlacing_node,
    "surgery-preservation": _surgery_preservation,
    "perron-frobenius": _perron_frobenius,
    "cheeger-bounds": _cheeger_bounds,
    "onelap-h1": _onelap_h1,
    "weak-balanced-two": _weak_balanced_two,
}
ALL_CHECKS = tuple(_CHECKS)


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    trials: int = 50
    n_min: int = 4
    n_max: int = 8
    density: float = 0.6
    models: tuple[str, ...] = ("uniform",)
    p_list: tuple[float, ...] = (2.0,)
    mu_mode: str = "unit"
    checks: tuple[str, ...] = ALL_CHECKS
    tol: float = 1e-9

    def __post_init__(self):
        for k in ("seed", "trials", "n_min", "n_max"):  # a numpy count reports as a Python int
            _seed(getattr(self, k), k)
            object.__setattr__(self, k, int(getattr(self, k)))
        if self.trials < 1:
            raise GraphError("need trials >= 1")
        if not 4 <= self.n_min <= self.n_max:
            raise GraphError("need 4 <= n_min <= n_max")
        _tol(self.tol)
        _density(self.density)
        if not (self.models and self.p_list and self.checks):
            raise GraphError("models, p_list and checks must be non-empty")
        for p in self.p_list:
            _exponent(p, single_valued=False)
        _option(self.mu_mode, "mu_mode", MU_MODES)
        for c in self.checks:
            if c not in ALL_CHECKS:
                raise GraphError(f"unknown check {c!r}")
        for mdl in self.models:
            _option(mdl, "signature model", MODELS)

    @staticmethod
    def from_json(data) -> "SuiteConfig":
        """Parse a config document; any invalid document raises ParseError."""
        doc = _load_json(data)
        if not isinstance(doc, dict):
            raise ParseError("suite config must be a JSON object")
        unknown = sorted(set(doc) - {f.name for f in fields(SuiteConfig)})
        if unknown:
            raise ParseError(f"unknown suite config keys {unknown}")
        try:
            kwargs = {k: tuple(v) if k in ("models", "p_list", "checks") else v
                      for k, v in doc.items()}
            return SuiteConfig(**kwargs)
        except (GraphError, TypeError) as exc:
            raise ParseError(f"invalid suite config: {exc}") from exc


@dataclass
class SuiteReport:
    config: SuiteConfig
    aggregates: dict
    failures: list

    @property
    def ok(self) -> bool:
        return all(a["failed"] == 0 for a in self.aggregates.values())

    def to_json(self) -> str:
        doc = {
            "config": asdict(self.config),
            "aggregates": self.aggregates,
            "failures": self.failures,
            "ok": self.ok,
        }
        return _indented_json(doc)


def _run_trial(cfg: SuiteConfig, trial: int, agg: dict, failures: list):
    t = _Trial(cfg, trial)
    for name, check in _CHECKS.items():
        if name not in cfg.checks:
            continue
        a = agg[name]
        for out in check(t):
            if isinstance(out, str):
                a["skipped"] += 1
                a["skip_reasons"][out] = a["skip_reasons"].get(out, 0) + 1
                continue
            a["checked"] += 1
            a["passed" if out.ok else "failed"] += 1
            if not out.ok:
                graph = t.g if out.graph is None else out.graph
                failures.append({"check": name, "seed": cfg.seed, "trial": trial,
                                 "graph": serialize_graph(graph).decode(), **out.extra})


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Run the configured checks over seeded random trials.

    Deterministic for a given config; failures are returned as replayable
    (seed, trial, graph, inputs) bundles.
    """
    agg = {check: {"checked": 0, "passed": 0, "failed": 0, "skipped": 0, "skip_reasons": {}}
           for check in cfg.checks}
    failures: list = []
    for trial in range(cfg.trials):
        _run_trial(cfg, trial, agg, failures)
    return SuiteReport(config=cfg, aggregates=agg, failures=failures)


def example_3_1_check() -> dict:
    """Weak-domain count of the second eigenfunction of the K7 test matrix.

    The matrix has unit off-diagonal entries and diagonal 1..7; imported
    with mu = 1. The expected count is 1; the sign-flipped (balanced)
    control gives 2. With a degenerate second eigenvalue, every basis
    eigenfunction's count is reported instead.
    """
    n = 7
    counts = {}
    for sign in (1, -1):
        a = sign * np.ones((n, n))
        np.fill_diagonal(a, np.arange(1, n + 1))
        g, _ = import_symmetric_matrix(a)
        spec = spectrum_p2(g)
        grp = next(grp for grp in spec.groups if 1 in grp)
        counts[sign] = [weak_domains(g, _clean_zeros(spec.vectors[:, i]))[0] for i in grp]
    return {
        "weak_counts": counts[1],
        "degenerate": len(counts[1]) > 1,
        "control_weak_counts": counts[-1],
        "expected": 1,
        "control_expected": 2,
        "pass": counts[1] == [1] and counts[-1] == [2],
    }
