"""Random instances, symmetric-matrix import and the empirical check suite.

The suite generates seeded random signed graphs and runs the certified
checks from the other modules (nodal bounds, interlacing, Cheeger bounds,
extremal positivity, surgery preservation). Every failing trial is emitted
as a replayable bundle; per-trial RNG is derived from (seed, trial) so
results never depend on execution order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, asdict

import numpy as np

from . import cheeger as _cheeger
from .graph import (
    GraphError,
    ParseError,
    SignedGraph,
    balance_state,
    components,
    serialize_graph,
    switch,
    with_degree_measure,
)
from .nodal import SpectrumContext, bound_report, nodal_quantities, strong_domains, weak_domains
from .operators import EigenPair, check_eigenpair
from .spectra import extremal_p, one_lap_enumerate, spectrum_p2
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
    if n < 1:
        raise GraphError("n must be >= 1")
    if not 0 < density <= 1:
        raise GraphError("density must be in (0, 1]")
    if model not in MODELS:
        raise GraphError(f"unknown signature model {model!r}; choose one of {MODELS}")
    if mu_mode not in ("unit", "degree"):
        raise GraphError(f"mu_mode must be 'unit' or 'degree', got {mu_mode!r}")
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
                        s = int(rng.choice((-1, 1)))
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


def _clean_zeros(f: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    out = f.copy()
    out[np.abs(out) <= rtol * np.max(np.abs(out))] = 0.0
    return out


ALL_CHECKS = (
    "nodal-bounds",
    "interlacing-edge",
    "interlacing-node",
    "count-identity",
    "surgery-preservation",
    "perron-frobenius",
    "cheeger-bounds",
    "onelap-h1",
    "weak-balanced-two",
)


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
        if any(type(getattr(self, k)) is not int for k in ("seed", "trials", "n_min", "n_max")):
            raise GraphError("seed, trials, n_min and n_max must be integers")
        if self.seed < 0 or self.trials < 1:
            raise GraphError("need seed >= 0 and trials >= 1")
        if not 4 <= self.n_min <= self.n_max:
            raise GraphError("need 4 <= n_min <= n_max")
        if not 0 < self.density <= 1:
            raise GraphError("density must be in (0, 1]")
        if not (self.models and self.p_list and self.checks):
            raise GraphError("models, p_list and checks must be non-empty")
        if not all(p >= 1 for p in self.p_list):
            raise GraphError(f"every p must be >= 1, got {list(self.p_list)}")
        if self.mu_mode not in ("unit", "degree"):
            raise GraphError(f"mu_mode must be 'unit' or 'degree', got {self.mu_mode!r}")
        if not self.tol >= 0:
            raise GraphError("tol must be >= 0")
        for c in self.checks:
            if c not in ALL_CHECKS:
                raise GraphError(f"unknown check {c!r}")
        for mdl in self.models:
            if mdl not in MODELS:
                raise GraphError(f"unknown model {mdl!r}")

    @staticmethod
    def from_json(data) -> "SuiteConfig":
        """Parse a config document; any invalid document raises ParseError."""
        try:
            doc = json.loads(data)
        except ValueError as exc:
            raise ParseError(f"malformed JSON: {exc}") from exc
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
        return json.dumps(doc, sort_keys=True, indent=2, default=str)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng((seed, trial))


def _record(agg, failures, check, ok, bundle=None, skip_reason=None):
    a = agg.setdefault(
        check, {"checked": 0, "passed": 0, "failed": 0, "skipped": 0, "skip_reasons": {}}
    )
    if skip_reason is not None:
        a["skipped"] += 1
        a["skip_reasons"][skip_reason] = a["skip_reasons"].get(skip_reason, 0) + 1
        return
    a["checked"] += 1
    if ok:
        a["passed"] += 1
    else:
        a["failed"] += 1
        if bundle is not None:
            failures.append(bundle)


def _bundle(check, cfg, trial, g, extra=None):
    doc = {
        "check": check,
        "seed": cfg.seed,
        "trial": trial,
        "graph": serialize_graph(g).decode(),
    }
    if extra:
        doc.update(extra)
    return doc


def _run_trial(cfg: SuiteConfig, trial: int, agg, failures):
    rng = _trial_rng(cfg.seed, trial)
    model = cfg.models[trial % len(cfg.models)]
    n = int(rng.integers(cfg.n_min, cfg.n_max + 1))
    g = random_signed_graph(
        n, cfg.density, model, seed=int(rng.integers(0, 2**31)),
        mu_mode=cfg.mu_mode, connected=True,
    )
    spec = spectrum_p2(g)
    c = len(components(g))

    # Eigenvalue-position checks need certified placements, i.e. p = 2 here.
    exact_p2 = 2.0 in cfg.p_list
    for p in cfg.p_list:
        if p not in (1.0, 2.0):
            for check in ("nodal-bounds", "cheeger-bounds"):
                if check in cfg.checks:
                    _record(agg, failures, check, None,
                            skip_reason=f"interior eigenvalues uncertified for p={p}")

    if "nodal-bounds" in cfg.checks and exact_p2:
        for grp in spec.groups:
            k_first, r = grp[0] + 1, len(grp)
            f = _clean_zeros(spec.vectors[:, grp[0]])
            rep = bound_report(g, f, SpectrumContext(k=k_first, r=r, c=c,
                                                     lam=float(spec.values[grp[0]]), p=2.0))
            _record(agg, failures, "nodal-bounds", rep["all_pass"],
                    _bundle("nodal-bounds", cfg, trial, g,
                            {"function": list(map(float, f)), "report": rep}))

    if "count-identity" in cfg.checks:
        f = rng.standard_normal(g.n)
        f[rng.random(g.n) < 0.4] = 0.0
        if np.any(f):
            q = nodal_quantities(g, f)
            _record(agg, failures, "count-identity", q.identity_ok,
                    _bundle("count-identity", cfg, trial, g, {"function": list(map(float, f))}))

    if "interlacing-edge" in cfg.checks:
        f = spec.vectors[:, -1]
        # endpoints must be solidly nonzero or the kappa compensation
        # amplifies eigensolver rounding through the value ratio
        floor = 1e-2 * np.max(np.abs(f))
        edge = next(((u, v) for u, v, _, _ in g.edges
                     if abs(f[u]) > floor and abs(f[v]) > floor), None)
        if edge is None:
            _record(agg, failures, "interlacing-edge", None,
                    skip_reason="no edge with both endpoints nonzero")
        else:
            rep = interlacing_check_p2(g, [{"kind": "remove_edge", "edge": edge, "f": f}],
                                       tol=cfg.tol)
            _record(agg, failures, "interlacing-edge", rep["all_pass"],
                    _bundle("interlacing-edge", cfg, trial, g,
                            {"edge": list(edge), "function": list(map(float, f))}))

    if "interlacing-node" in cfg.checks:
        x = int(rng.integers(0, g.n))
        rep = interlacing_check_p2(g, [{"kind": "remove_node", "node": x}], tol=cfg.tol)
        _record(agg, failures, "interlacing-node", rep["all_pass"],
                _bundle("interlacing-node", cfg, trial, g, {"node": x}))

    if "surgery-preservation" in cfg.checks:
        k = int(rng.integers(0, g.n))
        lam, f = float(spec.values[k]), spec.vectors[:, k]
        floor = 1e-2 * np.max(np.abs(f))
        edge = next(((u, v) for u, v, _, _ in g.edges
                     if abs(f[u]) > floor and abs(f[v]) > floor), None)
        if edge is None:
            _record(agg, failures, "surgery-preservation", None,
                    skip_reason="no edge with both endpoints nonzero")
        else:
            res = remove_edge(g, 2.0, f, edge)
            cert = check_eigenpair(res.graph, EigenPair(lam, res.f, 2.0), tol=cfg.tol)
            _record(agg, failures, "surgery-preservation", cert.verdict,
                    _bundle("surgery-preservation", cfg, trial, g,
                            {"edge": list(edge), "lambda": lam,
                             "residual": cert.max_residual}))

    if "perron-frobenius" in cfg.checks:
        ganti = random_signed_graph(n, cfg.density, "antibalanced",
                                    seed=int(rng.integers(0, 2**31)),
                                    mu_mode=cfg.mu_mode, connected=True)
        anti_tau = balance_state(ganti).antibalancing_tau
        for p in cfg.p_list:
            if p <= 1:
                _record(agg, failures, "perron-frobenius", None,
                        skip_reason="extremal solver requires p > 1")
                continue
            ext = extremal_p(ganti, p, seed=int(rng.integers(0, 2**31)))
            fmax = ext.f_max / np.max(np.abs(ext.f_max))
            switched = np.array(anti_tau) * fmax
            positive = bool(np.min(switched * np.sign(switched[np.argmax(np.abs(switched))]))
                            > 1e-8)
            ok = ext.converged_max and ext.residual_max <= 1e-8 and positive
            if p == 2.0:
                sa = spectrum_p2(ganti)
                ok = ok and (sa.values[-1] - sa.values[-2] > 0)
            _record(agg, failures, "perron-frobenius", ok,
                    _bundle("perron-frobenius", cfg, trial, ganti,
                            {"p": p, "lambda_max": ext.lambda_max,
                             "residual": ext.residual_max}))

    if "cheeger-bounds" in cfg.checks and exact_p2:
        if g.n > 8:
            _record(agg, failures, "cheeger-bounds", None,
                    skip_reason="n over exact Cheeger cap")
        else:
            k = int(rng.integers(1, g.n + 1))
            lam_k = float(spec.values[k - 1])
            f = _clean_zeros(spec.vectors[:, k - 1])
            m = strong_domains(g, f)[0]
            rec = _cheeger.check_theorem41(g, 2.0, k, lam_k, m)
            _record(agg, failures, "cheeger-bounds", rec["pass"],
                    _bundle("cheeger-bounds", cfg, trial, g, {"record": rec}))

    if "onelap-h1" in cfg.checks:
        if g.n > 8:
            _record(agg, failures, "onelap-h1", None,
                    skip_reason="n over 1-Laplacian enumeration budget")
        else:
            ols = one_lap_enumerate(g)
            h1 = _cheeger.cheeger_k(g, 1).value
            _record(agg, failures, "onelap-h1", ols.lambda_1 == h1,
                    _bundle("onelap-h1", cfg, trial, g,
                            {"lambda_1": str(ols.lambda_1), "h_1": str(h1)}))

    if "weak-balanced-two" in cfg.checks:
        gbal = random_signed_graph(n, cfg.density, "balanced",
                                   seed=int(rng.integers(0, 2**31)),
                                   mu_mode=cfg.mu_mode, connected=True)
        sb = spectrum_p2(gbal)
        if sb.values[1] - sb.values[0] < 1e-9:
            _record(agg, failures, "weak-balanced-two", None,
                    skip_reason="second eigenvalue not separated from the first")
        else:
            f = _clean_zeros(sb.vectors[:, 1])
            wc = weak_domains(gbal, f)[0]
            _record(agg, failures, "weak-balanced-two", wc == 2,
                    _bundle("weak-balanced-two", cfg, trial, gbal,
                            {"weak_count": wc, "function": list(map(float, f))}))


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Run the configured checks over seeded random trials.

    Deterministic for a given config; failures are returned as replayable
    (seed, trial, graph, inputs) bundles.
    """
    agg: dict = {}
    failures: list = []
    for check in cfg.checks:
        agg.setdefault(check, {"checked": 0, "passed": 0, "failed": 0,
                               "skipped": 0, "skip_reasons": {}})
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
    a = np.ones((n, n))
    np.fill_diagonal(a, np.arange(1, n + 1))
    g, _ = import_symmetric_matrix(a)
    spec = spectrum_p2(g)
    grp = next(grp for grp in spec.groups if 1 in grp)
    counts = []
    for idx in grp:
        f = _clean_zeros(spec.vectors[:, idx])
        counts.append(weak_domains(g, f)[0])

    b = -np.ones((n, n))
    np.fill_diagonal(b, np.arange(1, n + 1))
    gb, _ = import_symmetric_matrix(b)
    specb = spectrum_p2(gb)
    grpb = next(grp for grp in specb.groups if 1 in grp)
    counts_control = []
    for idx in grpb:
        f = _clean_zeros(specb.vectors[:, idx])
        counts_control.append(weak_domains(gb, f)[0])

    return {
        "weak_counts": counts,
        "degenerate": len(grp) > 1,
        "control_weak_counts": counts_control,
        "expected": 1,
        "control_expected": 2,
        "pass": counts == [1] and counts_control == [2],
    }
