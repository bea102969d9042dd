"""Spectra: exact p=2 eigendecomposition, extremal eigenpairs for p > 1,
enumerated 1-Laplacian eigenpairs and Cheeger upper bounds.

The p=2 case reduces to a symmetric matrix pencil and is solved by
``np.linalg.eigh`` on the symmetrically normalized matrix. For general
p > 1 only the extremes of the Rayleigh quotient are computed (projected
gradient with restarts, then a Newton polish); every reported pair is
re-certified by its eigen-residual. For p = 1 candidates are the +-1/0
patterns, each decided by an exact integer max-flow that leaves a
certificate: a witness for each pair, a reason for each rejected pattern,
both checked in linear time by ``check_certificate_1lap``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from . import cheeger as _cheeger
from .graph import BalanceState, GraphError, SignedGraph, balance_state, components, induced_subgraph
from .operators import (
    OneLapWitness, _pattern_lambda, _prefilter_lambda_box, apply_p_laplacian,
    eigen_residual, phi_p, rayleigh,
)

__all__ = [
    "SpectrumP2",
    "spectrum_p2",
    "ExtremalResult",
    "extremal_p",
    "upper_bound_lambda_k",
    "OneLapPair",
    "OneLapEigenSet",
    "one_lap_enumerate",
    "smallest_positive_1lap",
]

GROUP_RTOL = 1e-8
ONE_LAP_CAP = 12


# ---------------------------------------------------------------------------
# p = 2

@dataclass(frozen=True)
class SpectrumP2:
    """Eigenvalues ascending; eigenvector columns orthonormal in the
    mu-inner product; indices grouped by multiplicity."""

    values: np.ndarray
    vectors: np.ndarray
    groups: tuple[tuple[int, ...], ...]

    def multiplicity(self, k: int) -> int:
        for grp in self.groups:
            if k in grp:
                return len(grp)
        raise IndexError(k)


def _edge_matrix(g: SignedGraph, c: np.ndarray) -> np.ndarray:
    """n x n matrix with -sigma_e c_e at both off-diagonal places of each
    edge e and, on the diagonal, the sum of c over the vertex's edges."""
    m = np.zeros((g.n, g.n))
    m[g.eu, g.ev] = m[g.ev, g.eu] = -g.es * c
    m[np.diag_indices(g.n)] = g.incident_sums(c)
    return m


def form_matrix(g: SignedGraph) -> np.ndarray:
    """Symmetric form matrix: L_xx = sum_y w_xy + kappa_x, L_xy = -sigma w_xy."""
    lmat = _edge_matrix(g, g.ew)
    lmat[np.diag_indices(g.n)] += g.kappa_array()
    return lmat


def spectrum_p2(g: SignedGraph) -> SpectrumP2:
    """Full p = 2 spectrum of the pencil (L, D_mu), by ``eigh`` on the
    symmetrically normalized matrix (eigenvalues come out ascending)."""
    dinv = 1.0 / np.sqrt(g.mu_array())
    vals, vecs = np.linalg.eigh(dinv[:, None] * form_matrix(g) * dinv[None, :])
    vecs = dinv[:, None] * vecs

    groups: list[list[int]] = []
    for i, val in enumerate(vals):
        if groups and abs(val - vals[i - 1]) < GROUP_RTOL * max(1.0, abs(val)):
            groups[-1].append(i)
        else:
            groups.append([i])
    return SpectrumP2(values=vals, vectors=vecs, groups=tuple(map(tuple, groups)))


# ---------------------------------------------------------------------------
# general p > 1 extremes

@dataclass(frozen=True)
class ExtremalResult:
    p: float
    lambda_min: float
    f_min: np.ndarray
    residual_min: float
    lambda_max: float
    f_max: np.ndarray
    residual_max: float
    converged_min: bool
    converged_max: bool
    trace: tuple[dict, ...] = field(default=())


def _normalize_p(g: SignedGraph, p: float, f: np.ndarray) -> np.ndarray:
    scale = float(np.dot(g.mu_array(), np.abs(f) ** p)) ** (1.0 / p)
    if scale == 0.0:
        raise GraphError("cannot normalize the zero function")
    return f / scale


def _newton_polish(g: SignedGraph, p: float, f: np.ndarray, lam: float, iters: int = 50):
    """Newton on (Delta_p f - lam mu Phi_p f, mu-p-norm - 1); keeps the best
    iterate by residual. Second derivatives |t|^(p-2) are clipped away from
    zero arguments for p < 2."""
    n = g.n
    mu = g.mu_array()
    kap = g.kappa_array()
    f = _normalize_p(g, p, f.copy())
    best_f, best_lam = f.copy(), lam
    best_res = eigen_residual(g, p, f, lam)
    for _ in range(iters):
        jac = np.zeros((n + 1, n + 1))
        rhs = np.zeros(n + 1)
        lap = apply_p_laplacian(g, p, f)
        rhs[:n] = -(lap - lam * mu * phi_p(f, p))
        rhs[n] = -(float(np.dot(mu, np.abs(f) ** p)) - 1.0)
        dabs = np.maximum(np.abs(f), 1e-12) ** (p - 2)
        d = f[g.eu] - g.es * f[g.ev]
        jac[:n, :n] = _edge_matrix(g, (p - 1) * g.ew * np.maximum(np.abs(d), 1e-12) ** (p - 2))
        diag = (p - 1) * (kap - lam * mu) * dabs
        jac[np.arange(n), np.arange(n)] += diag
        jac[:n, n] = -mu * phi_p(f, p)
        jac[n, :n] = p * mu * phi_p(f, p)
        try:
            step = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        # Damped line search on the residual.
        t = 1.0
        accepted = False
        for _ in range(30):
            f_try = f + t * step[:n]
            lam_try = lam + t * step[n]
            if np.any(f_try != 0):
                r = eigen_residual(g, p, f_try, lam_try)
                if r < best_res:
                    f, lam, best_res = f_try, lam_try, r
                    best_f, best_lam = f.copy(), lam
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            break
    return best_f, best_lam, best_res


def _gradient_run(g, p, f0, sign, max_iter, step0, rng):
    """Projected gradient on the mu-weighted l^p sphere; sign=+1 minimizes."""
    f = _normalize_p(g, p, f0)
    mu = g.mu_array()
    r = rayleigh(g, p, f)
    eta = step0
    for _ in range(max_iter):
        grad = p * (apply_p_laplacian(g, p, f) - r * mu * phi_p(f, p))
        gnorm = float(np.max(np.abs(grad)))
        if gnorm < 1e-14 or eta < 1e-15:
            break
        f_try = f - sign * eta * grad
        if not np.any(f_try):
            eta *= 0.5
            continue
        f_try = _normalize_p(g, p, f_try)
        r_try = rayleigh(g, p, f_try)
        if sign * (r_try - r) < -1e-16:
            f, r = f_try, r_try
            eta *= 1.2
        else:
            eta *= 0.5
    return f, r


def extremal_p(
    g: SignedGraph,
    p: float,
    max_iter: int = 2000,
    step: float = 0.1,
    tol: float = 1e-9,
    restarts: int = 8,
    seed: int = 0,
) -> ExtremalResult:
    """Certified extremes of the p-Rayleigh quotient for p > 1."""
    if p <= 1:
        raise GraphError("extremal_p requires p > 1")
    rng = np.random.default_rng(seed)
    spec2 = spectrum_p2(g)
    trace = []
    results = {}
    for which, sign, warm in (
        ("min", +1, spec2.vectors[:, 0]),
        ("max", -1, spec2.vectors[:, -1]),
    ):
        starts = [warm] + [rng.standard_normal(g.n) for _ in range(restarts)]
        cands = []  # (certified, lam, f, res)
        for f0 in starts:
            f, r = _gradient_run(g, p, f0, sign, max_iter, step, rng)
            f, lam, res = _newton_polish(g, p, f, r)
            trace.append({"which": which, "lambda": lam, "residual": res})
            cands.append((res <= tol, lam, f, res))
        # certified first, then the extreme lambda, else the smallest
        # residual; min keeps the first of equal keys
        results[which] = min(cands, key=lambda c: (not c[0], sign * c[1] if c[0] else c[3]))
    cmin, lam_min, f_min, res_min = results["min"]
    cmax, lam_max, f_max, res_max = results["max"]
    return ExtremalResult(
        p=p,
        lambda_min=lam_min,
        f_min=f_min,
        residual_min=res_min,
        lambda_max=lam_max,
        f_max=f_max,
        residual_max=res_max,
        converged_min=cmin,
        converged_max=cmax,
        trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# Cheeger upper bound

def upper_bound_lambda_k(g: SignedGraph, p: float, k: int) -> float:
    """Certified upper bound 2^(p-1) h_k on the k-th variational eigenvalue.

    Requires kappa == 0. For p = 2 the exact spectrum is computed and the
    bound is asserted against lambda_k.
    """
    if any(kv != 0 for kv in g.kappa):
        raise GraphError("upper_bound_lambda_k requires kappa == 0 everywhere")
    if p < 1:
        raise GraphError("p must be >= 1")
    h_k = _cheeger.cheeger_k(g, k).value
    bound = 2.0 ** (p - 1) * float(h_k)
    if p == 2:
        lam_k = float(spectrum_p2(g).values[k - 1])
        if lam_k > bound + 1e-9:
            raise GraphError(
                f"certified bound violated: lambda_{k} = {lam_k} > 2 h_{k} = {bound}"
            )
    return bound


# ---------------------------------------------------------------------------
# p = 1 enumeration

@dataclass(frozen=True)
class OneLapPair:
    lam: Fraction
    lam_hi: Fraction
    f: tuple[int, ...]
    witness: OneLapWitness = field(compare=False, repr=False)

    @property
    def is_point(self) -> bool:
        return self.lam == self.lam_hi


@dataclass(frozen=True)
class OneLapEigenSet:
    pairs: tuple[OneLapPair, ...]
    values: tuple[Fraction, ...]
    lambda_1: Fraction
    lambda_2: Fraction | None
    smallest_positive: Fraction | None
    patterns_scanned: int
    patterns_solved: int
    # every scanned pattern that is not a pair, with the reason (a rejection
    # tuple; see check_certificate_1lap)
    rejections: tuple[tuple[tuple[int, ...], tuple], ...] = field(compare=False, repr=False)


def one_lap_enumerate(g: SignedGraph, cap: int = ONE_LAP_CAP) -> OneLapEigenSet:
    """All verified 1-Laplacian eigenpairs with {-1,0,+1}-valued functions.

    Enumerates sign patterns up to global negation, prunes with an exact
    integer necessary condition, then decides each survivor by an exact
    max-flow. A pattern admits at most one lambda, so every pair is a
    point (``lam == lam_hi``). Each scanned pattern keeps its certificate,
    which ``check_certificate_1lap`` checks: a pair its witness, any other
    pattern the reason it was rejected.
    """
    if g.n > cap:
        raise GraphError(
            f"one_lap_enumerate is capped at n = {cap} vertices (graph has {g.n})"
        )
    pairs: list[OneLapPair] = []
    rejections = []
    scanned = solved = 0
    # one pattern of each pair f ~ -f, the one whose first nonzero entry is
    # +1; the zero pattern is skipped
    patterns = ((0,) * lead + (1,) + tail for lead in range(g.n)
                for tail in product((0, 1, -1), repeat=g.n - lead - 1))
    for pattern in patterns:
        scanned += 1
        cert = _prefilter_lambda_box(g, pattern)
        if cert is None:
            solved += 1
            cert = _pattern_lambda(g, pattern)
        if isinstance(cert, OneLapWitness):
            pairs.append(OneLapPair(lam=cert.lam, lam_hi=cert.lam, f=pattern, witness=cert))
        else:
            rejections.append((pattern, cert))
    pairs.sort(key=lambda pr: (pr.lam, pr.lam_hi, pr.f))
    values = sorted({pt for pr in pairs for pt in (pr.lam, pr.lam_hi)})
    if not values:
        raise GraphError("no 1-Laplacian eigenpairs found (unexpected)")
    lam1 = values[0]
    positives = [v for v in values if v > 0]
    smallest_pos = positives[0] if positives else None
    bal = balance_state(g).state in (BalanceState.BALANCED, BalanceState.BOTH)
    lam2 = smallest_pos if bal and lam1 == 0 else None
    return OneLapEigenSet(
        pairs=tuple(pairs),
        values=tuple(values),
        lambda_1=lam1,
        lambda_2=lam2,
        smallest_positive=smallest_pos,
        patterns_scanned=scanned,
        patterns_solved=solved,
        rejections=tuple(rejections),
    )


def smallest_positive_1lap(g: SignedGraph) -> Fraction:
    """Smallest positive 1-Laplacian variational eigenvalue, by components.

    Equals the minimum of h_2 over balanced components and h_1 over
    unbalanced components.
    """
    if any(kv != 0 for kv in g.kappa):
        raise GraphError("smallest_positive_1lap requires kappa == 0 everywhere")
    cands: list[Fraction] = []
    for comp in components(g):
        sub = induced_subgraph(g, comp)
        bal = balance_state(sub).state in (BalanceState.BALANCED, BalanceState.BOTH)
        if bal:
            if sub.n >= 2:
                cands.append(_cheeger.cheeger_k(sub, 2).value)
        else:
            cands.append(_cheeger.cheeger_k(sub, 1).value)
    if not cands:
        raise GraphError("no component admits a positive eigenvalue")
    return min(cands)
