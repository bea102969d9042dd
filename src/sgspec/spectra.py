"""Spectra: exact p=2 eigendecomposition, extremal eigenpairs for p > 1,
enumerated 1-Laplacian eigenpairs and Cheeger upper bounds.

The p=2 case reduces to a symmetric matrix pencil and is solved by
``np.linalg.eigh`` on the symmetrically normalized matrix. For general
p > 1 only the extremes of the Rayleigh quotient are computed, every
restart a column of one matrix run in lock step: projected gradient until
the column's eigen-residual is below HANDOFF, then a Newton polish that
stops at the rounding floor; a column the polish leaves uncertified
resumes its gradient and is polished again. Every reported pair is
re-certified by its eigen-residual. For p = 1 candidates are the +-1/0
patterns, each decided by an exact integer max-flow that leaves a
certificate: a witness for each pair, a reason for each rejected pattern,
both checked in linear time by ``check_certificate_1lap``.
"""

from __future__ import annotations

import math
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
HANDOFF = 1e-4  # eigen-residual at which a gradient column hands off to Newton
NEWTON_FLOOR = 1e-15  # residual at which a Newton column stops: rounding is all that is left


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


def form_matrix(g: SignedGraph) -> np.ndarray:
    """Symmetric form matrix: L_xx = sum_y w_xy + kappa_x, L_xy = -sigma w_xy."""
    lmat = np.zeros((g.n, g.n))
    lmat[g.eu, g.ev] = lmat[g.ev, g.eu] = -g.es * g.ew
    lmat[np.diag_indices(g.n)] = g.incident_sums(g.ew) + g.kappa_array()
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
    # per start, min starts first: which, lambda, residual, gradient_steps,
    # newton_steps (resumed runs included) and whether it resumed
    trace: tuple[dict, ...] = field(default=())
    lockstep_steps: int = 0  # the most gradient steps of any start


def _normalize_p(g: SignedGraph, p: float, f: np.ndarray) -> np.ndarray:
    """Each column of f over its mu-weighted l^p norm."""
    c = g.columns(f.shape[1])
    scale = np.bincount(c.col[:f.size], c.mu * np.abs(f.ravel()) ** p, f.shape[1]) ** (1.0 / p)
    if (scale == 0.0).any():
        raise GraphError("cannot normalize the zero function")
    return f / scale


def _lockstep_gradient(g, p, f, r, eta, steps, sign, max_iter, handoff):
    """Projected gradient on the mu-weighted l^p sphere, one start per column
    of the normalized f, from the state (Rayleigh quotients r, step sizes
    eta, step counts); sign[j] = +1 minimizes column j. Each column keeps its
    own step, acceptance and stopping test, and a stopped column stays
    frozen. A column stalls on |grad| < 1e-14, eta < 1e-15 or max_iter steps
    in all; it hands off once its eigen-residual is below ``handoff``.
    Returns the state and which columns handed off without stalling."""
    mu = g.mu_array()[:, None]
    while True:
        eq = apply_p_laplacian(g, p, f) - r * mu * phi_p(f, p)
        grad = p * eq
        stalled = (np.abs(grad).max(axis=0) < 1e-14) | (eta < 1e-15) | (steps >= max_iter)
        # eigen_residual(g, p, f, r), read off the gradient
        res = (np.abs(eq) / (1.0 + np.abs(r) * mu * np.abs(f) ** (p - 1))).max(axis=0)
        live = ~(stalled | (res < handoff))
        if not live.any():
            return f, r, eta, steps, ~stalled
        steps += live
        f_try = f - sign * eta * grad
        nonzero = f_try.any(axis=0)  # a zero column is rejected; f stands in
        f_try = _normalize_p(g, p, np.where(nonzero, f_try, f))
        r_try = rayleigh(g, p, f_try)
        better = live & nonzero & (sign * (r_try - r) < -1e-16)
        f, r = np.where(better, f_try, f), np.where(better, r_try, r)
        eta = np.where(better, eta * 1.2, np.where(live, eta * 0.5, eta))


def _lockstep_newton(g, p, f, lam, iters: int = 50):
    """Damped Newton on (Delta_p f - lam mu Phi_p f, mu-p-norm - 1), one
    eigenpair per column, each keeping its best iterate by residual and
    stopping once that is at most NEWTON_FLOOR. Second derivatives
    |t|^(p-2) are clipped away from zero arguments for p < 2."""
    n, m = f.shape
    mu, kap, diag = g.mu_array()[:, None], g.kappa_array()[:, None], np.arange(n)
    f, lam = _normalize_p(g, p, f), lam.copy()
    res = eigen_residual(g, p, f, lam)
    steps, live = np.zeros(m, dtype=int), np.flatnonzero(res > NEWTON_FLOOR)
    for _ in range(iters):
        if not live.size:
            break
        k, fl, ll = live.size, f[:, live], lam[live]
        phi = phi_p(fl, p)
        rhs = np.empty((k, n + 1))
        rhs[:, :n] = -(apply_p_laplacian(g, p, fl) - ll * mu * phi).T
        cv, x = g.columns(k), fl.ravel()
        rhs[:, n] = -(np.bincount(cv.col[:x.size], cv.mu * np.abs(x) ** p, k) - 1.0)
        c = (p - 1) * cv.ew * np.maximum(np.abs(x[cv.eu] - cv.es * x[cv.ev]), 1e-12) ** (p - 2)
        jac = np.zeros((k, n + 1, n + 1))
        jac[:, g.eu, g.ev] = jac[:, g.ev, g.eu] = (-cv.es * c).reshape(-1, k).T
        incident = np.bincount(cv.bins, np.concatenate((np.zeros(x.size), c, c)),
                               x.size).reshape(n, k)
        dabs = np.maximum(np.abs(fl), 1e-12) ** (p - 2)
        jac[:, diag, diag] = (incident + (p - 1) * (kap - ll * mu) * dabs).T
        jac[:, :n, n], jac[:, n, :n] = (-mu * phi).T, (p * mu * phi).T
        try:
            step = np.linalg.solve(jac, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:  # solve one by one: a singular one stops its column
            step = np.full((k, n + 1), np.nan)
            for j in range(k):
                try:
                    step[j] = np.linalg.solve(jac[j], rhs[j])
                except np.linalg.LinAlgError:
                    pass
        # damped line search on the residual, up to 30 halvings per column
        searching = np.isfinite(step).all(axis=1)
        accepted = np.zeros(k, dtype=bool)
        t = np.ones(k)
        for _ in range(30):
            if not searching.any():
                break
            f_try, lam_try = fl + t * step[:, :n].T, ll + t * step[:, n]
            r = eigen_residual(g, p, f_try, lam_try)
            hit = searching & f_try.any(axis=0) & (r < res[live])
            f[:, live[hit]], lam[live[hit]], res[live[hit]] = f_try[:, hit], lam_try[hit], r[hit]
            accepted |= hit
            searching &= ~hit
            t = np.where(searching, t * 0.5, t)
        steps[live[accepted]] += 1
        live = live[accepted & (res[live] > NEWTON_FLOOR)]
    return f, lam, res, steps


def extremal_p(
    g: SignedGraph,
    p: float,
    max_iter: int = 2000,
    step: float = 0.1,
    tol: float = 1e-9,
    restarts: int = 8,
    seed: int = 0,
) -> ExtremalResult:
    """Certified extremes of the p-Rayleigh quotient for p > 1. The starts,
    each a column: the p = 2 extreme eigenvector and ``restarts`` random
    ones, for the min and then for the max. Each column runs the projected
    gradient until its eigen-residual is below HANDOFF, then Newton; a
    column that Newton leaves above ``tol`` resumes its gradient where it
    handed off, runs it until it stalls, and is polished again."""
    if not (math.isfinite(p) and p > 1):
        raise GraphError(f"extremal_p requires a finite p > 1, got {p}")
    if restarts < 0:
        raise GraphError(f"restarts must be >= 0, got {restarts}")
    if not (math.isfinite(step) and step > 0 and math.isfinite(tol) and tol > 0):
        raise GraphError(f"step and tol must be finite and > 0, got {step} and {tol}")
    if not max_iter >= 1:
        raise GraphError(f"max_iter must be >= 1, got {max_iter}")
    if g.n == 0:
        raise GraphError("extremal_p needs at least one vertex")
    rng = np.random.default_rng(seed)
    vecs = spectrum_p2(g).vectors
    starts = []
    for warm in (vecs[:, 0], vecs[:, -1]):
        starts += [warm, *(rng.standard_normal(g.n) for _ in range(restarts))]
    sign = np.repeat([1.0, -1.0], restarts + 1)
    f0 = _normalize_p(g, p, np.column_stack(starts))
    fg, r, eta, gsteps, handed = _lockstep_gradient(
        g, p, f0, rayleigh(g, p, f0), np.full(sign.size, step), np.zeros(sign.size, dtype=int),
        sign, max_iter, HANDOFF)
    f, lam, res, nsteps = _lockstep_newton(g, p, fg, r)
    resumed = handed & ~(res <= tol)
    if resumed.any():
        j = np.flatnonzero(resumed)
        fj, rj, _, gsteps[j], _ = _lockstep_gradient(g, p, fg[:, j], r[j], eta[j], gsteps[j],
                                                     sign[j], max_iter, 0.0)
        f[:, j], lam[j], res[j], more = _lockstep_newton(g, p, fj, rj)
        nsteps[j] += more
    trace = tuple({"which": "min" if s > 0 else "max", "lambda": float(lam[j]),
                   "residual": float(res[j]), "gradient_steps": int(gsteps[j]),
                   "newton_steps": int(nsteps[j]), "resumed": bool(resumed[j])}
                  for j, s in enumerate(sign))
    ok = res <= tol
    # certified first, then the extreme lambda, else the smallest residual;
    # min keeps the first of equal keys
    jmin, jmax = (min(cols, key=lambda j: (not ok[j], s * lam[j] if ok[j] else res[j]))
                  for s, cols in ((1, range(restarts + 1)), (-1, range(restarts + 1, sign.size))))
    return ExtremalResult(
        p=p, lambda_min=float(lam[jmin]), f_min=f[:, jmin].copy(), residual_min=float(res[jmin]),
        lambda_max=float(lam[jmax]), f_max=f[:, jmax].copy(), residual_max=float(res[jmax]),
        converged_min=bool(ok[jmin]), converged_max=bool(ok[jmax]),
        trace=trace, lockstep_steps=int(gsteps.max()))


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
