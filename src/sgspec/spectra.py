"""Spectra: exact p=2 eigendecomposition, extremal eigenpairs for p > 1,
enumerated 1-Laplacian eigenpairs and Cheeger upper bounds.

The p=2 case reduces to a symmetric matrix pencil and is solved by
``np.linalg.eigh`` on the symmetrically normalized matrix. For general
p > 1 only the extremes of the Rayleigh quotient are computed, every
restart a column of one matrix run in lock step: projected gradient until
the column's eigen-residual is below HANDOFF, then a Newton polish that
stops at the rounding floor; a column the polish leaves uncertified
resumes its gradient and is polished again. Each gradient step is one
fused pass over the operator kernels of :mod:`sgspec.operators`, carrying
the edge differences of f from the step that accepted f; each Newton step
takes the edge differences once, for its right-hand side and its
Jacobian. Neither loop calls a public operator. Every reported
pair is re-certified by its eigen-residual. For p = 1 candidates are the
+-1/0 patterns, scanned in the int8 blocks of the Cheeger table and screened
per block exactly, by integer ranks of the screen's bounds fixed once per
graph; no float decides a pattern. The survivors meet one more exact
integer pass per block, the pin stage: two pins that differ, or one zero
vertex whose flux exceeds its slack, reject a column there. Only the rest is
decided by an exact integer max-flow that leaves a certificate: a witness
for a pair, checked by ``check_certificate_1lap``, else the reason. Every
rejection, of the screen, the pin stage or the flow, is kept in one field
as int8 blocks of patterns with their certificates, for the one block
checker ``check_rejections_1lap``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import cheeger as _cheeger
from .graph import (BalanceState, GraphError, SignedGraph, _exponent, balance_state, components,
                    induced_subgraph)
from .operators import (
    OneLapWitness, _delta, _edge_diffs, _eigen_terms, _pattern_lambda, _quotient, _residual,
    phi_p, rayleigh,
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
NEWTON_ITERS = 50  # Newton steps per polish
MAX_ITER = 2000  # gradient steps per start, resumed runs included
STEP = 0.1  # the first gradient step size
TOL = 1e-9  # eigen-residual that certifies an extreme


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
    Returns the state and which columns handed off without stalling.

    One fused step on the operators' kernels: the edge differences d of f
    are carried from the Rayleigh quotient that accepted f, |f|^(p-1) is
    taken once, and one |eq| serves the stall test (max |p eq| = p max |eq|,
    rounding being monotone) and the eigen-residual."""
    m = f.shape[1]
    c, mu = g.columns(m), g.mu_array()[:, None]
    d = _edge_diffs(c, f.ravel()).reshape(-1, m)  # edge-major, as in c
    while True:
        eq, aeq, res = _eigen_terms(c, p, f, d.ravel(), r, mu)
        stalled = (p * aeq.max(axis=0) < 1e-14) | (eta < 1e-15) | (steps >= max_iter)
        live = ~(stalled | (res < handoff))
        if not live.any():
            return f, r, eta, steps, ~stalled
        steps += live
        f_try = f - sign * eta * (p * eq)
        nonzero = f_try.any(axis=0)  # a zero column is rejected; f stands in
        f_try = _normalize_p(g, p, np.where(nonzero, f_try, f))
        x_try = f_try.ravel()
        d_try = _edge_diffs(c, x_try)
        r_try = _quotient(c, p, x_try, d_try, m)
        better = live & nonzero & (sign * (r_try - r) < -1e-16)
        f, r = np.where(better, f_try, f), np.where(better, r_try, r)
        d = np.where(better, d_try.reshape(-1, m), d)
        eta = np.where(better, eta * 1.2, np.where(live, eta * 0.5, eta))


def _lockstep_newton(g, p, f, lam):
    """Damped Newton on (Delta_p f - lam mu Phi_p f, mu-p-norm - 1), one
    eigenpair per column, each keeping its best iterate by residual and
    stopping once that is at most NEWTON_FLOOR or after NEWTON_ITERS steps.
    Second derivatives |t|^(p-2) are clipped away from zero arguments for
    p < 2. A step takes the edge differences d once, for the right-hand side
    and the Jacobian."""
    n, m = f.shape
    mu, kap, diag = g.mu_array()[:, None], g.kappa_array()[:, None], np.arange(n)
    f, lam = _normalize_p(g, p, f), lam.copy()
    res = _residual(g, p, f, lam)
    steps, live = np.zeros(m, dtype=int), np.flatnonzero(res > NEWTON_FLOOR)
    for _ in range(NEWTON_ITERS):
        if not live.size:
            break
        k, fl, ll = live.size, f[:, live], lam[live]
        cv, x = g.columns(k), fl.ravel()
        d = _edge_diffs(cv, x)
        phi = phi_p(fl, p)
        rhs = np.empty((k, n + 1))
        rhs[:, :n] = -(_delta(cv, p, d, phi).reshape(n, k) - ll * mu * phi).T
        rhs[:, n] = -(np.bincount(cv.col[:x.size], cv.mu * np.abs(x) ** p, k) - 1.0)
        c = (p - 1) * cv.ew * np.maximum(np.abs(d), 1e-12) ** (p - 2)
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
            r = _residual(g, p, f_try, lam_try)
            hit = searching & f_try.any(axis=0) & (r < res[live])
            f[:, live[hit]], lam[live[hit]], res[live[hit]] = f_try[:, hit], lam_try[hit], r[hit]
            accepted |= hit
            searching &= ~hit
            t = np.where(searching, t * 0.5, t)
        steps[live[accepted]] += 1
        live = live[accepted & (res[live] > NEWTON_FLOOR)]
    return f, lam, res, steps


def extremal_p(g: SignedGraph, p: float, restarts: int = 8, seed: int = 0) -> ExtremalResult:
    """Certified extremes of the p-Rayleigh quotient for p > 1. The starts,
    each a column: the p = 2 extreme eigenvector and ``restarts`` random
    ones, for the min and then for the max. Each column runs the projected
    gradient until its eigen-residual is below HANDOFF, then Newton; a
    column that Newton leaves above TOL resumes its gradient where it
    handed off, runs it until it stalls, and is polished again."""
    _exponent(p, single_valued=True)
    if restarts < 0:
        raise GraphError(f"restarts must be >= 0, got {restarts}")
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
        g, p, f0, rayleigh(g, p, f0), np.full(sign.size, STEP), np.zeros(sign.size, dtype=int),
        sign, MAX_ITER, HANDOFF)
    f, lam, res, nsteps = _lockstep_newton(g, p, fg, r)
    resumed = handed & ~(res <= TOL)
    if resumed.any():
        j = np.flatnonzero(resumed)
        fj, rj, _, gsteps[j], _ = _lockstep_gradient(g, p, fg[:, j], r[j], eta[j], gsteps[j],
                                                     sign[j], MAX_ITER, 0.0)
        f[:, j], lam[j], res[j], more = _lockstep_newton(g, p, fj, rj)
        nsteps[j] += more
    trace = tuple({"which": "min" if s > 0 else "max", "lambda": float(lam[j]),
                   "residual": float(res[j]), "gradient_steps": int(gsteps[j]),
                   "newton_steps": int(nsteps[j]), "resumed": bool(resumed[j])}
                  for j, s in enumerate(sign))
    ok = res <= TOL
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
    _cheeger._require_zero_kappa(g, "upper_bound_lambda_k")
    _exponent(p, single_valued=False)
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
    f: tuple[int, ...]
    witness: OneLapWitness = field(compare=False, repr=False)


@dataclass(frozen=True)
class OneLapEigenSet:
    pairs: tuple[OneLapPair, ...]
    values: tuple[Fraction, ...]
    lambda_1: Fraction
    lambda_2: Fraction | None
    smallest_positive: Fraction | None
    patterns_scanned: int
    patterns_solved: int
    # every scanned pattern that is not a pair, one (kind, t, first, second)
    # per block and kind: (kind, first[..., j], second[..., j]) rejects column
    # j of the int8 block t (see check_rejections_1lap)
    rejected: tuple[tuple[str, np.ndarray, np.ndarray, np.ndarray], ...] = field(
        compare=False, repr=False)


def _screened_blocks(g: SignedGraph):
    """Yields ``(t, rejected, x, y)`` per block t of ``cheeger._labelings(g.n)``:
    the lambda-box screen of every column, decided exactly. A column is
    rejected, at ``("screen", x, y)``, when lo_x / mu_x > hi_y / mu_y for
    support vertices x and y (see ``check_certificate_1lap``); x has the
    largest lo_x / mu_x and y the least hi_y / mu_y.

    On ``g.scaled_ints``, hi_x = kappa_x + W_x and lo_x = hi_x - 2 F_x, with
    W_x and F_x the weight of the edges and of the free edges at x. F_x is
    one of the subset sums of x's edge weights, so all bounds are ranked
    once, in Python ints, by ``cheeger._ranks`` (their denominators are at
    most max mu); a block looks up each lo_x by the bits of x's free edges,
    and integer compares decide every column."""
    n = g.n
    # slot k of vertex x: its k-th edge, or the edge past the last, whose sigma 0 is never free
    slots = [[e for e, (u, v, _, _) in enumerate(g.edges) if x in (u, v)] for x in range(n)]
    width = max(map(len, slots))
    slot = np.array([s + [len(g.edges)] * (width - len(s)) for s in slots],
                    np.intp).reshape(n, -1)
    eu, ev = np.append(g.eu, 0), np.append(g.ev, 0)
    sigma = np.append(g.es, 0).astype(np.int8)[:, None]
    # lo_of[x << width | c]: the rank of lo_x / mu_x where the slots in the
    # bits of c are free; lo_of[n << width] = -1, below every rank, is off
    # the support; hi_of[x] is the rank at c = 0, hi_of[n] above every rank
    mu, kappa, _, adj = g.scaled_ints
    nums = []
    for kap, a in zip(kappa, adj):
        sums = [0]  # sums[c]: the weight of the slots in the bits of c (padding weighs 0)
        for w in [w for _, w, _ in a] + [0] * (width - len(a)):
            sums += [s + w for s in sums]
        nums += [kap + sums[-1] - 2 * s for s in sums]
    dens = [m for m in mu for _ in range(1 << width)]
    lo_of = np.append(_cheeger._ranks(nums, dens, max(mu)), -1)
    hi_of = np.append(lo_of[:-1:1 << width], len(nums))
    start = (np.arange(n) << width)[:, None]
    for t, _, _ in _cheeger._labelings(n):
        # t_u sigma t_v is 1 exactly on a free edge, else 0 or -1: clipped at 0, a bool array
        free = np.maximum(t[eu] * sigma * t[ev], 0).view(bool)
        code = np.where(t != 0, start, n << width)
        for k in range(width):
            np.add(code, 1 << k, out=code, where=free[slot[:, k]])
        lo, hi = lo_of[code], hi_of[code >> width]
        yield t, lo.max(axis=0) > hi.min(axis=0), lo.argmax(axis=0), hi.argmin(axis=0)


def _pin_stage(g: SignedGraph):
    """The exact stage between the screen and ``_pattern_lambda``: a function
    of an int8 block t of patterns giving ``(pins, cut, first, second, pi)``.
    Column j is rejected at ``("pins", first[:, j], second[:, j])`` where
    pins[j], two pins as masks, and at ``("zero-cut", first[:, j], pi[:, j])``
    where cut[j]; first is the pin of the least support vertex, as in
    ``_pattern_lambda``.

    On ``g.scaled_ints``: the flux c and the free support edges of every
    column, the components of those edges (each vertex labelled by the
    least vertex of its component, one edge at a time across all columns),
    and each component's pin (sum sgn_x c_x, sum mu_x). Pins that differ reject;
    else, with lambda = a / b from first, so does a zero vertex y with
    b (|c_y| - |kappa_y| - Z_y) > |a| mu_y, Z_y the weight of its zero-zero
    edges: pi is sgn(c_y) at y alone. Each |sum of fluxes| is at most
    A = sum |kappa| + 2 sum w and each sum of mu at most B = sum mu, so the
    sums are int64 when A, B < 2**62 and the products when A B < 2**62;
    else they take Python ints (dtype object)."""
    mu, kappa, edges, _ = g.scaled_ints
    n, e, w = g.n, np.arange(len(edges)), [x for _, _, x, _ in edges]
    # mu over dm multiplies lambda by dm, and kappa and w over dk divide it by
    # dk; every pin comparison and zero-cut inequality is unchanged
    dm, dk = math.gcd(*mu), math.gcd(*kappa, *w) or 1
    mu, kappa, w = [x // dm for x in mu], [x // dk for x in kappa], [x // dk for x in w]
    span, total = sum(map(abs, kappa)) + 2 * sum(w), sum(mu)
    dtype = np.int64 if max(span, total) < 2**62 else object
    wide = dtype if span * total < 2**62 else object
    inc, weight = np.zeros((n, e.size), dtype), np.zeros((n, e.size), dtype)
    inc[g.eu, e] = weight[g.eu, e] = weight[g.ev, e] = w
    inc[g.ev, e] = [-s * x for (_, _, _, s), x in zip(edges, w)]
    mu, kappa = np.array(mu, dtype)[:, None], np.array(kappa, dtype)[:, None]
    sigma, diag = g.es.astype(np.int8)[:, None], np.arange(n)
    ends = list(zip(g.eu.tolist(), g.ev.tolist()))

    def decide(t):
        cols, on = np.arange(t.shape[1]), t != 0
        d = np.sign(t[g.eu] - sigma * t[g.ev])  # z_uv, or 0 where it is free
        c = kappa * t + inc @ d
        # lab: the least vertex of each vertex's component; a free support
        # edge relabels the larger of its ends' labels to the smaller
        lab = np.repeat(diag[:, None], cols.size, axis=1)
        for (u, v), free in zip(ends, (d == 0) & on[g.eu]):
            lu, lv = lab[u], lab[v]
            np.copyto(lab, np.minimum(lu, lv), where=lab == np.where(free, np.maximum(lu, lv), -1))
        hit = lab == diag[:, None, None]  # [k, x, j]: x lies in component k of column j
        num, den = (hit * (t * c)).sum(axis=1), (hit * mu).sum(axis=1)  # the pins, by k
        lead = lab[on.argmax(axis=0), cols]
        a, b = num[lead, cols], den[lead, cols]
        differ = (hit & on).any(axis=1) & (num.astype(wide) * b != a.astype(wide) * den)
        pins = differ.any(axis=0)
        zeros = weight @ (~on[g.eu] & ~on[g.ev])
        over = ~on & ~pins & (b.astype(wide) * (abs(c) - abs(kappa) - zeros)
                              > abs(a).astype(wide) * mu)
        cut, y = over.any(axis=0), over.argmax(axis=0)
        pi = np.zeros(t.shape, np.int8)
        pi[y[cut], cols[cut]] = np.sign(c[y[cut], cols[cut]])
        return pins, cut, lab == lead, lab == differ.argmax(axis=0), pi

    return decide


def one_lap_enumerate(g: SignedGraph) -> OneLapEigenSet:
    """All verified 1-Laplacian eigenpairs with {-1,0,+1}-valued functions,
    for n up to ONE_LAP_CAP.

    Scans the sign patterns up to global negation in the int8 blocks of
    ``cheeger._labelings``, which also drive the Cheeger table, and screens
    each block exactly by integer ranks of its bounds (``_screened_blocks``):
    a pattern is rejected there by a screen pair, or survives
    (``patterns_solved`` counts the survivors). The pin stage
    (``_pin_stage``) decides the survivors that need no flow, a block at a
    time; only the rest loop in Python, each decided by an exact max-flow.
    A pattern admits at most one lambda, so a pair is one (lambda, pattern).
    Each scanned pattern keeps its certificate: a pair its witness, for
    ``check_certificate_1lap``, and every other pattern the reason it was
    rejected, in ``rejected``, for ``check_rejections_1lap``. Per block there
    is one entry per kind: the screen's pairs, the pin stage's two pins,
    the flow's support cuts, and the zero cuts of the stage and the flow.
    """
    if g.n > ONE_LAP_CAP:
        raise GraphError(
            f"one_lap_enumerate is capped at n = {ONE_LAP_CAP} vertices (graph has {g.n})"
        )
    if g.n == 0:
        raise GraphError("one_lap_enumerate needs at least one vertex")
    pairs: list[OneLapPair] = []
    rejected = []
    scanned = solved = 0
    decide = _pin_stage(g)
    for t, screened, x, y in _screened_blocks(g):
        scanned += t.shape[1]
        rest = t[:, ~screened]
        solved += rest.shape[1]
        pins, cut, first, second, pi = decide(rest)
        # the flow decides the rest; a cut it finds joins the block's entries
        # with the pin first of the stage, which all the pins agree with
        side = np.zeros_like(cut)
        flow = np.flatnonzero(~(pins | cut))
        for j, pattern in zip(flow.tolist(), zip(*rest[:, flow].tolist())):
            cert = _pattern_lambda(g, pattern)
            if isinstance(cert, OneLapWitness):
                pairs.append(OneLapPair(lam=cert.lam, f=pattern, witness=cert))
            elif cert[0] == "zero-cut":
                cut[j], pi[:, j] = True, cert[2]
            else:  # a support cut: the stage leaves the flow no two pins
                side[j], second[:, j] = True, [x in cert[2] for x in range(g.n)]
        rejected += [("screen", t[:, screened], x[screened], y[screened]),
                     ("pins", rest[:, pins], first[:, pins], second[:, pins]),
                     ("support-cut", rest[:, side], first[:, side], second[:, side]),
                     ("zero-cut", rest[:, cut], first[:, cut], pi[:, cut])]
    pairs.sort(key=lambda pr: (pr.lam, pr.f))
    values = sorted({pr.lam for pr in pairs})
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
        rejected=tuple(rejected),
    )


def smallest_positive_1lap(g: SignedGraph) -> Fraction:
    """Smallest positive 1-Laplacian variational eigenvalue, by components.

    Equals the minimum of h_2 over balanced components and h_1 over
    unbalanced components.
    """
    _cheeger._require_zero_kappa(g, "smallest_positive_1lap")
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
