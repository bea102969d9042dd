"""Spectra: exact p=2 eigendecomposition, extremal eigenpairs for p > 1,
enumerated 1-Laplacian eigenpairs and Cheeger upper bounds.

The p=2 case reduces to a symmetric matrix pencil and is solved by
``np.linalg.eigh`` on the symmetrically normalized matrix. For general
p > 1 only the extremes of the Rayleigh quotient are computed, every
restart a column of one matrix run in lock step: projected gradient until
the column's eigen-residual is below HANDOFF, then a Newton polish that
stops at the rounding floor. The gradient's step lengths are those of
Barzilai and Borwein (IMA J. Numer. Anal. 8(1), 1988), as used on
constraint manifolds by Wen and Yin (Math. Program. 142, 2013): <s, s> /
<s, y> over the last accepted step where <s, y> > 0, at most BB_CAP, and
halved on a rejected trial. A column the polish leaves uncertified
resumes its gradient and is polished again. Each gradient step is one
fused pass over the operator kernels of :mod:`sgspec.operators`, carrying
the edge differences of f from the step that accepted f; after a step in
which no column accepted, the gradient and its tests are kept, not taken
again, and a trial is masked only when one of its columns is zero. The
iterates equal, bit for bit, those of a loop that takes the gradient at
every step. Each Newton step takes the edge differences once, for its
right-hand side and its Jacobian, and Phi_p f by the kernels' one
formula. Neither loop calls a public operator. Every reported pair is
re-certified by its eigen-residual. For p = 1 candidates are the
+-1/0 patterns, scanned in the int8 blocks of the Cheeger table and screened
per block exactly: integer ranks of the screen's bounds, fixed once per
graph, find the two support vertices whose intervals lie highest and
lowest, and integer compares test lambda against them; no float decides a
pattern. The survivors meet one more exact integer pass per block, the pin
stage: a component of free support edges whose pin differs from the
support's, or one zero vertex whose flux exceeds its slack, rejects a
column there. Only the rest is decided by an exact integer max-flow that
leaves a certificate. A pair's is its witness; every rejection, of the
screen, the pin stage or the flow, is a cut, signs pi in {-1, 0, 1} (see
``check_certificates_1lap``). Both are kept in one field, per block one
entry of cuts and one of witnesses, as int8 blocks of patterns with their
certificate arrays, for the one block checker. The screen and the pin
stage take their arrays, and the dtype of their products, from
``g.reduced_ints``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import cheeger as _cheeger
from .graph import (BalanceState, GraphError, SignedGraph, _block_labels, _exponent, _seed,
                    balance_state, components, induced_subgraph)
from .operators import (
    _delta, _edge_diffs, _eigen_terms, _pattern_lambda, _phi, _quotient, _residual, rayleigh,
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
BB_CAP = 1e6  # the largest Barzilai-Borwein step
TOL = 1e-9  # eigen-residual that certifies an extreme
RESTARTS = 8  # random starts per side of extremal_p


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
    of the normalized f, from the state (Rayleigh quotients r, step lengths
    eta, step counts); sign[j] = +1 minimizes column j. Each column keeps its
    own step, acceptance and stopping test, and a stopped column stays
    frozen. A trial f - eta grad, grad = sign p eq the descent-signed
    gradient, is accepted where it moves r the right way by more than 1e-16;
    a rejected trial halves eta. After an accepted step the next length is
    Barzilai and Borwein's <s, s> / <s, y>, s and y the changes of f and of
    grad over that step, where <s, y> > 0, at most BB_CAP; elsewhere eta
    stays. It is taken before the stop tests, so a column hands off with the
    length it resumes with. A column stalls on |grad| < 1e-14, eta < 1e-15
    or max_iter steps in all; it hands off once its eigen-residual is below
    ``handoff``. Returns the state and which columns handed off without
    stalling.

    One fused step on the operators' kernels: the edge differences d of f
    are carried from the Rayleigh quotient that accepted f, |f|^(p-1) is
    taken once, and one |eq| serves the stall test (max |p eq| = p max |eq|,
    rounding being monotone) and the eigen-residual. The previous f and
    grad are kept by reference: a column that did not accept has s = 0, so
    <s, y> = 0 keeps its eta with no mask. After a step in which no column
    accepted, f, r and d are the same objects, so the gradient, its tests
    and eta's Barzilai-Borwein update would come out the same (s = y = 0):
    they are kept, not taken again. A trial is normalized on the views of
    ``g.columns``; only when one of its scales is zero (a zero column, where
    f stands in and the trial is rejected, or an underflow, which raises) is
    it masked and normalized by ``_normalize_p``."""
    m = f.shape[1]
    c, mu = g.columns(m), g.mu_array()[:, None]
    col, cmu = c.col[:f.size], c.mu  # the vertex entries, for a trial's scale
    d = _edge_diffs(c, f.ravel()).reshape(-1, m)  # edge-major, as in c
    f_old, g_old, eta = f, 0.0, eta.copy()  # s = 0 until a column accepts
    sp, moved = sign * p, True  # exact: sp eq = sign (p eq) bit for bit
    while True:
        if moved:  # else f, r and d stand, and all of this would repeat
            eq, aeq, res = _eigen_terms(c, p, f, d.ravel(), r, mu)
            grad = sp * eq
            s, y = f - f_old, grad - g_old
            sy = np.vecdot(s, y, axis=0)
            np.minimum(np.divide(np.vecdot(s, s, axis=0), sy, out=eta, where=sy > 0), BB_CAP,
                       out=eta)
            f_old, g_old = f, grad
            flat, handed = p * aeq.max(axis=0) < 1e-14, res < handoff
        stalled = flat | (eta < 1e-15) | (steps >= max_iter)
        live = ~(stalled | handed)
        if not np.count_nonzero(live):
            return f, r, eta, steps, ~stalled
        steps += live
        f_try = f - eta * grad
        scale = np.bincount(col, cmu * np.abs(f_try.ravel()) ** p, m) ** (1.0 / p)
        ok = live
        if np.count_nonzero(scale) == m:
            f_try /= scale
        else:  # a zero column: f stands in and is rejected (an underflow raises)
            nonzero = f_try.any(axis=0)
            f_try, ok = _normalize_p(g, p, np.where(nonzero, f_try, f)), live & nonzero
        x_try = f_try.ravel()
        d_try = _edge_diffs(c, x_try)
        r_try = _quotient(c, p, x_try, d_try, m)
        better = ok & (sign * (r_try - r) < -1e-16)
        moved = np.count_nonzero(better)
        if moved:
            f, r = np.where(better, f_try, f), np.where(better, r_try, r)
            d = np.where(better, d_try.reshape(-1, m), d)
        np.multiply(eta, 0.5, out=eta, where=live & ~better)


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
        a = np.abs(fl)
        phi = _phi(fl, a, a ** (p - 1))
        rhs = np.empty((k, n + 1))
        rhs[:, :n] = -(_delta(cv, p, d, phi).reshape(n, k) - ll * mu * phi).T
        rhs[:, n] = -(np.bincount(cv.col[:x.size], cv.mu * np.abs(x) ** p, k) - 1.0)
        c = (p - 1) * cv.ew * np.maximum(np.abs(d), 1e-12) ** (p - 2)
        jac = np.zeros((k, n + 1, n + 1))
        jac[:, g.eu, g.ev] = jac[:, g.ev, g.eu] = (-cv.es * c).reshape(-1, k).T
        incident = np.bincount(cv.bins, np.concatenate((np.zeros(x.size), c, c)),
                               x.size).reshape(n, k)
        dabs = np.maximum(a, 1e-12) ** (p - 2)
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


def _extremes(g: SignedGraph, p: float, restarts: int, seed: int, sides) -> dict:
    """The extremes of ``sides``, ("min",), ("max",) or ("min", "max"), as
    the fields of ``ExtremalResult`` but p. The starts, each a column: per
    side, the p = 2 extreme eigenvector and ``restarts`` random ones; the rng
    draws the min's and then the max's whatever is asked. Each column runs the
    projected gradient until its eigen-residual is below HANDOFF, then
    Newton; a column that Newton leaves above TOL resumes its gradient where
    it handed off, runs it until it stalls, and is polished again.

    One side alone gives that side of both bit for bit when restarts >= 1.
    Not at restarts = 0: its one column is then contiguous, and ``np.vecdot``
    sums the Barzilai-Borwein products in another order."""
    _exponent(p, single_valued=True)
    _seed(seed)
    _seed(restarts, "restarts")
    if g.n == 0:
        raise GraphError("extremal_p needs at least one vertex")
    rng = np.random.default_rng(seed)
    vecs = spectrum_p2(g).vectors
    drawn = {side: [warm, *(rng.standard_normal(g.n) for _ in range(restarts))]
             for side, warm in (("min", vecs[:, 0]), ("max", vecs[:, -1]))}
    sign = np.repeat([1.0 if side == "min" else -1.0 for side in sides], restarts + 1)
    f0 = _normalize_p(g, p, np.column_stack([f for side in sides for f in drawn[side]]))
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
    out = {"trace": trace, "lockstep_steps": int(gsteps.max())}
    for i, side in enumerate(sides):
        # certified first, then the extreme lambda, else the smallest
        # residual; min keeps the first of equal keys
        j = min(range(i * (restarts + 1), (i + 1) * (restarts + 1)),
                key=lambda j: (not ok[j], sign[j] * lam[j] if ok[j] else res[j]))
        out |= {f"lambda_{side}": float(lam[j]), f"f_{side}": f[:, j].copy(),
                f"residual_{side}": float(res[j]), f"converged_{side}": bool(ok[j])}
    return out


def extremal_p(g: SignedGraph, p: float, restarts: int = RESTARTS,
               seed: int = 0) -> ExtremalResult:
    """Certified extremes of the p-Rayleigh quotient for p > 1, from the
    p = 2 extreme eigenvector and ``restarts`` random starts per side (see
    ``_extremes``)."""
    return ExtremalResult(p=p, **_extremes(g, p, restarts, seed, ("min", "max")))


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


@dataclass(frozen=True)
class OneLapEigenSet:
    pairs: tuple[OneLapPair, ...]
    values: tuple[Fraction, ...]
    lambda_1: Fraction
    lambda_2: Fraction | None
    smallest_positive: Fraction | None
    patterns_scanned: int
    patterns_solved: int
    # every scanned pattern, one ("cut", t, pi) and one ("witness", t, p, q,
    # z_edge, z_vertex) per block: (kind, *(a[..., j] for a in certs))
    # rejects or witnesses column j of the int8 block t (see
    # check_certificates_1lap)
    certificates: tuple[tuple, ...] = field(compare=False, repr=False)


def _screened_blocks(g: SignedGraph):
    """Yields ``(t, rejected, pi)`` per block t of ``cheeger._labelings(g.n)``:
    the lambda screen of every column, decided exactly. A column is
    rejected, at ``("cut", pi[:, j])``, when lambda = a / b of its support
    lies outside [lo_x / mu_x, hi_x / mu_x] for the support vertex x with
    the largest lo_x / mu_x (a mu_x < b lo_x, pi = -sgn_x at x alone) or
    for y with the least hi_y / mu_y (a mu_y > b hi_y, pi = sgn_y at y
    alone); [lo_x, hi_x] holds sgn_x times every flux that Sgn allows at x.
    lambda is a mediant of the midpoints of these intervals, so this
    rejects every column whose intervals do not all meet, and more.

    On ``g.reduced_ints``, hi_x = kappa_x + W_x, lo_x = hi_x - 2 F_x and
    sgn_x c_x = hi_x - F_x, with W_x and F_x the weight of the edges and of
    the free edges at x. F_x is one of the subset sums of x's edge weights,
    all of them one matrix product, so all bounds are ranked once, in
    Python ints, by ``cheeger._ranks`` (their denominators are at most max
    mu); a block looks up each F_x and the rank of each lo_x by the bits of
    x's free edges, and integer compares decide every column."""
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
    mu, kappa, w, wide = g.reduced_ints
    # sums[x, c]: the weight of x's slots in the bits of c (padding weighs 0)
    sums = np.append(w, 0)[slot] @ (np.arange(1 << width) >> np.arange(width)[:, None] & 1)
    nums = kappa[:, None] + sums[:, -1:] - 2 * sums
    lo_of = np.append(_cheeger._ranks(nums.ravel().tolist(), np.repeat(mu, 1 << width).tolist(),
                                      int(mu.max())), -1)
    hi_of = np.append(lo_of[:-1:1 << width], nums.size)
    lo_num, mid_num = nums.ravel(), np.append(nums + sums, 0)  # lo_x, and sgn_x c_x (0 off S)
    start = (np.arange(n) << width)[:, None]
    for t, _, _ in _cheeger._labelings(n):
        # t_u sigma t_v is 1 exactly on a free edge, else 0 or -1: clipped at 0, a bool array
        free = np.maximum(t[eu] * sigma * t[ev], 0).view(bool)
        code = np.where(t != 0, start, n << width)
        for k in range(width):
            np.add(code, 1 << k, out=code, where=free[slot[:, k]])
        cols = np.arange(t.shape[1])
        x, y = lo_of[code].argmax(axis=0), hi_of[code >> width].argmin(axis=0)
        a, b = mid_num[code].sum(axis=0).astype(wide), (mu @ (t != 0)).astype(wide)
        by_x = a * mu[x] < b * lo_num[code[x, cols]]
        by_y = ~by_x & (a * mu[y] > b * nums[y, 0])
        pi = np.zeros(t.shape, np.int8)
        pi[x[by_x], cols[by_x]] = -t[x[by_x], cols[by_x]]
        pi[y[by_y], cols[by_y]] = t[y[by_y], cols[by_y]]
        yield t, by_x | by_y, pi


def _pin_stage(g: SignedGraph):
    """The exact stage between the screen and ``_pattern_lambda``: a function
    of an int8 block t of patterns giving ``(rejected, pi)``. Column j is
    rejected at ``("cut", pi[:, j])`` where rejected[j], and pi[:, j] is 0
    elsewhere.

    On ``g.scaled_ints``: the flux c and the free support edges of every
    column, the components of those edges (each vertex labelled by the
    least vertex of its component, by one ``graph._block_labels`` call for
    the whole block), each component's pin (sum sgn_x c_x, sum mu_x) and
    the support's, lambda = a / b. The least-labelled component C whose pin
    differs from lambda rejects, as a cut of capacity 0 with pi =
    sign(a mu(C) - b sum_C sgn_x c_x) sgn on C; else so does the least zero
    vertex y with b (|c_y| - |kappa_y| - Z_y) > |a| mu_y, Z_y the weight of
    its zero-zero edges, with pi = -sgn(c_y) at y alone. Sums and products
    take the dtypes of ``g.reduced_ints``."""
    mu, kappa, w, wide = g.reduced_ints
    n, e = g.n, np.arange(w.size)
    inc, weight = np.zeros((n, e.size), w.dtype), np.zeros((n, e.size), w.dtype)
    inc[g.eu, e] = weight[g.eu, e] = weight[g.ev, e] = w
    inc[g.ev, e] = -g.es.astype(np.int8) * w
    mu, kappa = mu[:, None], kappa[:, None]
    sigma, diag = g.es.astype(np.int8)[:, None], np.arange(n)

    def decide(t):
        cols, on = np.arange(t.shape[1]), t != 0
        d = np.sign(t[g.eu] - sigma * t[g.ev])  # z_uv, or 0 where it is free
        c = kappa * t + inc @ d
        lab = _block_labels(n, g.eu, g.ev, (d == 0) & on[g.eu])  # the free support edges
        hit = lab == diag[:, None, None]  # [k, x, j]: x lies in component k of column j
        num, den = (hit * (t * c)).sum(axis=1), (hit * mu).sum(axis=1)  # the pins, by k
        a, b = (t * c).sum(axis=0), (on * mu).sum(axis=0)  # the support's
        gap = a.astype(wide) * den - num.astype(wide) * b
        differ = (hit & on).any(axis=1) & (gap != 0)
        by_side, k = differ.any(axis=0), differ.argmax(axis=0)
        pi = ((lab == k) * by_side * t * np.sign(gap[k, cols])).astype(np.int8)
        zeros = weight @ (~on[g.eu] & ~on[g.ev])
        over = ~on & ~by_side & (b.astype(wide) * (abs(c) - abs(kappa) - zeros)
                                 > abs(a).astype(wide) * mu)
        by_pi, y = over.any(axis=0), over.argmax(axis=0)
        pi[y[by_pi], cols[by_pi]] = -np.sign(c[y[by_pi], cols[by_pi]])
        return by_side | by_pi, pi

    return decide


def one_lap_enumerate(g: SignedGraph) -> OneLapEigenSet:
    """All verified 1-Laplacian eigenpairs with {-1,0,+1}-valued functions,
    for n up to ONE_LAP_CAP.

    Scans the sign patterns up to global negation in the int8 blocks of
    ``cheeger._labelings``, which also drive the Cheeger table, and screens
    each block exactly by integer ranks of its bounds (``_screened_blocks``):
    a pattern is rejected there by a one-vertex cut, or survives
    (``patterns_solved`` counts the survivors). The pin stage
    (``_pin_stage``) decides the survivors that need no flow, a block at a
    time; only the rest loop in Python, each decided by an exact max-flow.
    A pattern admits at most one lambda, so a pair is one (lambda, pattern).
    Each scanned pattern keeps its certificate in ``certificates``, for
    ``check_certificates_1lap``: a pair its witness, and every other pattern
    the cut that rejects it. Per block there are two entries, its cuts (of
    the screen, the pin stage and the flow, in column order) and the flow's
    witnesses.
    """
    if g.n > ONE_LAP_CAP:
        raise GraphError(
            f"one_lap_enumerate is capped at n = {ONE_LAP_CAP} vertices (graph has {g.n})"
        )
    if g.n == 0:
        raise GraphError("one_lap_enumerate needs at least one vertex")
    found = []  # (p, q, pattern) per witness, lambda = p / q in lowest terms
    certificates = []
    scanned = solved = 0
    decide = _pin_stage(g)
    for t, rejected, pi in _screened_blocks(g):
        scanned += t.shape[1]
        rest = np.flatnonzero(~rejected)
        solved += rest.size
        rejected[rest], pi[:, rest] = decide(t[:, rest])
        # the flow decides the rest; a cut it leaves joins the block's, and
        # a witness becomes the rows p, q, z_edge and z_vertex of one object
        # array
        flow = rest[~rejected[rest]]
        witnessed, z = [], []
        for j, pattern in zip(flow.tolist(), zip(*t[:, flow].tolist())):
            kind, *cols = _pattern_lambda(g, pattern)
            if kind == "witness":
                found.append((cols[0], cols[1], pattern))
                witnessed.append(j)
                z.append([cols[0], cols[1], *cols[2], *cols[3]])
            else:
                rejected[j], pi[:, j] = True, cols[0]
        z = np.array(z, object).reshape(len(z), 2 + len(g.edges) + g.n).T
        certificates += [("cut", t[:, rejected], pi[:, rejected]),
                         ("witness", t[:, witnessed], z[0], z[1], z[2:-g.n], z[-g.n:])]
    # pairs by (lambda, pattern), each of the few distinct lambdas ranked once
    values = sorted(Fraction(*pq) for pq in {w[:2] for w in found})
    rank = {(v.numerator, v.denominator): i for i, v in enumerate(values)}
    pairs = [OneLapPair(values[i], f) for i, f in sorted((rank[p, q], f) for p, q, f in found)]
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
        certificates=tuple(certificates),
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
