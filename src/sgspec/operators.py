"""Signed p-Laplacian application, Rayleigh quotients, eigenpair verification.

For p > 1 the operator is single-valued and residuals are checked in a
scale-free relative form. For p = 1 the eigen-condition is a differential
inclusion with Sgn intervals. Given a sign pattern f, the lambda it admits
is a single point or nothing: each component of support edges with
f_u = sigma f_v pins lambda, and the rest is a network feasibility
question, decided by an exact integer max-flow (``one_lap_lambda_range``).
``check_eigenpair_1lap`` decides one (lambda, f) as a rational linear
feasibility problem on the exact simplex (:mod:`sgspec.simplex`), the
independent re-verifier of every reported pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import GraphError, SignedGraph
from . import simplex

__all__ = [
    "phi_p",
    "apply_p_laplacian",
    "rayleigh",
    "eigen_residual",
    "EigenPair",
    "ResidualCertificate",
    "check_eigenpair",
    "check_eigenpair_1lap",
    "one_lap_lambda_range",
]

_TINY = 1e-300


def phi_p(t, p: float):
    """Phi_p(t) = |t|^(p-2) t with Phi_p(0) = 0; vectorized.

    Values with |t| < 1e-300 are mapped to 0 to avoid overflow of the
    |t|^(p-2) factor for p < 2.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mask = np.abs(t) >= _TINY
    out[mask] = np.sign(t[mask]) * np.abs(t[mask]) ** (p - 1)
    return out if out.ndim else float(out)


def apply_p_laplacian(g: SignedGraph, p: float, f) -> np.ndarray:
    """Apply the signed p-Laplacian pointwise, p > 1."""
    if p <= 1:
        raise GraphError("apply_p_laplacian requires p > 1; use the inclusion checker for p = 1")
    f = np.asarray(f, dtype=float)
    t = g.ew * phi_p(f[g.eu] - g.es * f[g.ev], p)
    # Phi_p(f_v - sigma f_u) = -sigma Phi_p(f_u - sigma f_v), so one phi_p per
    # edge serves both endpoints. With sorted edges each vertex adds its terms
    # after the potential term in edge order, as a per-edge loop would.
    return np.bincount(np.concatenate((np.arange(g.n), g.ev, g.eu)),
                       np.concatenate((g.kappa_array() * phi_p(f, p), -g.es * t, t)), g.n)


def rayleigh(g: SignedGraph, p: float, f) -> float:
    """p-Rayleigh quotient of a nonzero function (scale invariant)."""
    f = np.asarray(f, dtype=float)
    if not np.any(f):
        raise GraphError("Rayleigh quotient undefined for the zero function")
    fp = np.abs(f) ** p
    edge_terms = g.ew * np.abs(f[g.eu] - g.es * f[g.ev]) ** p
    num = float(np.dot(g.kappa_array(), fp)) + float(np.sum(edge_terms))
    return num / float(np.dot(g.mu_array(), fp))


def eigen_residual(g: SignedGraph, p: float, f, lam: float) -> float:
    """Max over vertices of |Delta_p f - lam mu Phi_p f| / (1 + |lam| mu |f|^(p-1))."""
    f = np.asarray(f, dtype=float)
    mu = g.mu_array()
    lap = apply_p_laplacian(g, p, f)
    scale = 1.0 + abs(lam) * mu * np.abs(f) ** (p - 1)
    return float(np.max(np.abs(lap - lam * mu * phi_p(f, p)) / scale))


@dataclass(frozen=True)
class EigenPair:
    lam: float
    f: np.ndarray
    p: float

    def __post_init__(self):
        if self.p < 1:
            raise GraphError("p must be >= 1")
        if not np.any(np.asarray(self.f)):
            raise GraphError("eigenfunction must be nonzero")


@dataclass(frozen=True)
class ResidualCertificate:
    verdict: bool
    max_residual: float | None = None
    witness: dict | None = None

    def to_json(self) -> dict:
        doc = {"verdict": self.verdict}
        if self.max_residual is not None:
            doc["max_residual"] = self.max_residual
        if self.witness is not None:
            doc["witness"] = {
                k: {str(kk): float(vv) for kk, vv in v.items()}
                for k, v in self.witness.items()
            }
        return doc


def check_eigenpair(g: SignedGraph, pair: EigenPair, tol: float = 1e-9) -> ResidualCertificate:
    """Relative residual check of the eigen-equation for p > 1."""
    if pair.p <= 1:
        raise GraphError("check_eigenpair requires p > 1")
    res = eigen_residual(g, pair.p, pair.f, pair.lam)
    return ResidualCertificate(verdict=res <= tol, max_residual=res)


def _inclusion_system(g: SignedGraph, f, lam_fixed: Fraction):
    """Assemble the rational feasibility system for the 1-Laplacian inclusion
    at a fixed lambda.

    Variables (in order): one z per edge (canonical orientation u -> v),
    one z_x per vertex, one s_x per vertex for the right-hand Sgn interval.
    Determined entries get collapsed bounds lo == hi.
    """
    n = len(g.ids)
    fr = [Fraction(float(v)) for v in f]
    w = [Fraction(we) for _, _, we, _ in g.edges]
    mu = [Fraction(m) for m in g.mu]
    kap = [Fraction(k) for k in g.kappa]

    ne = len(g.edges)
    idx_z = list(range(ne))
    idx_zx = [ne + i for i in range(n)]
    nv = ne + n

    lo: list[Fraction] = []
    hi: list[Fraction] = []
    # Edge variables z_e = z_{uv}.
    for (u, v, _, s), _w in zip(g.edges, w):
        d = fr[u] - s * fr[v]
        if d > 0:
            lo.append(Fraction(1)); hi.append(Fraction(1))
        elif d < 0:
            lo.append(Fraction(-1)); hi.append(Fraction(-1))
        else:
            lo.append(Fraction(-1)); hi.append(Fraction(1))
    # Vertex variables z_x in Sgn(f(x)).
    for x in range(n):
        if fr[x] > 0:
            lo.append(Fraction(1)); hi.append(Fraction(1))
        elif fr[x] < 0:
            lo.append(Fraction(-1)); hi.append(Fraction(-1))
        else:
            lo.append(Fraction(-1)); hi.append(Fraction(1))
    # Sgn slack s_x on the right-hand side.
    for x in range(n):
        if fr[x] > 0:
            lo.append(Fraction(1)); hi.append(Fraction(1))
        elif fr[x] < 0:
            lo.append(Fraction(-1)); hi.append(Fraction(-1))
        else:
            lo.append(Fraction(-1)); hi.append(Fraction(1))
    idx_sx = [nv + i for i in range(n)]
    ncols = nv + n

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for x in range(n):
        # sum_y w z_xy + kappa z_x - lam mu s_x = 0
        r = [Fraction(0)] * ncols
        for e, ((u, v, _, s), we) in enumerate(zip(g.edges, w)):
            if u == x:
                r[idx_z[e]] += we
            elif v == x:
                # z_{vu} = -sigma * z_{uv}
                r[idx_z[e]] += -s * we
        r[idx_zx[x]] += kap[x]
        r[idx_sx[x]] = -lam_fixed * mu[x]
        rows.append(r)
        rhs.append(Fraction(0))
    return rows, rhs, lo, hi, idx_z, idx_zx


def check_eigenpair_1lap(g: SignedGraph, lam, f) -> ResidualCertificate:
    """Decide the 1-Laplacian eigen-inclusion exactly; return a witness if feasible.

    Existence of {z_xy}, {z_x} with z_xy in Sgn(f(x) - sigma f(y)),
    z_xy = -sigma z_yx, z_x in Sgn(f(x)) and
    sum_y w z_xy + kappa_x z_x in lam mu_x Sgn(f(x)) at every vertex.
    ``lam`` may be a float or an exact Fraction (floats convert losslessly).
    """
    f = np.asarray(f, dtype=float)
    if not np.any(f):
        raise GraphError("eigenfunction must be nonzero")
    lam_q = lam if isinstance(lam, Fraction) else Fraction(float(lam))
    rows, rhs, lo, hi, idx_z, idx_zx = _inclusion_system(g, f, lam_q)
    res = simplex.feasible(rows, rhs, lo, hi)
    if res.status != "optimal":
        return ResidualCertificate(verdict=False)
    x = res.x
    witness = {
        "z_edge": {f"{g.ids[u]},{g.ids[v]}": x[idx_z[e]] for e, (u, v, _, _) in enumerate(g.edges)},
        "z_vertex": {g.ids[i]: x[idx_zx[i]] for i in range(g.n)},
    }
    return ResidualCertificate(verdict=True, witness=witness)


def _prefilter_lambda_box(g: SignedGraph, f) -> bool:
    """Exact per-vertex necessary condition on lambda for a {-1, 0, +1}
    pattern ``f``; False means infeasible.

    For each support vertex x the inclusion pins lambda to an interval
    [lo_x / mu_x, hi_x / mu_x] of achievable normalized flux; the intervals
    must intersect. The bounds are ``g.scaled_ints`` sums, compared exactly
    by cross-multiplication (mu > 0).
    """
    mu, kappa, _, adj = g.scaled_ints
    lo_max = hi_min = None  # (flux, mu) of the largest lower / smallest upper end
    for x, fx in enumerate(f):
        if fx == 0:
            continue
        lo = hi = kappa[x] * fx  # z_x = sign(f_x) determined
        for y, w, s in adj[x]:
            # z_xy = sign(d) is determined unless d = 0, where it spans [-1, 1]
            d = fx - s * f[y]
            lo += w if d > 0 else -w
            hi += w if d >= 0 else -w
        # lambda * mu_x * sign(f_x) must equal the flux
        if fx < 0:
            lo, hi = -hi, -lo
        if lo_max is None or lo * lo_max[1] > lo_max[0] * mu[x]:
            lo_max = (lo, mu[x])
        if hi_min is None or hi * hi_min[1] < hi_min[0] * mu[x]:
            hi_min = (hi, mu[x])
        if lo_max[0] * hi_min[1] > hi_min[0] * lo_max[1]:
            return False
    return True


def _feasible_flow(n: int, arcs, lo, hi) -> bool:
    """Whether a flow x_e in [-cap, cap] on each arc ``(a, b, cap)`` (from a
    to b; the arcs are undirected) exists with net outflow in
    [lo[v], hi[v]] at every node v < n, given lo <= hi. Exact on Python ints.

    Lower-bound reduction: a root node r feeds each v through an arc with
    flow in [lo_v, hi_v]; sending lo_v up front leaves supply lo_v at v and
    -sum(lo) at r, and a flow is feasible iff a max flow from the positive
    to the negative supplies (BFS augmenting paths) carries all of it.
    """
    r, s, t = n, n + 1, n + 2
    res: list[dict[int, int]] = [{} for _ in range(n + 3)]

    def arc(a: int, b: int, cap: int) -> None:
        res[a][b] = res[a].get(b, 0) + cap
        res[b].setdefault(a, 0)

    for a, b, cap in arcs:
        arc(a, b, cap)
        arc(b, a, cap)
    supply = [*lo, -sum(lo)]
    for v in range(n):
        if hi[v] > lo[v]:
            arc(r, v, hi[v] - lo[v])
    need = 0
    for v, sup in enumerate(supply):
        if sup > 0:
            arc(s, v, sup)
            need += sup
        elif sup < 0:
            arc(v, t, -sup)
    while need:
        prev = {s: s}
        queue = [s]
        for a in queue:
            for b, cap in res[a].items():
                if cap and b not in prev:
                    prev[b] = a
                    queue.append(b)
            if t in prev:
                break
        else:
            return False
        push, b = need, t
        while b != s:
            push = min(push, res[prev[b]][b])
            b = prev[b]
        b = t
        while b != s:
            a = prev[b]
            res[a][b] -= push
            res[b][a] += push
            b = a
        need -= push
    return True


def _pattern_lambda(g: SignedGraph, f: list[float]) -> Fraction | None:
    """The one lambda for which (lambda, f) satisfies the 1-Laplacian
    inclusion, or None; see ``one_lap_lambda_range``."""
    mu, kappa, edges, _ = g.scaled_ints
    n = len(mu)
    sgn = [(x > 0) - (x < 0) for x in f]
    flux = [k * sx for k, sx in zip(kappa, sgn)]  # determined flux c_x
    root = list(range(n))  # union-find over free support edges

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    support_arcs, zero_edges = [], []
    for u, v, w, s in edges:
        fu, fv = f[u], s * f[v]
        if fu != fv:
            z = w if fu > fv else -w
            flux[u] += z
            flux[v] -= s * z
        elif sgn[u]:
            # sgn_v = sigma sgn_u, so y = sgn_u z_uv is a flow u -> v
            support_arcs.append((u, v, w))
            root[find(u)] = find(v)
        else:
            zero_edges.append((u, v, w, s))

    # each component C of free support edges pins lambda mu(C) = sum sgn_x c_x
    pins: dict[int, list[int]] = {}
    for x in range(n):
        if sgn[x]:
            pin = pins.setdefault(find(x), [0, 0])
            pin[0] += sgn[x] * flux[x]
            pin[1] += mu[x]
    (num, den), *rest = pins.values()
    if any(a * den != num * b for a, b in rest):
        return None
    lam = Fraction(num, den)
    p, q = lam.numerator, lam.denominator  # everything below is scaled by q

    if support_arcs:
        demand = [p * mu[x] - q * sgn[x] * flux[x] if sgn[x] else 0 for x in range(n)]
        if not _feasible_flow(n, [(u, v, q * w) for u, v, w in support_arcs], demand, demand):
            return None

    # zero vertex y: the net flux of its zero-zero edges lies in
    # [-|lam| mu_y - |kappa_y| - c_y, |lam| mu_y + |kappa_y| - c_y]
    cover = {y: 2 * i for i, y in enumerate(sorted({x for e in zero_edges for x in e[:2]}))}
    lo, hi = [0] * (2 * len(cover)), [0] * (2 * len(cover))
    for y in range(n):
        if sgn[y]:
            continue
        slack = abs(p) * mu[y] + q * abs(kappa[y])
        if y in cover:
            i = cover[y]
            lo[i], hi[i] = -slack - q * flux[y], slack - q * flux[y]
            lo[i + 1], hi[i + 1] = -hi[i], -lo[i]
        elif q * abs(flux[y]) > slack:
            return None
    if zero_edges:
        # Negative edges are not conservative, so decide the block on the
        # signed double cover: y+ carries the interval, y- its negation; a
        # positive edge joins u+v+ and u-v-, a negative one u+v- and u-v+.
        # Averaging a cover flow with its mirror gives a solution here.
        arcs = []
        for u, v, w, s in zero_edges:
            a, b = cover[u], cover[v] + (s < 0)
            arcs += [(a, b, q * w), (a + 1, b ^ 1, q * w)]
        if not _feasible_flow(len(lo), arcs, lo, hi):
            return None
    return lam


def one_lap_lambda_range(g: SignedGraph, f) -> list[tuple[Fraction, Fraction]]:
    """All lambda for which (lambda, f) satisfies the 1-Laplacian inclusion,
    as a list of exact closed intervals: one point ``[(lam, lam)]`` or ``[]``.

    Only the signs of f and of the f_u - sigma f_v matter. The system splits
    into two blocks that share only lambda:

    * Support block. On a free support edge (f_u = sigma f_v != 0)
      y = sgn(f_u) z_uv is a conservative flow of capacity w. Each
      component C of such edges therefore pins lambda mu(C) to the sum of
      sgn_x c_x over C, where c_x is the determined flux at x; all
      components must agree, and then a flow with demands
      lambda mu_x - sgn_x c_x must exist. So the range is a point or empty.
    * Zero block. Feasibility is monotone in |lambda|, and is decided at
      |lambda| by a flow on the signed double cover of the zero-zero edges.

    Both blocks are exact max-flows in Python ints over ``g.scaled_ints``;
    only lambda itself is a Fraction. ``check_eigenpair_1lap`` re-verifies
    a pair by an independent path, the exact simplex.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (g.n,):
        raise GraphError(f"eigenfunction has shape {f.shape}, expected ({g.n},)")
    if not np.all(np.isfinite(f)):
        raise GraphError("eigenfunction must be finite")
    if not np.any(f):
        raise GraphError("eigenfunction must be nonzero")
    lam = _pattern_lambda(g, f.tolist())
    return [] if lam is None else [(lam, lam)]
