"""Signed p-Laplacian application, Rayleigh quotients, eigenpair verification.

For p > 1 the operator is single-valued and residuals are checked in a
scale-free relative form. For p = 1 the eigen-condition is a differential
inclusion with Sgn intervals; it is decided exactly as a rational linear
feasibility problem (see :mod:`sgspec.simplex`).
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


def one_lap_lambda_range(g: SignedGraph, f) -> list[tuple[Fraction, Fraction]]:
    """All lambda for which (lambda, f) satisfies the 1-Laplacian inclusion.

    Returned as a list of disjoint exact closed intervals (usually single
    points). The system splits into two blocks sharing no z variables:
    support-vertex equalities constrain lambda to an interval [a, b], and
    zero-vertex interval constraints are monotone in |lambda| with a
    threshold t. The answer is [a, b] minus the open band (-t, t).
    """
    f = np.asarray(f, dtype=float)
    if not np.any(f):
        raise GraphError("eigenfunction must be nonzero")
    n = g.n
    fr = [Fraction(float(v)) for v in f]
    mu = [Fraction(m) for m in g.mu]
    kap = [Fraction(k) for k in g.kappa]
    sgn = [0 if v == 0 else (1 if v > 0 else -1) for v in fr]
    support = [x for x in range(n) if sgn[x] != 0]
    zeros = [x for x in range(n) if sgn[x] == 0]

    # Classify edges: determined z (d != 0), free support-support (d == 0)
    # and free zero-zero. const[x] accumulates determined flux at x.
    const = [kap[x] * sgn[x] for x in range(n)]
    s_edges: list[tuple[int, int, Fraction, int]] = []
    z_edges: list[tuple[int, int, Fraction, int]] = []
    for u, v, w, s in g.edges:
        wq = Fraction(w)
        d = fr[u] - s * fr[v]
        if d != 0:
            z = 1 if d > 0 else -1
            const[u] += wq * z
            const[v] += -s * wq * z
        elif sgn[u] != 0:
            s_edges.append((u, v, wq, s))
        else:
            z_edges.append((u, v, wq, s))

    lam_bound = min(
        (sum((Fraction(w) for a, b, w, _ in g.edges if x in (a, b)), Fraction(0))
         + abs(kap[x])) / mu[x]
        for x in support
    )

    # Support block: const_x + sum coeff z = lambda mu_x sgn_x.
    ns = len(s_edges)
    rows, rhs = [], []
    for x in support:
        row = [Fraction(0)] * (ns + 1)
        for e, (u, v, w, s) in enumerate(s_edges):
            if u == x:
                row[e] += w
            elif v == x:
                row[e] += -s * w
        row[ns] = -mu[x] * sgn[x]
        rows.append(row)
        rhs.append(-const[x])
    lo = [Fraction(-1)] * ns + [-lam_bound]
    hi = [Fraction(1)] * ns + [lam_bound]
    cmin = [Fraction(0)] * ns + [Fraction(1)]
    res_min = simplex.solve_lp(rows, rhs, cmin, lo, hi)
    if res_min.status != "optimal":
        return []
    res_max = simplex.solve_lp(rows, rhs, [-v for v in cmin], lo, hi)
    a, b = res_min.objective, -res_max.objective

    # Zero block: |const_y + sum coeff z + kappa_y z_y| <= t mu_y, min t.
    t_star = Fraction(0)
    if zeros:
        nz = len(z_edges)
        zpos = {y: i for i, y in enumerate(zeros)}
        nv = nz + len(zeros) + 1  # z_edges, z_y, t
        idx_t = nv - 1
        rows2, rhs2, lo2, hi2 = [], [], [], []
        lo2 = [Fraction(-1)] * (nz + len(zeros)) + [Fraction(0)]
        hi2 = [Fraction(1)] * (nz + len(zeros)) + [lam_bound + 1]
        for y in zeros:
            base = [Fraction(0)] * nv
            cap = abs(const[y]) + abs(kap[y]) + (lam_bound + 1) * mu[y]
            for e, (u, v, w, s) in enumerate(z_edges):
                if u == y:
                    base[e] += w
                elif v == y:
                    base[e] += -s * w
                cap += w
            base[nz + zpos[y]] = kap[y]
            # expr + t mu - s1 = 0 and expr - t mu + s2 = 0, slacks >= 0
            r1 = base[:] + [Fraction(0)] * (2 * len(zeros))
            r2 = base[:] + [Fraction(0)] * (2 * len(zeros))
            r1[idx_t] = mu[y]
            r2[idx_t] = -mu[y]
            k = 2 * zpos[y]
            r1[nv + k] = Fraction(-1)
            r2[nv + k + 1] = Fraction(1)
            rows2.append(r1)
            rhs2.append(-const[y])
            rows2.append(r2)
            rhs2.append(-const[y])
            lo2.extend([Fraction(0), Fraction(0)])
            hi2.extend([2 * cap, 2 * cap])
        width = nv + 2 * len(zeros)
        c2 = [Fraction(0)] * width
        c2[idx_t] = Fraction(1)
        res_t = simplex.solve_lp(rows2, rhs2, c2, lo2, hi2)
        if res_t.status != "optimal":
            return []
        t_star = res_t.objective

    intervals = []
    if t_star == 0:
        if a <= b:
            intervals.append((a, b))
    else:
        if a <= -t_star:
            intervals.append((a, min(b, -t_star)))
        if b >= t_star:
            intervals.append((max(a, t_star), b))
    return intervals
