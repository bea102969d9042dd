"""Signed p-Laplacian application, Rayleigh quotients, eigenpair verification.

For p > 1 the operator is single-valued and residuals are checked in a
scale-free relative form. Delta_p, the Rayleigh quotient and the residual
are written once, as private kernels on flat column views and edge
differences, which the public functions and the fused gradient and Newton
steps of :mod:`sgspec.spectra` share. Every public function checks its f
once, by ``graph._function``; the kernels check nothing. For p = 1 the
eigen-condition is a differential inclusion with Sgn intervals. Given a sign
pattern f, the lambda it admits is a single point or nothing: the support of
f pins lambda to the ratio of its sums, and the rest is a network
feasibility question, decided by an exact integer max-flow
(``one_lap_lambda_range``). Every such flow runs on one core,
``_feasible_flow``: shortest augmenting paths (Edmonds & Karp) on a flat
residual network, from every node with excess at once, each node started
at the target in its interval nearest 0. Each decision leaves a
certificate: the flow, as a witness, when f admits lambda, and otherwise
the inequality that rules f out (a screen pair, or a support cut or a zero
cut from Hoffman's circulation theorem); every certificate takes lambda
from the support. A certificate has one form, a block column, and one
checker (certifying algorithms: McConnell, Mehlhorn, Naeher & Schweitzer,
Comput. Sci. Rev. 5(2), 2011): ``check_certificates_1lap`` checks one
pattern or a whole block of patterns in integers, independently of whatever
produced it, by a private kernel per kind on one shared boundary. A side is
an (n,) bool mask, pi (n,) ints, and a witness lambda = p / q with its z as
Python ints. ``check_eigenpair_1lap`` decides a given (lambda, f) by the
same checked max-flow; :mod:`sgspec.simplex` decides nothing here, and
remains only as the test oracles' independent LP and for the benchmark.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import GraphError, SignedGraph, _exponent, _function, _is

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
    "check_certificates_1lap",
]

_TINY = 1e-300


def phi_p(t, p: float):
    """Phi_p(t) = |t|^(p-2) t with Phi_p(0) = 0; vectorized.

    Values with |t| < 1e-300 are mapped to 0 to avoid overflow of the
    |t|^(p-2) factor for p < 2.
    """
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    out = _phi(t, a, a ** (p - 1))
    return out if out.ndim else float(out)


def _phi(t, a, pw):
    """Phi_p(t) from a = |t| and pw = |t|^(p-1): the one formula of phi_p."""
    return np.where(a >= _TINY, np.sign(t) * pw, 0.0)


# Delta_p, the Rayleigh quotient and the residual take f of shape (n,) or
# (n, m); column j of a 2-D result equals the 1-D call on f[:, j], bitwise:
# sums run through bincount, which adds in input order (BLAS does not).
# The private kernels below work on the flat x = f.ravel() of an (n, m) f
# and on its edge differences d = x_u - sigma x_v (``_edge_diffs``), in the
# layout of ``g.columns(m)``; the projected gradient of ``spectra`` keeps d
# across steps and calls them directly. They skip a potential that is zero
# everywhere (its view is None): each bincount sum starts at +0.0, and
# +0.0 + (+-0.0) = +0.0, so the skip changes no bit.

def _columns(g: SignedGraph, f, nonzero: bool = False) -> np.ndarray:
    """f, checked by ``_function``, as the (n, m) array of its columns."""
    f = _function(g, f, columns=True, nonzero=nonzero)
    return f[:, None] if f.ndim == 1 else f


def _edge_diffs(c, x) -> np.ndarray:
    """x_u - sigma x_v for every edge entry of the flat x."""
    return x[c.eu] - c.es * x[c.ev]


def _delta(c, p, d, phi_x) -> np.ndarray:
    """Flat Delta_p of the x with edge differences d and Phi_p(x) = phi_x
    (read only for a nonzero potential, in any shape). Phi_p(x_v - sigma x_u) =
    -sigma Phi_p(x_u - sigma x_v), so one Phi_p per edge serves both ends;
    with sorted edges each vertex adds its terms after the potential term
    in edge order, as a per-edge loop would."""
    a = np.abs(d)
    t = (c.inc * _phi(d, a, a ** (p - 1))).ravel()
    size = c.mu.size
    if c.kappa is None:
        return np.bincount(c.bins[size:], t, size)
    return np.bincount(c.bins, np.concatenate((c.kappa * phi_x.ravel(), t)), size)


def _quotient(c, p, x, d, m) -> np.ndarray:
    """p-Rayleigh quotient of each of the m columns of the flat x with edge
    differences d."""
    fp = np.abs(x) ** p
    edge_terms = c.ew * np.abs(d) ** p
    num = (np.bincount(c.col[x.size:], edge_terms, m) if c.kappa is None
           else np.bincount(c.col, np.concatenate((c.kappa * fp, edge_terms)), m))
    return num / np.bincount(c.col[:x.size], c.mu * fp, m)


def _eigen_terms(c, p, f, d, lam, mu):
    """For the (n, m) f with edge differences d, lam one per column (or a
    scalar) and mu the (n, 1) measure: eq = Delta_p f - lam mu Phi_p f, |eq|,
    and the eigen-residual max |eq| / (1 + |lam| mu |f|^(p-1)) per column.
    |f|^(p-1) is taken once, for Phi_p f and for the scale."""
    a = np.abs(f)
    pw = a ** (p - 1)
    phi = _phi(f, a, pw)
    eq = _delta(c, p, d, phi).reshape(f.shape) - lam * mu * phi
    aeq = np.abs(eq)
    return eq, aeq, (aeq / (1.0 + np.abs(lam) * mu * pw)).max(axis=0)


def _residual(g: SignedGraph, p, f, lam) -> np.ndarray:
    """The eigen-residual of each column of the (n, m) f."""
    c = g.columns(f.shape[1])
    return _eigen_terms(c, p, f, _edge_diffs(c, f.ravel()), lam, g.mu_array()[:, None])[2]


def apply_p_laplacian(g: SignedGraph, p: float, f) -> np.ndarray:
    """Apply the signed p-Laplacian pointwise, p > 1 (p = 1: ``check_eigenpair_1lap``)."""
    _exponent(p, single_valued=True)
    fc = _columns(g, f)
    x, c = fc.ravel(), g.columns(fc.shape[1])
    phi_x = None if c.kappa is None else phi_p(x, p)
    return _delta(c, p, _edge_diffs(c, x), phi_x).reshape(np.shape(f))


def rayleigh(g: SignedGraph, p: float, f):
    """p-Rayleigh quotient of a nonzero function (scale invariant), p >= 1."""
    _exponent(p, single_valued=False)
    fc = _columns(g, f, nonzero=True)
    m, x = fc.shape[1], fc.ravel()
    c = g.columns(m)
    q = _quotient(c, p, x, _edge_diffs(c, x), m)
    return q if np.ndim(f) == 2 else float(q[0])


def eigen_residual(g: SignedGraph, p: float, f, lam):
    """Max over vertices of |Delta_p f - lam mu Phi_p f| / (1 + |lam| mu |f|^(p-1));
    lam is a scalar or, for 2-D f, one per column; p > 1."""
    _exponent(p, single_valued=True)
    res = _residual(g, p, _columns(g, f), lam)
    return res if np.ndim(f) == 2 else float(res[0])


def _eigenvalue(lam) -> Fraction:
    """The one check of an eigenvalue: a finite real number, not a bool or a
    str, else GraphError. Returned as an exact Fraction: an int or a
    Fraction as it is, any other real through its float (losslessly for a
    float)."""
    if not (_is(lam, numbers.Real) and abs(lam) < math.inf):
        raise GraphError(f"eigenvalue must be a finite real number, got {lam!r}")
    return Fraction(lam) if isinstance(lam, numbers.Rational) else Fraction(float(lam))


@dataclass(frozen=True)
class EigenPair:
    lam: float
    f: np.ndarray
    p: float

    def __post_init__(self):
        _exponent(self.p, single_valued=False)
        _eigenvalue(self.lam)
        try:
            f = np.asarray(self.f, dtype=float)
        except (TypeError, ValueError):
            f = None
        if f is None or f.ndim != 1 or not np.isfinite(f).all():
            raise GraphError("eigenfunction must be a finite real vector")
        if not f.any():
            raise GraphError("eigenfunction must be nonzero")


@dataclass(frozen=True)
class ResidualCertificate:
    verdict: bool
    max_residual: float | None = None
    witness: dict | None = None


def check_eigenpair(g: SignedGraph, pair: EigenPair, tol: float = 1e-9) -> ResidualCertificate:
    """Relative residual check of the eigen-equation for p > 1. The residual
    is taken in floats, so a lambda beyond the float range is a GraphError
    (``check_eigenpair_1lap`` takes any finite lambda exactly)."""
    _exponent(pair.p, single_valued=True)
    try:
        lam = float(pair.lam)
    except OverflowError:
        raise GraphError("eigenvalue is beyond the float range of the residual") from None
    res = float(_residual(g, pair.p, _function(g, pair.f)[:, None], lam)[0])
    return ResidualCertificate(verdict=res <= tol, max_residual=res)


# ---------------------------------------------------------------------------
# 1-Laplacian certificates
#
# Every decision on a sign pattern f carries evidence that
# ``check_certificates_1lap`` re-checks from g and f alone. In what follows
# c_x is the determined flux at x: kappa_x sgn(f_x) plus w z_xy over the
# edges at x whose z_xy is fixed because f_x != sigma f_y. A *pin* is a
# nonempty set C of support vertices that no free support edge
# (f_u = sigma f_v != 0) leaves; summing sgn(f_x) times the inclusion over C
# cancels the free edges inside C, so lambda mu(C) = sum over C of sgn_x c_x.
# The support itself is a pin (a free support edge joins two support
# vertices), so every certificate takes lambda from the support's sums and
# none carries a pin. A certificate has one form, a column of a block
# (kind, t, *certs) described in ``check_certificates_1lap``: the max-flow
# decides one pattern and returns ("support-cut", side), ("zero-cut", pi)
# or ("witness", p, q, z_edge, z_vertex), side an (n,) bool mask, pi (n,)
# int8, p and q ints and the z lists of |E| and n Python ints, the columns
# that one_lap_enumerate keeps in blocks of patterns.


def _feasible_flow(n: int, arcs, lo, hi) -> tuple[list[int] | None, list[int] | None]:
    """A flow x_e in [-cap, cap] on each arc ``(a, b, cap)`` (from a to b;
    the arcs are undirected and join distinct pairs of nodes) with net
    outflow in [lo[v], hi[v]] at every node v < n, given lo <= hi:
    ``(flows, None)`` with one flow per arc, or ``(None, side)`` if there is
    none. Exact on Python ints.

    Reduction: a root node r = n feeds each v through a root arc r -> v
    whose flow g_v in [lo_v, hi_v] is the net outflow that v passes on, so
    a flow is feasible iff this network has a circulation. Each g_v starts
    at the target t_v in [lo_v, hi_v] nearest 0, which leaves excess t_v at
    v and -sum(t) at r; the root arc can still raise g_v by hi_v - t_v or
    lower it by t_v - lo_v, so the root arcs carry the rest in either
    direction. If every t_v is 0 the zero flow is feasible, and no network
    is built.

    Each augmentation is one BFS over the residual network from every node
    with positive excess at once. It enters no node with positive excess,
    stops at the first node with a deficit that it reaches, and pushes
    along that path as much as the path, its start's excess and its end's
    deficit allow. With a super source joined to the nodes with excess and
    a super sink to those with a deficit, this is a shortest augmenting
    path, so Edmonds and Karp's bound holds (J. ACM 19(2), 1972). The flow
    is feasible once no excess is left.

    If a search reaches no deficit, let S be the nodes it reached: every
    node with positive excess and no node with a deficit, so S holds
    positive excess, and every residual arc that leaves S is saturated.
    ``side`` is S without r. By Hoffman's circulation theorem it rules out
    every flow, with cap(dX) the capacity of the arcs with one end in X:
    - r outside S: each root arc into S is at g_v = lo_v, and each arc
      that leaves S carries its capacity out, so the excess of S is
      sum(lo) over S - cap(dS) > 0. The nodes of S must pass on more than
      the cut lets out.
    - r inside S: let T be the nodes v < n outside S. Each root arc into T
      is at g_v = hi_v, and each arc into T carries its capacity in, so the
      excess of T is sum(hi) over T + cap(dT). T holds no positive excess,
      and all excess sums to 0, so it is negative: sum(hi) over T <
      -cap(dT). T must take in more than the cut lets in.
    """
    excess = [lo[v] if lo[v] > 0 else hi[v] if hi[v] < 0 else 0 for v in range(n)]
    if not any(excess):
        return [0] * len(arcs), None
    excess.append(-sum(excess))
    # arc e runs from head[e ^ 1] to head[e] with residual capacity res[e],
    # and out[v] lists the arcs that leave v: the arcs of the network, each
    # with its reverse, then the root arcs r -> v and their reverses
    head, res = [], []
    for a, b, cap in arcs:
        head += (b, a)
        res += (cap, cap)
    for v in range(n):
        if hi[v] > lo[v]:
            head += (v, n)
            res += (hi[v] - excess[v], excess[v] - lo[v])
    out = [[] for _ in range(n + 1)]
    for e, b in enumerate(head):
        out[b].append(e ^ 1)
    while queue := [v for v, x in enumerate(excess) if x > 0]:
        via = [-1] * (n + 1)  # the arc by which the search first reaches a node
        for a in queue:
            for e in out[a]:
                if res[e] and via[b := head[e]] < 0 and excess[b] <= 0:
                    via[b] = e
                    if excess[b] < 0:
                        break
                    queue.append(b)
            else:
                continue
            break
        else:
            return None, [v for v in queue if v < n]
        push, v = -excess[b], b
        while (e := via[v]) >= 0:
            push = min(push, res[e])
            v = head[e ^ 1]
        push = min(push, excess[v])
        excess[v], excess[b] = excess[v] - push, excess[b] + push
        while (e := via[b]) >= 0:
            res[e], res[e ^ 1] = res[e] - push, res[e ^ 1] + push
            b = head[e ^ 1]
    return [cap - x for (_, _, cap), x in zip(arcs, res[::2])], None


def _pattern_lambda(g: SignedGraph, f) -> tuple:
    """Decide a pattern: the witness for the one lambda at which (lambda, f)
    satisfies the 1-Laplacian inclusion, or the reason that no lambda does,
    ``(kind, *columns)`` as above; see ``one_lap_lambda_range``."""
    mu, kappa, edges, _ = g.scaled_ints
    n = len(mu)
    sgn = [(x > 0) - (x < 0) for x in f]
    flux = [k * sx for k, sx in zip(kappa, sgn)]  # determined flux c_x
    fixed = [0] * len(edges)  # w z_uv where f fixes z_uv
    support_arcs, zero_edges = [], []
    for e, (u, v, w, s) in enumerate(edges):
        fu, fv = f[u], s * f[v]
        if fu != fv:
            fixed[e] = z = w if fu > fv else -w
            flux[u] += z
            flux[v] -= s * z
        elif sgn[u]:
            # sgn_v = sigma sgn_u, so y = sgn_u z_uv is a flow u -> v
            support_arcs.append((e, u, v, w))
        else:
            zero_edges.append((e, u, v, w, s))

    # the support is a pin: lambda mu(support) = sum sgn_x c_x over it
    lam = Fraction(sum(sx * c for sx, c in zip(sgn, flux)), sum(m for sx, m in zip(sgn, mu) if sx))
    p, q = lam.numerator, lam.denominator  # everything below is scaled by q
    # a pin that differs from lambda is a cut of capacity 0, which the flow
    # finds also where no free support edge joins the one-vertex pins
    demand = [p * mu[x] - q * sgn[x] * flux[x] if sgn[x] else 0 for x in range(n)]
    support_flows, side = _feasible_flow(
        n, [(u, v, q * w) for _, u, v, w in support_arcs], demand, demand)
    if support_flows is None:
        return "support-cut", np.array([x in side for x in range(n)])

    # zero vertex y: the net flux of its zero-zero edges lies in
    # [-|lam| mu_y - |kappa_y| - c_y, |lam| mu_y + |kappa_y| - c_y]
    covered = sorted({x for e in zero_edges for x in e[1:3]})
    cover = {y: 2 * i for i, y in enumerate(covered)}
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
            pi = np.zeros(n, np.int8)
            pi[y] = 1 if flux[y] > 0 else -1
            return "zero-cut", pi
    zero_flows = []
    if zero_edges:
        # Negative edges are not conservative, so decide the block on the
        # signed double cover: y+ carries the interval, y- its negation; a
        # positive edge joins u+v+ and u-v-, a negative one u+v- and u-v+.
        # Averaging a cover flow with its mirror gives a solution here.
        arcs = []
        for _, u, v, w, s in zero_edges:
            a, b = cover[u], cover[v] + (s < 0)
            arcs += [(a, b, q * w), (a + 1, b ^ 1, q * w)]
        zero_flows, side = _feasible_flow(len(lo), arcs, lo, hi)
        if zero_flows is None:
            # pi_y = [y- on the source side] - [y+ on it], whichever side of
            # Hoffman's condition the cut violates
            pi = np.zeros(n, np.int8)
            for node in side:
                pi[covered[node // 2]] += 1 if node % 2 else -1
            return "zero-cut", pi

    # The witness, over the common denominator 2q: a support flow x on u -> v
    # is 2 sgn_u x, and a zero-zero edge takes the mirror average (x+ - x-).
    d = 2 * q
    t = [d * z for z in fixed]
    for (e, u, _, _), x in zip(support_arcs, support_flows):
        t[e] = 2 * sgn[u] * x
    excess = [d * c for c in flux]  # edge flux; read at zero vertices only
    for (e, u, v, _, s), x_plus, x_minus in zip(zero_edges, zero_flows[::2], zero_flows[1::2]):
        t[e] = a = x_plus - x_minus
        excess[u] += a
        excess[v] -= s * a
    # z_y of a zero vertex absorbs what it can of its edge flux
    z_vertex = [sx * k * d if sx else max(-abs(k) * d, min(abs(k) * d, -ex))
                for sx, k, ex in zip(sgn, kappa, excess)]
    return "witness", p, q, t, z_vertex


def _block(g: SignedGraph, t, *certs):
    """The one boundary of the block checker: t an (n, m) array of finite
    reals and each certificate ``(array, kinds, rows)`` an array of numpy
    kind in ``kinds``, of shape (m,) if rows is None, else (rows, m) (an
    empty one of any kind), and an object array (kind "O") only of Python
    ints, not bools or floats; else GraphError. Integer arrays are read
    exactly: t in int64 (Python ints past 2**62), the certificates in Python
    ints where they may be objects, else in intp (a uint past 2**63 - 1 as
    2**63 - 1, out of range either way). Returns sgn(t) and the sign d of
    t_u - sigma t_v per edge (z_uv, or 0 where it is free), both int8, the
    certificate arrays, and ``g.reduced_ints``: mu, kappa and w, and the
    dtype of products (see its bounds A and B). A support cut's demand
    a mu(X) - b sum_X sgn_x c_x is a difference of two such products, below
    2 A B < 2**63 in absolute value, and b times its capacity is at most
    A B."""
    n, t = g.n, np.asarray(t)
    if t.ndim != 2 or len(t) != n or t.dtype.kind not in "iuf" or not np.isfinite(t).all():
        raise GraphError(f"sign patterns must be an ({n}, m) array of finite reals, "
                         f"got {t.dtype} of shape {t.shape}")
    if t.dtype.kind in "iu":  # sigma t_v exact: int64, or Python ints past 2**62
        small = not t.size or -2**62 < int(t.min()) and int(t.max()) < 2**62
        t = t.astype(np.int64 if small else object)
    checked = []
    for a, kinds, rows in certs:
        a, shape = np.asarray(a), t.shape[1:] if rows is None else (rows, t.shape[1])
        if (a.shape != shape or (a.size and a.dtype.kind not in kinds)
                or a.dtype.kind == "O" and not {*map(type, a.flat)} <= {int}):
            raise GraphError(f"a certificate array has shape {a.shape} and kind {a.dtype.kind!r}, "
                             f"expected {shape} and one of {kinds!r}, objects as Python ints")
        # past 2**63 - 1 no vertex or pi, and none at 2**63 - 1
        if a.dtype.kind == "u" and "O" not in kinds:
            a = np.minimum(a.astype(np.uint64), 2**63 - 1)
        checked.append(a.astype(object if "O" in kinds else bool if kinds == "b" else np.intp))
    tu, tv = t[g.eu], g.es.astype(np.int8)[:, None] * t[g.ev]
    return (np.sign(t).astype(np.int8), (tu > tv).astype(np.int8) - (tu < tv), checked,
            *g.reduced_ints)


def _support(g: SignedGraph, sgn, d, mu, kappa, w):
    """The flux c (n, m) and the free support edges (E, m) of a checked
    block, and each column's lambda = a / b from its support: a the sum of
    sgn_x c_x and b the sum of mu_x over it (both 0 for a zero column)."""
    inc = np.zeros((g.n, len(g.edges)), np.int8)
    inc[g.eu, np.arange(len(g.edges))], inc[g.ev, np.arange(len(g.edges))] = 1, -g.es
    c = kappa[:, None] * sgn + inc @ (w[:, None] * d)
    on = sgn != 0
    return c, (d == 0) & on[g.eu], (sgn * c).sum(axis=0), (on * mu[:, None]).sum(axis=0)


def _screen(g: SignedGraph, t, x, y) -> np.ndarray:
    """lo_x and hi_y are summed from ``g.scaled_ints``, not from the ranks of
    ``spectra._screened_blocks``, and compared as lo_x mu_y > hi_y mu_x."""
    sgn, d, (x, y), mu, kappa, w, wide = _block(g, t, (x, "iu", None), (y, "iu", None))
    cols, n = np.arange(sgn.shape[1]), g.n
    ok = (0 <= x) & (x < n) & (0 <= y) & (y < n)
    x, y = np.where(ok, x, 0), np.where(ok, y, 0)
    ok &= (sgn[x, cols] != 0) & (sgn[y, cols] != 0)
    # sgn(t) times z at each end of an edge (z_vu = -sigma z_uv), and the free edges
    at_u, at_v, free = sgn[g.eu] * d, -g.es.astype(np.int8)[:, None] * sgn[g.ev] * d, d == 0

    def bound(z, free_z: int):  # sgn(t_z) times the flux at z, each free z at free_z
        on_u, on_v = g.eu[:, None] == z, g.ev[:, None] == z
        return (kappa[z] + w @ (on_u * at_u + on_v * at_v + free_z * ((on_u | on_v) & free))
                ).astype(wide)

    return ok & (bound(x, -1) * mu[y] > bound(y, 1) * mu[x])


def _support_cut(g: SignedGraph, t, side) -> np.ndarray:
    """|a mu(X) - b sum over X of sgn_x c_x| > b (the weight of the free
    support edges that cross X), for the side X on the support."""
    sgn, d, (side,), mu, kappa, w, wide = _block(g, t, (side, "b", g.n))
    c, free, a, b = _support(g, sgn, d, mu, kappa, w)
    a, b = a.astype(wide), b.astype(wide)
    demand = a * (side * mu[:, None]).sum(axis=0) - b * (side * sgn * c).sum(axis=0)
    return (~(side & (sgn == 0)).any(axis=0)
            & (abs(demand) > b * (w @ (free & (side[g.eu] != side[g.ev])))))


def _zero_cut(g: SignedGraph, t, pi) -> np.ndarray:
    """b (sum pi_y c_y - sum |pi_y kappa_y| - the zero-zero capacity) >
    |a| sum |pi_y| mu_y."""
    sgn, d, (pi,), mu, kappa, w, wide = _block(g, t, (pi, "iu", g.n))
    c, _, a, b = _support(g, sgn, d, mu, kappa, w)
    # a column with pi off {-1, 0, 1} or on the support is zeroed: 0 > 0 fails
    ok = ((pi >= -1) & (pi <= 1) & ((pi == 0) | (sgn == 0))).all(axis=0)
    pi = np.where(ok, pi, 0).astype(np.int8)
    zero_zero = (sgn[g.eu] == 0) & (sgn[g.ev] == 0)
    capacity = w @ (abs(pi[g.eu] - g.es.astype(np.int8)[:, None] * pi[g.ev]) * zero_zero)
    excess = (pi * c - abs(pi) * abs(kappa)[:, None]).sum(axis=0) - capacity
    return ok & (excess.astype(wide) * b > abs(a).astype(wide) * (abs(pi) * mu[:, None]).sum(axis=0))


def _witness(g: SignedGraph, t, p, q, z_edge, z_vertex) -> np.ndarray:
    """Every z in its Sgn interval and every vertex balanced, on
    ``g.scaled_ints`` times den = 2q with q >= 1, in Python ints (a zero
    column is no eigenfunction, whatever its z): with d the sign of
    t_u - sigma t_v, z_edge is d den w on a fixed edge and at most den w in
    absolute value on a free one; a support vertex has z_vertex =
    sgn_x den kappa_x and q times its flux, the z_edge at x (-sigma z_uv at
    the end v) plus z_vertex, equal to sgn_x p mu_x den; a zero vertex has
    |z_vertex| <= den |kappa_x| and |q times its flux| <= |p| mu_x den. Each
    vertex's flux is one row operation per edge."""
    mu, kappa, edges, _ = g.scaled_ints
    sgn, d, (p, q, z, zx), *_ = _block(g, t, (p, "iuO", None), (q, "iuO", None),
                                       (z_edge, "iuO", len(edges)), (z_vertex, "iuO", g.n))
    den = 2 * q
    wden = np.array([w for _, _, w, _ in edges], object)[:, None] * den
    flux = zx.copy()
    for (u, v, _, s), zu in zip(edges, z):
        flux[u] += zu
        flux[v] -= s * zu
    flux *= q
    kden, lmd = np.array(kappa, object)[:, None] * den, np.array(mu, object)[:, None] * (p * den)
    return ((q >= 1) & (sgn != 0).any(axis=0)
            & np.where(d != 0, z == d * wden, abs(z) <= wden).all(axis=0)
            & np.where(sgn != 0, (zx == sgn * kden) & (flux == sgn * lmd),
                       (abs(zx) <= abs(kden)) & (abs(flux) <= abs(lmd))).all(axis=0))


# each kind's kernel and the number of certificate arrays it takes
_KERNELS = {"screen": (_screen, 2), "support-cut": (_support_cut, 1), "zero-cut": (_zero_cut, 1),
            "witness": (_witness, 4)}


def check_certificates_1lap(g: SignedGraph, kind: str, t, *certs) -> np.ndarray:
    """Whether ``(kind, *(a[..., j] for a in certs))`` certifies column j of
    the (n, m) array t, for each j. A witness certifies that t[:, j] is an
    eigenfunction, at the lambda it names; a rejection, when the inequality
    it states holds, that no lambda makes t[:, j] one. By kind, with c_x and
    lambda = a / b from the support (defined above ``_feasible_flow``), a
    side X a bool (n, m) mask and pi an int (n, m) array:

    * ``"witness"``, lambda = p / q by two int arrays of shape (m,), and
      z_edge (|E|, m) and z_vertex (n, m), int or Python-int object arrays
      on ``g.scaled_ints`` times den = 2q: z_edge[e] = den w z_uv for the
      edge e = (u, v, w, sigma) of ``g.edges`` (z_vu = -sigma z_uv), and
      z_vertex[x] = den kappa_x z_x. Every z lies in its Sgn interval and
      every vertex balances to lambda mu_x Sgn(t_x) (see ``_witness``).
    * ``"screen"``, x and y int arrays of shape (m,): support vertices with
      lo_x / mu_x > hi_y / mu_y, where [lo_v, hi_v] holds sgn(t_v) times
      every flux that Sgn allows at v. Lambda would have to be at least the
      one and at most the other.
    * ``"support-cut"``, a side X of support vertices whose demand
      |sum over X of (lambda mu_x - sgn_x c_x)| exceeds the weight of the
      free support edges leaving X, the capacity of its cut (Hoffman's
      circulation theorem). A pin whose lambda differs from the support's
      is such a side, of capacity 0.
    * ``"zero-cut"``, signs pi in {-1, 0, 1} on the zero vertices with
      sum pi_y c_y - sum |pi_y| (|lambda| mu_y + |kappa_y|) greater than
      the sum over zero-zero edges of w |pi_u - sigma pi_v|. Each zero
      vertex needs |c_y + its zero-zero flux| <= |lambda| mu_y + |kappa_y|;
      weighted by pi and summed, these cannot all hold. A zero vertex
      without zero-zero edges whose |c_y| exceeds that slack is the case of
      one nonzero pi_y.

    A zero column is certified by no kind. One integer pass per block, from
    g and t alone: sgn, c, the free edges, lambda and the screen's bounds
    are recomputed from ``g.scaled_ints``, not taken from the screen, the
    pin stage or the max-flow that produced the block (see ``_block`` for
    the arithmetic). An unknown kind, the wrong number of certificate
    arrays or a malformed block raises GraphError."""
    if type(kind) is not str or kind not in _KERNELS:
        raise GraphError(f"unknown certificate kind {kind!r}, expected one of {sorted(_KERNELS)}")
    kernel, arity = _KERNELS[kind]
    if len(certs) != arity:
        raise GraphError(f"a {kind!r} certificate takes {arity} arrays, got {len(certs)}")
    return kernel(g, t, *certs)


def one_lap_lambda_range(g: SignedGraph, f) -> list[tuple[Fraction, Fraction]]:
    """All lambda for which (lambda, f) satisfies the 1-Laplacian inclusion,
    as a list of exact closed intervals: one point ``[(lam, lam)]`` or ``[]``.

    Only the signs of f and of the f_u - sigma f_v matter. The system splits
    into two blocks that share only lambda:

    * Support block. On a free support edge (f_u = sigma f_v != 0)
      y = sgn(f_u) z_uv is a conservative flow of capacity w, and no such
      edge leaves the support. So lambda mu(support) is the sum of
      sgn_x c_x over the support, where c_x is the determined flux at x,
      and then a flow with demands lambda mu_x - sgn_x c_x must exist: the
      range is a point or empty. Components of free support edges that
      pin other lambdas leave a cut of capacity 0.
    * Zero block. Feasibility is monotone in |lambda|, and is decided at
      |lambda| by a flow on the signed double cover of the zero-zero edges.

    Both blocks are exact max-flows in Python ints over ``g.scaled_ints``;
    only lambda itself is a Fraction. Each decision has a certificate, which
    ``one_lap_enumerate`` keeps and ``check_certificates_1lap`` checks: a
    witness or a rejection.
    """
    kind, *cols = _pattern_lambda(g, _function(g, f).tolist())
    return [(Fraction(*cols[:2]),) * 2] if kind == "witness" else []


def check_eigenpair_1lap(g: SignedGraph, lam, f) -> ResidualCertificate:
    """Decide the 1-Laplacian eigen-inclusion exactly; return a witness if it holds.

    Existence of {z_xy}, {z_x} with z_xy in Sgn(f(x) - sigma f(y)),
    z_xy = -sigma z_yx, z_x in Sgn(f(x)) and
    sum_y w z_xy + kappa_x z_x in lam mu_x Sgn(f(x)) at every vertex.
    ``lam`` is a finite real, not a bool or a str, checked as an
    ``EigenPair`` checks its own; a float or an exact Fraction (floats
    convert losslessly). f admits one lambda or none
    (``one_lap_lambda_range``), and the verdict is whether that lambda is
    ``lam``; a certificate that fails ``check_certificates_1lap``, on a
    block of one column whatever its kind, raises instead. The witness
    holds each z as a Fraction: z_uv per edge "u,v", z_x per vertex.
    """
    f = _function(g, f).tolist()
    lam = _eigenvalue(lam)
    kind, *cols = cert = _pattern_lambda(g, f)
    if not check_certificates_1lap(g, kind, np.array(f)[:, None],
                                   *(np.asarray(c)[..., None] for c in cols))[0]:
        raise RuntimeError(f"the max-flow certificate {cert!r} fails its check")
    if kind != "witness" or Fraction(cols[0], cols[1]) != lam:
        return ResidualCertificate(verdict=False)
    # back from scaled_ints: z_uv = a / (den w), z_x = z / (den kappa_x) with
    # den = 2q, and where kappa_x = 0, z_x is sgn f_x (0 at a zero)
    _, kappa, edges, _ = g.scaled_ints
    den = 2 * cols[1]
    witness = {
        "z_edge": {f"{g.ids[u]},{g.ids[v]}": Fraction(a, den * w)
                   for (u, v, w, _), a in zip(edges, cols[2])},
        "z_vertex": {vid: Fraction(z, den * k) if k else Fraction((fx > 0) - (fx < 0))
                     for vid, fx, k, z in zip(g.ids, f, kappa, cols[3])},
    }
    return ResidualCertificate(verdict=True, witness=witness)
