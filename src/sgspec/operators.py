"""Signed p-Laplacian application, Rayleigh quotients, eigenpair verification.

For p > 1 the operator is single-valued and residuals are checked in a
scale-free relative form. Delta_p, the Rayleigh quotient and the residual
are written once, as private kernels on flat column views and edge
differences, which the public functions and the fused gradient and Newton
steps of :mod:`sgspec.spectra` share. Every public function checks its f
once, by ``graph._function``; the kernels check nothing. For p = 1 the
eigen-condition is a differential inclusion with Sgn intervals. Given a sign
pattern f, the lambda it admits is a single point or nothing: each component
of support edges with f_u = sigma f_v pins lambda, and the rest is a network
feasibility question, decided by an exact integer max-flow
(``one_lap_lambda_range``). Each decision leaves a certificate: the flow, as
a witness, when f admits lambda, and otherwise the inequality that rules f
out (a screen pair, two conflicting pins, a support cut or a zero cut from
Hoffman's circulation theorem). ``check_certificate_1lap`` checks one in
integers, independently of whatever produced it (certifying algorithms:
McConnell, Mehlhorn, Naeher & Schweitzer, Comput. Sci. Rev. 5(2), 2011).
Every rejection, of one pattern or of a whole block of patterns, is checked
by the one block checker ``check_rejections_1lap``, which runs a private
kernel per kind on one shared boundary; ``check_certificate_1lap`` calls it
on a block of one column. ``check_eigenpair_1lap`` decides a given
(lambda, f) by the same checked max-flow; :mod:`sgspec.simplex` decides
nothing here, and remains only as the test oracles' independent LP and for
the benchmark.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .graph import GraphError, SignedGraph, _exponent, _function, _groups, _is, _labels

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
    "OneLapWitness",
    "check_certificate_1lap",
    "check_rejections_1lap",
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


@dataclass(frozen=True)
class EigenPair:
    lam: float
    f: np.ndarray
    p: float

    def __post_init__(self):
        _exponent(self.p, single_valued=False)
        if not (_is(self.lam, numbers.Real) and math.isfinite(self.lam)):
            raise GraphError(f"eigenvalue must be a finite real number, got {self.lam!r}")
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
    """Relative residual check of the eigen-equation for p > 1."""
    _exponent(pair.p, single_valued=True)
    res = float(_residual(g, pair.p, _function(g, pair.f)[:, None], pair.lam)[0])
    return ResidualCertificate(verdict=res <= tol, max_residual=res)


# ---------------------------------------------------------------------------
# 1-Laplacian certificates
#
# Every decision on a sign pattern f carries evidence that
# ``check_certificate_1lap`` re-checks from g and f alone. In what follows
# c_x is the determined flux at x: kappa_x sgn(f_x) plus w z_xy over the
# edges at x whose z_xy is fixed because f_x != sigma f_y. A *pin* is a
# nonempty set C of support vertices that no free support edge
# (f_u = sigma f_v != 0) leaves; summing sgn(f_x) times the inclusion over C
# cancels the free edges inside C, so lambda mu(C) = sum over C of sgn_x c_x.
# A rejection of one pattern is a plain tuple (kind, first, second),
# described in ``check_certificate_1lap``; one_lap_enumerate keeps every
# rejection in int8 blocks of patterns, with vertex sets as bool masks, for
# ``check_rejections_1lap``.


class OneLapWitness(NamedTuple):
    """A solution of the inclusion at ``lam`` on ``g.scaled_ints``, times
    ``den``: ``z_edge[e] = (den w z_uv, den w z_vu)`` for the edge
    e = (u, v, w, sigma) of ``g.edges`` and ``z_vertex[x] = den kappa_x z_x``."""

    lam: Fraction
    den: int
    z_edge: tuple[tuple[int, int], ...]
    z_vertex: tuple[int, ...]


def _feasible_flow(n: int, arcs, lo, hi) -> tuple[list[int] | None, list[int] | None]:
    """A flow x_e in [-cap, cap] on each arc ``(a, b, cap)`` (from a to b;
    the arcs are undirected and join distinct pairs of nodes) with net
    outflow in [lo[v], hi[v]] at every node v < n, given lo <= hi:
    ``(flows, None)`` with one flow per arc, or ``(None, side)`` if there is
    none. Exact on Python ints.

    Lower-bound reduction: a root node r feeds each v through an arc with
    flow in [lo_v, hi_v]; sending lo_v up front leaves supply lo_v at v and
    -sum(lo) at r, and a flow is feasible iff a max flow from the positive
    to the negative supplies (BFS augmenting paths) carries all of it. If it
    cannot, the nodes v < n that the last search reaches are ``side``, the
    source side of a cut whose capacity is below the supply. By Hoffman's
    circulation theorem, either sum(lo) over ``side`` exceeds the capacity
    of the arcs leaving it, or sum(hi) over the other nodes falls below
    minus that capacity.
    """
    r, s, t = n, n + 1, n + 2
    # residual capacities; the root, source and sink arcs are distinct
    # pairs too, so no capacity adds to another
    res: list[dict[int, int]] = [{} for _ in range(n + 3)]
    for a, b, cap in arcs:
        res[a][b] = res[b][a] = cap
    supply = [*lo, -sum(lo)]
    for v in range(n):
        if hi[v] > lo[v]:
            res[r][v], res[v][r] = hi[v] - lo[v], 0
    need = 0
    for v, sup in enumerate(supply):
        if sup > 0:
            res[s][v], res[v][s] = sup, 0
            need += sup
        elif sup < 0:
            res[v][t], res[t][v] = -sup, 0
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
            return None, [v for v in prev if v < n]
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
    return [cap - res[a][b] for a, b, cap in arcs], None


def _pattern_lambda(g: SignedGraph, f) -> OneLapWitness | tuple:
    """Decide a pattern: the witness for the one lambda at which (lambda, f)
    satisfies the 1-Laplacian inclusion, or the reason that no lambda does;
    see ``one_lap_lambda_range``."""
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

    # each component C of free support edges pins lambda mu(C) = sum sgn_x c_x
    def pin(comp: tuple[int, ...]) -> tuple[int, int]:
        return sum(sgn[x] * flux[x] for x in comp), sum(mu[x] for x in comp)

    lab = _labels(n, [(u, v) for _, u, v, _ in support_arcs])
    first, *rest = map(tuple, _groups(lab, (x for x in range(n) if sgn[x])).values())
    num, den = pin(first)
    for comp in rest:
        a, b = pin(comp)
        if a * den != num * b:
            return "pins", first, comp
    lam = Fraction(num, den)
    p, q = lam.numerator, lam.denominator  # everything below is scaled by q

    support_flows = []
    if support_arcs:
        demand = [p * mu[x] - q * sgn[x] * flux[x] if sgn[x] else 0 for x in range(n)]
        support_flows, side = _feasible_flow(
            n, [(u, v, q * w) for _, u, v, w in support_arcs], demand, demand)
        if support_flows is None:
            return "support-cut", first, tuple(sorted(side))

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
            pi = [0] * n
            pi[y] = 1 if flux[y] > 0 else -1
            return "zero-cut", first, tuple(pi)
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
            pi = [0] * n
            for node in side:
                pi[covered[node // 2]] += 1 if node % 2 else -1
            return "zero-cut", first, tuple(pi)

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
    return OneLapWitness(lam, d, tuple(zip(t, [-e[3] * a for e, a in zip(edges, t)])),
                         tuple(z_vertex))


def _ints(xs, length: int) -> bool:
    """Whether xs is a tuple of ``length`` Python ints (not bools, not numpy ints)."""
    return type(xs) is tuple and len(xs) == length and all(type(x) is int for x in xs)


def check_certificate_1lap(g: SignedGraph, f, cert) -> bool:
    """Check the evidence that ``one_lap_enumerate`` keeps for the sign
    pattern of ``f``, in linear time and in integers on ``g.scaled_ints``,
    from g and f alone: it shares no code or state with the max-flow or the
    pin stage that produced ``cert``. Vertices are indices into ``g.ids``;
    c_x and pins are defined above ``OneLapWitness``.

    * ``OneLapWitness``: passes when every z lies in its Sgn interval,
      z_vu = -sigma z_uv, and every vertex balances to lambda mu_x Sgn(f_x).
      Then (lambda, f) is an eigenpair.
    * A rejection ``(kind, first, second)``: passes when
      ``check_rejections_1lap`` passes it on one column. Then no lambda
      makes f an eigenfunction.

    Anything else answers False, also a certificate of the wrong shape: a
    vertex index, a count or a z must be a Python int, a vertex set or a pi
    a tuple of them.
    """
    mu, kappa, edges, _ = g.scaled_ints
    n = len(mu)
    # its own check of f, not graph._function: it shares no code with what
    # it checks, and it runs once per pattern, where lists are cheaper
    f = np.asarray(f, dtype=float)
    if f.shape != (n,):
        raise GraphError(f"eigenfunction has shape {f.shape}, expected ({n},)")
    f = f.tolist()
    if not all(map(math.isfinite, f)) or not any(f):
        raise GraphError("eigenfunction must be finite and nonzero")
    if not isinstance(cert, OneLapWitness):
        if not (type(cert) is tuple and len(cert) == 3 and type(cert[0]) is str
                and cert[0] in _KERNELS):
            return False
        kind, first, second = cert
        col = np.array(f)[:, None]
        if kind == "screen":
            return (type(first) is type(second) is int and 0 <= first < n and 0 <= second < n
                    and bool(check_rejections_1lap(g, kind, col, [first], [second])[0]))

        def mask(xs):  # a tuple of vertices as a one-column mask, else None
            if type(xs) is tuple and all(type(x) is int and 0 <= x < n for x in xs):
                return np.array([x in xs for x in range(n)])[:, None]

        one = mask(first)
        if kind == "zero-cut":  # pi as a column, once checked to be n ints in {-1, 0, 1}
            ok = _ints(second, n) and all(-1 <= x <= 1 for x in second)
            two = np.array(second)[:, None] if ok else None
        else:
            two = mask(second)
        return (one is not None and two is not None
                and bool(check_rejections_1lap(g, kind, col, one, two)[0]))

    lam, den, z_edge, z_vertex = cert
    if not (isinstance(lam, Fraction) and type(den) is int and den >= 1
            and _ints(z_vertex, n) and type(z_edge) is tuple and len(z_edge) == len(edges)
            and all(type(z) is tuple and len(z) == 2 and type(z[0]) is type(z[1]) is int
                    for z in z_edge)):
        return False
    sgn = [(x > 0) - (x < 0) for x in f]
    # the sign of f_u - sigma f_v on each edge: z_uv, or 0 where z_uv is free
    dirs = [(f[u] > s * f[v]) - (f[u] < s * f[v]) for u, v, _, s in edges]
    total = [0] * n
    for (u, v, w, s), dz, (a, b) in zip(edges, dirs, z_edge):
        if b != -s * a or (a != dz * w * den if dz else abs(a) > w * den):
            return False
        total[u] += a
        total[v] += b
    p, q = lam.numerator, lam.denominator
    for sx, m, k, tot, zx in zip(sgn, mu, kappa, total, z_vertex):
        if sx:
            ok = zx == sx * k * den and q * (tot + zx) == sx * p * m * den
        else:
            ok = abs(zx) <= abs(k) * den and abs(q * (tot + zx)) <= abs(p) * m * den
        if not ok:
            return False
    return True


def _block(g: SignedGraph, t, *certs):
    """The one boundary of the block checkers: t an (n, m) array of finite
    reals and each certificate ``(array, kinds, ndim)`` an array of numpy
    kind in ``kinds``, of shape (n, m) if ndim is 2, else (m,) (an empty one
    of any kind); else GraphError. Integer arrays are read exactly: t in
    int64 (Python ints past 2**62), the certificates in intp (a uint past
    2**63 - 1 as 2**63 - 1, out of range either way). Returns sgn(t) and the sign d of
    t_u - sigma t_v per edge (z_uv, or 0 where it is free), both int8, the
    certificate arrays, mu over gcd(mu) and kappa and w over their gcd, and
    the dtype of products. A |sum of fluxes| is at most A = sum |kappa| +
    2 sum w and a sum of mu at most B = sum mu, so sums are exact in int64
    when A, B < 2**62 and products of the two when A B < 2**62; else they
    take Python ints (dtype object). A support cut's demand a mu(X) - b
    sum_X sgn_x c_x is a difference of two such products, below 2 A B < 2**63
    in absolute value, and b times its capacity is at most A B."""
    mu, kappa, edges, _ = g.scaled_ints
    n, t = len(mu), np.asarray(t)
    if t.ndim != 2 or len(t) != n or t.dtype.kind not in "iuf" or not np.isfinite(t).all():
        raise GraphError(f"sign patterns must be an ({n}, m) array of finite reals, "
                         f"got {t.dtype} of shape {t.shape}")
    if t.dtype.kind in "iu":  # sigma t_v exact: int64, or Python ints past 2**62
        small = not t.size or -2**62 < int(t.min()) and int(t.max()) < 2**62
        t = t.astype(np.int64 if small else object)
    checked = []
    for a, kinds, ndim in certs:
        a, shape = np.asarray(a), t.shape[2 - ndim:]
        if a.shape != shape or (a.size and a.dtype.kind not in kinds):
            raise GraphError(f"a certificate array has shape {a.shape} and kind {a.dtype.kind!r}, "
                             f"expected {shape} and one of {kinds!r}")
        if a.dtype.kind == "u":  # past 2**63 - 1 no vertex or pi, and none at 2**63 - 1
            a = np.minimum(a.astype(np.uint64), 2**63 - 1)
        checked.append(a.astype(bool if kinds == "b" else np.intp))
    w = [e[2] for e in edges]
    dm, dk = math.gcd(*mu), math.gcd(*kappa, *w) or 1  # 0 without edges and kappa
    span, total = (sum(map(abs, kappa)) + 2 * sum(w)) // dk, sum(mu) // dm
    dtype = np.int64 if max(span, total) < 2**62 else object
    tu, tv = t[g.eu], g.es.astype(np.int8)[:, None] * t[g.ev]
    return (np.sign(t).astype(np.int8), (tu > tv).astype(np.int8) - (tu < tv), checked,
            *(np.array([v // d for v in vals], dtype) for vals, d in ((mu, dm), (kappa, dk), (w, dk))),
            dtype if span * total < 2**62 else object)


def _pins(g: SignedGraph, sgn, d, mu, kappa, w, *masks):
    """The flux c (n, m), the free support edges and the zero-zero edges
    (E, m) of a checked block, and per mask whether each column is a pin,
    with its (a, b): lambda = a / b."""
    inc = np.zeros((g.n, len(g.edges)), np.int8)
    inc[g.eu, np.arange(len(g.edges))], inc[g.ev, np.arange(len(g.edges))] = 1, -g.es
    c = kappa[:, None] * sgn + inc @ (w[:, None] * d)
    on_u, on_v = sgn[g.eu] != 0, sgn[g.ev] != 0
    free = (d == 0) & on_u
    return c, free, ~on_u & ~on_v, [(mask.any(axis=0) & ~(mask & (sgn == 0)).any(axis=0)
                                     & ~(free & (mask[g.eu] != mask[g.ev])).any(axis=0),
                                     (mask * sgn * c).sum(axis=0), (mask * mu[:, None]).sum(axis=0))
                                    for mask in masks]


def _screen(g: SignedGraph, t, x, y) -> np.ndarray:
    """lo_x and hi_y are summed from ``g.scaled_ints``, not from the ranks of
    ``spectra._screened_blocks``, and compared as lo_x mu_y > hi_y mu_x."""
    sgn, d, (x, y), mu, kappa, w, wide = _block(g, t, (x, "iu", 1), (y, "iu", 1))
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


def _two_pins(g: SignedGraph, t, first, second) -> np.ndarray:
    sgn, d, masks, mu, kappa, w, wide = _block(g, t, (first, "b", 2), (second, "b", 2))
    _, _, _, ((ok1, a1, b1), (ok2, a2, b2)) = _pins(g, sgn, d, mu, kappa, w, *masks)
    return ok1 & ok2 & (a1.astype(wide) * b2 != a2.astype(wide) * b1)


def _support_cut(g: SignedGraph, t, pin, side) -> np.ndarray:
    """|a mu(X) - b sum over X of sgn_x c_x| > b (the weight of the free
    support edges that cross X), for the side X on the support."""
    sgn, d, (pin, side), mu, kappa, w, wide = _block(g, t, (pin, "b", 2), (side, "b", 2))
    c, free, _, ((ok, a, b),) = _pins(g, sgn, d, mu, kappa, w, pin)
    ok &= ~(side & (sgn == 0)).any(axis=0)
    a, b = a.astype(wide), b.astype(wide)
    demand = a * (side * mu[:, None]).sum(axis=0) - b * (side * sgn * c).sum(axis=0)
    return ok & (abs(demand) > b * (w @ (free & (side[g.eu] != side[g.ev]))))


def _zero_cut(g: SignedGraph, t, first, pi) -> np.ndarray:
    """b (sum pi_y c_y - sum |pi_y kappa_y| - the zero-zero capacity) >
    |a| sum |pi_y| mu_y."""
    sgn, d, (first, pi), mu, kappa, w, wide = _block(g, t, (first, "b", 2), (pi, "iu", 2))
    c, _, zero_zero, ((ok, a, b),) = _pins(g, sgn, d, mu, kappa, w, first)
    # a column with pi off {-1, 0, 1} or on the support is zeroed: 0 > 0 fails
    ok &= ((pi >= -1) & (pi <= 1) & ((pi == 0) | (sgn == 0))).all(axis=0)
    pi = np.where(ok, pi, 0).astype(np.int8)
    capacity = w @ (abs(pi[g.eu] - g.es.astype(np.int8)[:, None] * pi[g.ev]) * zero_zero)
    excess = (pi * c - abs(pi) * abs(kappa)[:, None]).sum(axis=0) - capacity
    return ok & (excess.astype(wide) * b > abs(a).astype(wide) * (abs(pi) * mu[:, None]).sum(axis=0))


_KERNELS = {"screen": _screen, "pins": _two_pins, "support-cut": _support_cut,
            "zero-cut": _zero_cut}


def check_rejections_1lap(g: SignedGraph, kind: str, t, first, second) -> np.ndarray:
    """Whether ``(kind, first[..., j], second[..., j])`` rejects column j of
    the (n, m) array t, for each j: it does when the inequality it states
    holds, and then no lambda makes t[:, j] an eigenfunction. By kind, with
    c_x and pins defined above ``OneLapWitness``, a vertex set a bool (n, m)
    mask and pi an int (n, m) array:

    * ``"screen"``, x and y int arrays of shape (m,): support vertices with
      lo_x / mu_x > hi_y / mu_y, where [lo_v, hi_v] holds sgn(t_v) times
      every flux that Sgn allows at v. Lambda would have to be at least the
      one and at most the other.
    * ``"pins"``, two vertex sets: two pins that give different lambda.
    * ``"support-cut"``, a pin and a set X of support vertices whose demand
      |sum over X of (lambda mu_x - sgn_x c_x)| exceeds the weight of the
      free support edges leaving X, the capacity of its cut (Hoffman's
      circulation theorem).
    * ``"zero-cut"``, a pin and signs pi in {-1, 0, 1} on the zero vertices
      with sum pi_y c_y - sum |pi_y| (|lambda| mu_y + |kappa_y|) greater than
      the sum over zero-zero edges of w |pi_u - sigma pi_v|. Each zero
      vertex needs |c_y + its zero-zero flux| <= |lambda| mu_y + |kappa_y|;
      weighted by pi and summed, these cannot all hold. A zero vertex
      without zero-zero edges whose |c_y| exceeds that slack is the case of
      one nonzero pi_y.

    One integer pass per block, from g and t alone: sgn, c, the free edges,
    the pins and the screen's bounds are recomputed from ``g.scaled_ints``,
    not taken from the screen, the pin stage or the max-flow that produced
    the block (see ``_block`` for the arithmetic). An unknown kind or a
    malformed block raises GraphError."""
    if type(kind) is not str or kind not in _KERNELS:
        raise GraphError(f"unknown rejection kind {kind!r}, expected one of {sorted(_KERNELS)}")
    return _KERNELS[kind](g, t, first, second)


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
    only lambda itself is a Fraction. Each decision has a certificate, which
    ``one_lap_enumerate`` keeps and ``check_certificate_1lap`` checks.
    """
    cert = _pattern_lambda(g, _function(g, f).tolist())
    return [(cert.lam, cert.lam)] if isinstance(cert, OneLapWitness) else []


def check_eigenpair_1lap(g: SignedGraph, lam, f) -> ResidualCertificate:
    """Decide the 1-Laplacian eigen-inclusion exactly; return a witness if it holds.

    Existence of {z_xy}, {z_x} with z_xy in Sgn(f(x) - sigma f(y)),
    z_xy = -sigma z_yx, z_x in Sgn(f(x)) and
    sum_y w z_xy + kappa_x z_x in lam mu_x Sgn(f(x)) at every vertex.
    ``lam`` may be a float or an exact Fraction (floats convert losslessly).
    f admits one lambda or none (``one_lap_lambda_range``), and the verdict
    is whether that lambda is ``lam``; a certificate that fails
    ``check_certificate_1lap`` raises instead. The witness holds each z as a
    Fraction: z_uv per edge "u,v", z_x per vertex.
    """
    f = _function(g, f).tolist()
    try:
        lam = lam if isinstance(lam, Fraction) else Fraction(float(lam))
    except (TypeError, ValueError, OverflowError):
        raise GraphError(f"lambda must be a finite real number, got {lam!r}") from None
    cert = _pattern_lambda(g, f)
    if not check_certificate_1lap(g, f, cert):
        raise RuntimeError(f"the max-flow certificate {cert!r} fails its check")
    if not isinstance(cert, OneLapWitness) or cert.lam != lam:
        return ResidualCertificate(verdict=False)
    # back from scaled_ints: z_uv = a / (den w), z_x = z / (den kappa_x),
    # and where kappa_x = 0, z_x is sgn f_x (0 at a zero)
    _, kappa, edges, _ = g.scaled_ints
    witness = {
        "z_edge": {f"{g.ids[u]},{g.ids[v]}": Fraction(a, cert.den * w)
                   for (u, v, w, _), (a, _) in zip(edges, cert.z_edge)},
        "z_vertex": {vid: Fraction(z, cert.den * k) if k else Fraction((fx > 0) - (fx < 0))
                     for vid, fx, k, z in zip(g.ids, f, kappa, cert.z_vertex)},
    }
    return ResidualCertificate(verdict=True, witness=witness)
