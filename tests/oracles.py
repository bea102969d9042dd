"""Independent oracles used by the test suite.

These recompute quantities from first principles with different algorithm
families than the library (exhaustive enumeration, boolean matrix closure,
closed-form polynomial roots) so agreement is meaningful.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import product

import numpy as np

from sgspec import simplex
from sgspec.cheeger import DEFAULT_CAPS, CheegerResult, _best_bipartition
from sgspec.graph import (
    GraphError,
    SignedGraph,
    _groups,
    _labels,
    components,
    switch,
    with_degree_measure,
)
from sgspec.operators import apply_p_laplacian, eigen_residual, phi_p, rayleigh
from sgspec.spectra import BB_CAP, ExtremalResult, _normalize_p as _normalize_columns, spectrum_p2


def balance_oracle(g: SignedGraph) -> tuple[bool, bool]:
    """(balanced, antibalanced) by trying all 2^n switchings."""
    n = g.n
    balanced = antibalanced = False
    for mask in range(1 << n):
        tau = [1 if mask >> i & 1 else -1 for i in range(n)]
        signs = {tau[u] * s * tau[v] for u, v, _, s in g.edges}
        if -1 not in signs:
            balanced = True
        if 1 not in signs:
            antibalanced = True
    return balanced or not g.edges, antibalanced or not g.edges


def rayleigh_p2_oracle(g: SignedGraph, f) -> float:
    """Quadratic form f^T L f / f^T D f evaluated entrywise."""
    f = np.asarray(f, dtype=float)
    num = float(np.dot(g.kappa_array(), f**2))
    for u, v, w, s in g.edges:
        num += w * (f[u] - s * f[v]) ** 2
    return num / float(np.dot(g.mu_array(), f**2))


def p_laplacian_oracle(g: SignedGraph, p: float, f) -> list[float]:
    """Delta_p f (without the 1/mu factor) summed per vertex from the
    definition: sum_y w_xy Phi_p(f_x - sigma_xy f_y) + kappa_x Phi_p(f_x)."""

    def phi(t: float) -> float:
        return math.copysign(abs(t) ** (p - 1), t) if t != 0 else 0.0

    f = [float(v) for v in f]
    out = [float(k) * phi(fx) for k, fx in zip(g.kappa, f)]
    for x in range(g.n):
        for u, v, w, s in g.edges:
            if x in (u, v):
                y = v if x == u else u
                out[x] += w * phi(f[x] - s * f[y])
    return out


def _closure(mat: np.ndarray) -> np.ndarray:
    """Boolean transitive closure of a reflexive matrix, or of each matrix of
    an (m, N, N) stack, by squaring until it is stable."""
    m = mat
    while np.count_nonzero(m2 := m @ m) != np.count_nonzero(m):  # squaring only adds entries
        m = m2
    return m


def _stacked(f) -> tuple[np.ndarray, bool]:
    """sgn f as an (m, n) stack, one row per function: f is one function of
    shape (n,) or m of them as the columns of an (n, m) array; and whether
    it was one."""
    sgn = np.sign(np.asarray(f, dtype=float))
    return (sgn[None], True) if sgn.ndim == 1 else (sgn.T, False)


def _least_members(related: np.ndarray, on: np.ndarray, one: bool):
    """The number of classes of the symmetric, reflexive relation on the
    nodes where ``on``, each counted at its least member, per matrix of the
    (m, N, N) stack; an int for the one-function case."""
    counts = ((related & on[:, None, :]).argmax(axis=2) == np.arange(on.shape[1])) & on
    counts = counts.sum(axis=1)
    return int(counts[0]) if one else counts


def strong_count_oracle(g: SignedGraph, f):
    """Components of the support under positive-product edges, via closure.
    f is one function, or m functions as the columns of an (n, m) array;
    the closure runs on the (m, n, n) stack, and the counts are one int or
    one per column."""
    sgn, one = _stacked(f)
    n = g.n
    reach = np.broadcast_to(np.eye(n, dtype=bool), (len(sgn), n, n)).copy()
    k, e = np.nonzero(sgn[:, g.eu] * g.es * sgn[:, g.ev] > 0)  # the positive-product edges
    reach[k, g.eu[e], g.ev[e]] = reach[k, g.ev[e], g.eu[e]] = True
    return _least_members(_closure(reach), sgn != 0, one)


@functools.lru_cache(maxsize=1)  # the callers loop over f within one graph
def _sign_steps(g: SignedGraph) -> tuple[np.ndarray, np.ndarray]:
    """The steps between (vertex, sign) states, state 2x being x with sign +1
    and 2x + 1 x with sign -1: an edge steps both ways, flipping the sign
    where sigma = -1. Also each state's sign."""
    a, b = 2 * g.eu, 2 * g.ev + (g.es < 0)
    step, signs = np.zeros((2 * g.n, 2 * g.n), dtype=bool), np.tile((1.0, -1.0), g.n)
    step[np.concatenate((a, a + 1, b, b ^ 1)), np.concatenate((b, b ^ 1, a, a + 1))] = True
    step.flags.writeable = signs.flags.writeable = False  # shared by every call on g
    return step, signs


def weak_count_oracle(g: SignedGraph, f):
    """Weak classes via closure on (vertex, sign) states.

    A walk from support u may pass only through zeros; u ~ v when the
    accumulated edge-sign product times sgn(u) sgn(v) is positive. f is one
    function, or m functions as the columns of an (n, m) array; the
    closures run on (m, 2n, 2n) stacks, and the counts are one int or one
    per column.
    """
    step, signs = _sign_steps(g)
    sgn, one = _stacked(f)
    sgn = np.repeat(sgn, 2, axis=1)
    eye = np.eye(sgn.shape[1], dtype=bool)
    # interior vertices must be zeros: a walk leaves a support state only by its first step
    full = step @ _closure(step & (sgn == 0)[:, :, None] | eye)
    state = sgn == signs  # each support vertex's state of its own sign
    related = full & state[:, :, None] & state[:, None, :]
    # the classes of the symmetric, reflexive relation on those states
    return _least_members(_closure(related | related.transpose(0, 2, 1) | eye), state, one)


def sym2_eigs(a: np.ndarray) -> np.ndarray:
    """Closed-form eigenvalues of a symmetric 2x2 matrix."""
    tr = a[0, 0] + a[1, 1]
    disc = math.sqrt((a[0, 0] - a[1, 1]) ** 2 + 4.0 * a[0, 1] ** 2)
    return np.sort(np.array([(tr - disc) / 2.0, (tr + disc) / 2.0]))


def sym3_eigs(a: np.ndarray) -> np.ndarray:
    """Closed-form (trigonometric) eigenvalues of a symmetric 3x3 matrix."""
    p1 = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    q = np.trace(a) / 3.0
    if p1 == 0.0:
        return np.sort(np.diag(a).copy())
    p2 = sum((a[i, i] - q) ** 2 for i in range(3)) + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    r = np.linalg.det(b) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    e1 = q + 2.0 * p * math.cos(phi)
    e3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    e2 = 3.0 * q - e1 - e3
    return np.sort(np.array([e1, e2, e3]))


def check_eigenpair_1lap_lp(g: SignedGraph, lam, f) -> bool:
    """Whether (lam, f) satisfies the 1-Laplacian inclusion, by one exact
    feasibility LP on ``sgspec.simplex`` at the fixed lambda (the library
    decides this by max-flow instead).

    Variables, in order: z_uv per edge (u < v), then z_x and s_x per vertex,
    each in its Sgn interval: z_uv in Sgn(f_u - sigma f_v), z_x and s_x in
    Sgn(f_x), collapsed to a point where the sign is determined. One row per
    vertex: sum_y w z_xy + kappa_x z_x - lam mu_x s_x = 0, with
    z_vu = -sigma z_uv."""
    fr = [Fraction(float(v)) for v in f]
    lam = Fraction(lam)

    def sgn_box(d):
        return (1, 1) if d > 0 else (-1, -1) if d < 0 else (-1, 1)

    ne, n = len(g.edges), g.n
    boxes = [sgn_box(fr[u] - s * fr[v]) for u, v, _, s in g.edges] + [sgn_box(x) for x in fr] * 2
    rows = []
    for x in range(n):
        row = [Fraction(0)] * (ne + 2 * n)
        for e, (u, v, w, s) in enumerate(g.edges):
            if x == u:
                row[e] += Fraction(w)
            elif x == v:
                row[e] -= s * Fraction(w)
        row[ne + x] = Fraction(g.kappa[x])
        row[ne + n + x] = -lam * Fraction(g.mu[x])
        rows.append(row)
    res = simplex.feasible(rows, [0] * n, [a for a, _ in boxes], [b for _, b in boxes])
    return res.status == "optimal"


def all_unsigned_graphs(n: int):
    """Every labeled simple graph on n vertices, all-positive signature."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        edges = tuple(
            (u, v, 1.0, 1) for k, (u, v) in enumerate(pairs) if mask >> k & 1
        )
        yield SignedGraph(
            ids=tuple(str(i) for i in range(n)),
            mu=tuple(1.0 for _ in range(n)),
            kappa=tuple(0.0 for _ in range(n)),
            edges=edges,
        )


def all_signed_graphs(n: int):
    """Every labeled signed graph on n vertices (edge states: none, +, -)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for states in product((0, 1, -1), repeat=len(pairs)):
        edges = tuple(
            (u, v, 1.0, st)
            for st, (u, v) in zip(states, pairs)
            if st != 0
        )
        yield SignedGraph(
            ids=tuple(str(i) for i in range(n)),
            mu=tuple(1.0 for _ in range(n)),
            kappa=tuple(0.0 for _ in range(n)),
            edges=edges,
        )


def random_signed_graph_reference(n: int, density: float, model: str, seed: int,
                                  mu_mode: str, connected: bool) -> SignedGraph:
    """``harness.random_signed_graph`` for valid arguments, drawing each
    uniform-model sign by ``rng.choice((-1, 1))``: the draw it must equal."""
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
        g = SignedGraph(ids=tuple(f"v{i+1}" for i in range(n)), mu=(1.0,) * n,
                        kappa=(0.0,) * n, edges=tuple(sorted(edges)))
        if mu_mode == "degree":
            g = with_degree_measure(g)
        if model in ("balanced", "antibalanced"):
            g = switch(g, [int(t) for t in rng.choice((-1, 1), size=n)])
        if not connected or len(components(g)) == 1:
            return g
    raise GraphError("failed to draw a connected graph")


def nonzero_patterns(n: int):
    for pattern in product((0, 1, -1), repeat=n):
        if any(pattern):
            yield pattern


def cheeger_h1_oracle(g: SignedGraph) -> Fraction:
    """h_1 by direct minimization over nonempty subsets Omega and all
    switchings tau on Omega of (2 * violated weight inside Omega + boundary
    weight) / mu(Omega), in Fractions; an edge uv inside Omega is violated
    when tau_u sigma_uv tau_v = -1."""
    edges = [(u, v, Fraction(w), s) for u, v, w, s in g.edges]
    best = None
    for mask in range(1, 1 << g.n):
        omega = [x for x in range(g.n) if mask >> x & 1]
        bound = sum(w for u, v, w, _ in edges if (u in omega) != (v in omega))
        vol = sum(Fraction(g.mu[x]) for x in omega)
        inside = [(u, v, w, s) for u, v, w, s in edges if u in omega and v in omega]
        for signs in product((1, -1), repeat=len(omega)):
            tau = dict(zip(omega, signs))
            iota = sum(2 * w for u, v, w, s in inside if tau[u] * s * tau[v] == -1)
            val = (iota + bound) / vol
            if best is None or val < best:
                best = val
    return best


def one_rayleigh_fraction(g: SignedGraph, t) -> Fraction:
    """The 1-Rayleigh quotient sum_e w_e |t_u - sigma_e t_v| / sum_x mu_x |t_x|
    of a nonzero labeling t, in Fractions of the graph's floats."""
    num = sum(Fraction(w) * abs(t[u] - s * t[v]) for u, v, w, s in g.edges)
    return num / sum(Fraction(m) * abs(x) for m, x in zip(g.mu, t))


def cheeger_k_oracle(g: SignedGraph, k: int) -> Fraction:
    """h_k by brute force over all assignments of the vertices to unused,
    V1_i or V2_i (i < k) with every V1_i + V2_i nonempty: the minimum over
    them of the largest beta(V1_i, V2_i), each the 1-Rayleigh quotient
    sum_e w_e |t_u - sigma_e t_v| / sum_x mu_x |t_x| of t = 1_V1_i - 1_V2_i
    in Fractions. Meant for n <= 5 and k <= 3."""
    beta_of = {t: one_rayleigh_fraction(g, t) for t in product((0, 1, -1), repeat=g.n) if any(t)}
    best = None
    for assign in product(range(2 * k + 1), repeat=g.n):
        groups = [tuple(1 if a == 2 * i + 1 else -1 if a == 2 * i + 2 else 0 for a in assign)
                  for i in range(k)]
        if all(any(t) for t in groups):
            val = max(beta_of[t] for t in groups)
            if best is None or val < best:
                best = val
    return best


def _sides(omega, code: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(V1, V2) of the bipartition ``code`` of omega (see ``_best_bipartition``)."""
    return (tuple(int(x) for i, x in enumerate(omega) if not (code << 1) >> i & 1),
            tuple(int(x) for i, x in enumerate(omega) if (code << 1) >> i & 1))


def cheeger_k_sequential(g: SignedGraph, k: int) -> CheegerResult:
    """``cheeger_k`` one vertex set at a time: a ``_best_bipartition`` call
    per mask for the per-set optima, then the packing DP with a pure-Python
    descending submask loop per layer j >= 2. Same ranks, ties and family
    as the library, ranked on ``g.reduced_ints``; each pair value is
    ``one_rayleigh_fraction`` of its pair. Exact enumeration only, under
    the same caps."""
    n = g.n
    if not 1 <= k <= n or n > DEFAULT_CAPS.get(k, DEFAULT_CAPS[3]):
        raise GraphError(f"k={k} out of range or above the cap for n={n}")
    eu, ev, (mu, _, w, _) = g.eu, g.ev, g.reduced_ints
    size = 1 << n
    full = size - 1
    # per mask: its boundary and volume, plus the least iota over its bipartitions
    bits = ((np.arange(size)[:, None] >> np.arange(n)) & 1).astype(np.int8)
    num, vol = np.abs(bits[:, eu] - bits[:, ev]) @ w, bits @ mu
    codes = [0] * size
    for mask in range(1, size):
        codes[mask], iota = _best_bipartition(g, np.flatnonzero(bits[mask]))
        num[mask] += iota

    # exact ranks: two different scores with denominators <= V differ by >= 1 / V**2
    scale = int(vol[full]) ** 2
    keys = [a * scale // b for a, b in zip(num[1:].tolist(), vol[1:].tolist())]
    _, rank = np.unique(np.array(keys, dtype=object), return_inverse=True)
    inf = size
    b = np.concatenate(([inf], rank.ravel()))

    # j = 1: subset-min transform; masks with a bit take the strictly smaller
    # value of the mask without it
    d1, c1 = b.copy(), np.arange(size)
    for bit in range(n):
        dv, cv = d1.reshape(-1, 2, 1 << bit), c1.reshape(-1, 2, 1 << bit)
        better = dv[:, 0] < dv[:, 1]
        dv[:, 1] = np.where(better, dv[:, 0], dv[:, 1])
        cv[:, 1] = np.where(better, cv[:, 0], cv[:, 1])
    b, d_prev, choice_layers = b.tolist(), d1.tolist(), [c1.tolist()]

    for _j in range(2, k + 1):
        d_cur, c_cur = [inf] * size, [0] * size
        for mask in range(1, size):
            sub = mask
            while sub:
                cand = max(b[sub], d_prev[mask ^ sub])
                if cand < d_cur[mask]:
                    d_cur[mask] = cand
                    c_cur[mask] = sub
                sub = (sub - 1) & mask
        d_prev = d_cur
        choice_layers.append(c_cur)

    family, mask = [], full
    for layer in reversed(choice_layers):
        family.append(layer[mask])
        mask ^= family[-1]
    family.reverse()
    pairs = tuple(_sides(np.flatnonzero(bits[sub]), codes[sub]) for sub in family)
    pair_values = tuple(one_rayleigh_fraction(g, [(x in v1) - (x in v2) for x in range(n)])
                        for v1, v2 in pairs)
    return CheegerResult(
        value=max(pair_values),
        pairs=pairs,
        pair_values=pair_values,
        subsets_scored=full,
    )


def prefilter_lambda_box(g: SignedGraph, f) -> tuple | None:
    """The lambda screen of a {-1, 0, +1} pattern ``f``, one pattern at a
    time (the library screens whole blocks by exact ranks): the rejection
    ``("cut", pi)``, pi one nonzero entry, or None if it passes.

    Each support vertex x confines sgn(f_x) times its flux to [lo_x, hi_x],
    and the support pins lambda = sum (lo_x + hi_x) / 2 over sum mu_x. The
    screen rejects where lambda < lo_x / mu_x, for the first x with the
    largest lo_x / mu_x (pi = -sgn(f_x) at x), else where lambda >
    hi_y / mu_y, for the first y with the least hi_y / mu_y (pi = sgn(f_y)
    at y). The bounds are ``g.scaled_ints`` sums over each vertex's edges,
    compared exactly by cross-multiplication (mu > 0).
    """
    mu, kappa, edges = g.scaled_ints
    adj = [[] for _ in mu]
    for u, v, w, s in edges:
        adj[u].append((v, w, s))
        adj[v].append((u, w, s))
    a = b = 0  # lambda = a / b
    lo_max = hi_min = None  # (flux, mu, x) of the largest lower / smallest upper end
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
        a, b = a + lo + hi, b + 2 * mu[x]
        if lo_max is None or lo * lo_max[1] > lo_max[0] * mu[x]:
            lo_max = (lo, mu[x], x)
        if hi_min is None or hi * hi_min[1] < hi_min[0] * mu[x]:
            hi_min = (hi, mu[x], x)
    if a * lo_max[1] < b * lo_max[0]:
        at, sign = lo_max[2], -1
    elif a * hi_min[1] > b * hi_min[0]:
        at, sign = hi_min[2], 1
    else:
        return None
    return "cut", tuple(sign * ((f[at] > 0) - (f[at] < 0)) if v == at else 0 for v in range(len(mu)))


def pin_stage_reference(g: SignedGraph, f) -> tuple | None:
    """The pin stage of ``one_lap_enumerate`` on one {-1, 0, +1} pattern
    ``f``, by ``graph._labels`` (the library labels whole blocks at once):
    ``("cut", pi)`` with pi = sign(a mu(C) - b sum_C sgn_x c_x) sgn on the
    least-labelled component C of the free support edges whose pin differs
    from the support's lambda = a / b, else with pi_y = -sgn(c_y) at the
    least zero vertex y whose |c_y| exceeds |lambda| mu_y + |kappa_y| plus
    the weight of its zero-zero edges, else None. Pins are compared exactly
    by cross-multiplication on ``g.scaled_ints``."""
    mu, kappa, edges = g.scaled_ints
    n = len(mu)
    sgn = [(x > 0) - (x < 0) for x in f]
    c = [k * s for k, s in zip(kappa, sgn)]  # the determined flux
    free, zero_zero = [], [0] * n
    for u, v, w, s in edges:
        d = (f[u] > s * f[v]) - (f[u] < s * f[v])
        c[u] += w * d
        c[v] -= s * w * d
        if not d and sgn[u]:
            free.append((u, v))
        if not sgn[u] and not sgn[v]:
            zero_zero[u] += w
            zero_zero[v] += w
    a = sum(s * x for s, x in zip(sgn, c))
    b = sum(m for s, m in zip(sgn, mu) if s)
    for comp in _groups(_labels(n, free), (x for x in range(n) if sgn[x])).values():
        if gap := a * sum(mu[x] for x in comp) - b * sum(sgn[x] * c[x] for x in comp):
            return "cut", tuple(((gap > 0) - (gap < 0)) * sgn[x] if x in comp else 0
                                for x in range(n))
    for y in range(n):
        if not sgn[y] and b * (abs(c[y]) - abs(kappa[y]) - zero_zero[y]) > abs(a) * mu[y]:
            return "cut", tuple((c[y] < 0) - (c[y] > 0) if x == y else 0 for x in range(n))
    return None


def one_lap_lambda_range_lp(g: SignedGraph, f) -> list[tuple[Fraction, Fraction]]:
    """All lambda for which (lambda, f) satisfies the 1-Laplacian inclusion,
    by three exact LPs on ``sgspec.simplex`` (the library decides this by
    max-flow instead).

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


def lockstep_gradient_reference(g, p, f, r, eta, steps, sign, max_iter, handoff):
    """``spectra._lockstep_gradient`` before its fused step, on the public
    operators: every step applies Delta_p and gathers the edge differences
    anew. The fused step must give the same iterates, bit for bit. The
    Barzilai-Borwein dot products are the code's own ``np.vecdot`` on the
    (n, m) block, so that they round alike on every build."""
    mu = g.mu_array()[:, None]
    f_prev, descent_prev = f, np.zeros_like(f)
    while True:
        eq = apply_p_laplacian(g, p, f) - r * mu * phi_p(f, p)
        grad = p * eq
        # BB1 from the last accepted move; s = 0 for a column that did not move
        s, y = f - f_prev, sign * grad - descent_prev
        sy = np.vecdot(s, y, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            bb = np.minimum(np.vecdot(s, s, axis=0) / sy, BB_CAP)
        eta = np.where(sy > 0, bb, eta)
        f_prev, descent_prev = f, sign * grad
        stalled = (np.abs(grad).max(axis=0) < 1e-14) | (eta < 1e-15) | (steps >= max_iter)
        # eigen_residual(g, p, f, r), read off the gradient
        res = (np.abs(eq) / (1.0 + np.abs(r) * mu * np.abs(f) ** (p - 1))).max(axis=0)
        live = ~(stalled | (res < handoff))
        if not live.any():
            return f, r, eta, steps, ~stalled
        steps += live
        f_try = f - sign * eta * grad
        nonzero = f_try.any(axis=0)  # a zero column is rejected; f stands in
        f_try = _normalize_columns(g, p, np.where(nonzero, f_try, f))
        r_try = rayleigh(g, p, f_try)
        better = live & nonzero & (sign * (r_try - r) < -1e-16)
        f, r = np.where(better, f_try, f), np.where(better, r_try, r)
        eta = np.where(better | ~live, eta, eta * 0.5)


def _normalize_p(g: SignedGraph, p: float, f: np.ndarray) -> np.ndarray:
    scale = float(np.dot(g.mu_array(), np.abs(f) ** p)) ** (1.0 / p)
    if scale == 0.0:
        raise GraphError("cannot normalize the zero function")
    return f / scale


def _gradient_run(g, p, f0, sign, max_iter, step0):
    """Projected gradient on the mu-weighted l^p sphere; sign=+1 minimizes."""
    f = _normalize_p(g, p, f0)
    mu = g.mu_array()
    r = rayleigh(g, p, f)
    eta = step0
    steps = 0
    for _ in range(max_iter):
        grad = p * (apply_p_laplacian(g, p, f) - r * mu * phi_p(f, p))
        gnorm = float(np.max(np.abs(grad)))
        if gnorm < 1e-14 or eta < 1e-15:
            break
        steps += 1
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
    return f, r, steps


def _newton_polish(g: SignedGraph, p: float, f: np.ndarray, lam: float, iters: int = 50):
    """Newton on (Delta_p f - lam mu Phi_p f, mu-p-norm - 1), one dense
    solve per step; keeps the best iterate by residual."""
    n = g.n
    mu = g.mu_array()
    kap = g.kappa_array()
    f = _normalize_p(g, p, f.copy())
    best_f, best_lam = f.copy(), lam
    best_res = eigen_residual(g, p, f, lam)
    steps = 0
    for _ in range(iters):
        jac = np.zeros((n + 1, n + 1))
        rhs = np.zeros(n + 1)
        lap = apply_p_laplacian(g, p, f)
        rhs[:n] = -(lap - lam * mu * phi_p(f, p))
        rhs[n] = -(float(np.dot(mu, np.abs(f) ** p)) - 1.0)
        dabs = np.maximum(np.abs(f), 1e-12) ** (p - 2)
        d = f[g.eu] - g.es * f[g.ev]
        c = (p - 1) * g.ew * np.maximum(np.abs(d), 1e-12) ** (p - 2)
        jac[g.eu, g.ev] = jac[g.ev, g.eu] = -g.es * c
        jac[np.arange(n), np.arange(n)] = g.incident_sums(c)
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
        steps += 1
    return best_f, best_lam, best_res, steps


def extremal_p_sequential(g: SignedGraph, p: float, max_iter: int = 2000, step: float = 0.1,
                          tol: float = 1e-9, restarts: int = 8, seed: int = 0) -> ExtremalResult:
    """``extremal_p`` one start at a time: a projected-gradient run and a
    Newton polish per start, each in its own Python loop, with the same
    starts, selection and trace."""
    rng = np.random.default_rng(seed)
    spec2 = spectrum_p2(g)
    trace = []
    results = {}
    for which, sign, warm in (("min", +1, spec2.vectors[:, 0]),
                              ("max", -1, spec2.vectors[:, -1])):
        starts = [warm] + [rng.standard_normal(g.n) for _ in range(restarts)]
        cands = []
        for f0 in starts:
            f, r, gsteps = _gradient_run(g, p, f0, sign, max_iter, step)
            f, lam, res, nsteps = _newton_polish(g, p, f, r)
            trace.append({"which": which, "lambda": lam, "residual": res,
                          "gradient_steps": gsteps, "newton_steps": nsteps})
            cands.append((res <= tol, lam, f, res))
        results[which] = min(cands, key=lambda c: (not c[0], sign * c[1] if c[0] else c[3]))
    cmin, lam_min, f_min, res_min = results["min"]
    cmax, lam_max, f_max, res_max = results["max"]
    return ExtremalResult(p=p, lambda_min=lam_min, f_min=f_min, residual_min=res_min,
                          lambda_max=lam_max, f_max=f_max, residual_max=res_max,
                          converged_min=cmin, converged_max=cmax, trace=tuple(trace),
                          lockstep_steps=max(t["gradient_steps"] for t in trace))
