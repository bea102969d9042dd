"""Independent oracles used by the test suite.

These recompute quantities from first principles with different algorithm
families than the library (exhaustive enumeration, boolean matrix closure,
closed-form polynomial roots) so agreement is meaningful.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

from sgspec.graph import SignedGraph


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
    """Boolean transitive closure by Floyd-Warshall."""
    m = mat.copy()
    n = m.shape[0]
    for k in range(n):
        m |= np.outer(m[:, k], m[k, :])
    return m


def strong_count_oracle(g: SignedGraph, f) -> int:
    """Components of the support under positive-product edges, via closure."""
    f = np.asarray(f, dtype=float)
    sgn = np.sign(f)
    n = g.n
    reach = np.eye(n, dtype=bool)
    for u, v, _, s in g.edges:
        if sgn[u] * s * sgn[v] > 0:
            reach[u, v] = reach[v, u] = True
    reach = _closure(reach)
    support = [x for x in range(n) if sgn[x] != 0]
    reps = set()
    for x in support:
        reps.add(min(y for y in support if reach[x, y]))
    return len(reps)


def weak_count_oracle(g: SignedGraph, f) -> int:
    """Weak classes via closure on (vertex, sign) states.

    A walk from support u may pass only through zeros; u ~ v when the
    accumulated edge-sign product times sgn(u) sgn(v) is positive.
    """
    f = np.asarray(f, dtype=float)
    sgn = np.sign(f)
    n = g.n
    # state index: 2 * x + (0 if sign +1 else 1)
    step = np.zeros((2 * n, 2 * n), dtype=bool)
    for u, v, _, s in g.edges:
        for (a, b) in ((u, v), (v, u)):
            for sa in (0, 1):
                sb = sa if s == 1 else 1 - sa
                step[2 * a + sa, 2 * b + sb] = True
    # interior vertices must be zeros: kill outgoing steps from support
    # states except as the very first move, handled by composing closures.
    interior = step.copy()
    for x in range(n):
        if sgn[x] != 0:
            interior[2 * x, :] = False
            interior[2 * x + 1, :] = False
    reach_zero = _closure(np.eye(2 * n, dtype=bool) | interior)
    full = step @ reach_zero  # one edge out of u, then zero-interior walk

    support = [x for x in range(n) if sgn[x] != 0]
    related = {(u, u) for u in support}
    for u in support:
        su = 0 if sgn[u] > 0 else 1
        for v in support:
            sv = 0 if sgn[v] > 0 else 1
            if full[2 * u + su, 2 * v + sv]:
                related.add((u, v))
                related.add((v, u))
    # union-find from the relation
    parent = {x: x for x in support}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in related:
        parent[find(u)] = find(v)
    return len({find(x) for x in support})


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


def one_lap_grid_oracle(g: SignedGraph, f, lams) -> list[bool]:
    """Membership verdicts for candidate eigenvalues, via the exact checker."""
    from sgspec.operators import check_eigenpair_1lap

    return [check_eigenpair_1lap(g, lam, f).verdict for lam in lams]


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


def nonzero_patterns(n: int):
    for pattern in product((0, 1, -1), repeat=n):
        if any(pattern):
            yield pattern


def cheeger_h1_oracle(g: SignedGraph) -> Fraction:
    """h_1 by direct minimization of (iota + boundary) / volume over subsets."""
    from sgspec.cheeger import frustration_index

    best = None
    n = g.n
    for mask in range(1, 1 << n):
        omega = [x for x in range(n) if mask >> x & 1]
        iota, _, _ = frustration_index(g, omega)
        bound = sum(
            Fraction(w)
            for u, v, w, _ in g.edges
            if (u in omega) != (v in omega)
        )
        vol = sum(Fraction(g.mu[x]) for x in omega)
        val = (iota + bound) / vol
        if best is None or val < best:
            best = val
    return best
