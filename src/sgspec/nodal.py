"""Nodal domain counting on signed graphs and the associated combinatorial
identities and eigenvalue-position bounds.

Every count is one labeling by ``graph._labels``. Strong domains are the
classes of the support under edges whose endpoint product (through the
signature) is positive. Weak domains coarsen this by allowing walks through
zero vertices, with the sign accumulated along the walk: they are the
classes of the signed double cover in which each support vertex keeps only
its node of its own sign and each zero keeps both. Dual counts flip every
signature. Each public function checks f once, by ``graph._function``, in
``_signs``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (GraphError, SignedGraph, _cover_pairs, _function, _groups, _labels,
                    _surplus, components)

__all__ = [
    "strong_domains",
    "weak_domains",
    "dual_counts",
    "NodalSummary",
    "nodal_quantities",
    "SpectrumContext",
    "bound_report",
]


def _signs(g: SignedGraph, f) -> list[int]:
    """sgn f, once f is checked to be a finite, nonzero vector on g."""
    return np.sign(_function(g, f)).astype(int).tolist()


def _split(g: SignedGraph, sgn: list[int]) -> tuple[list, list]:
    """The support edges whose product sgn(u) sigma sgn(v) is positive, and
    those whose product is negative, as (u, v) pairs."""
    plus, minus = [], []
    for u, v, _, s in g.edges:
        prod = sgn[u] * s * sgn[v]
        if prod:
            (plus if prod > 0 else minus).append((u, v))
    return plus, minus


def _domains(sgn: list[int], pairs) -> list[set[int]]:
    """Classes of the support under ``pairs``, in order of least member."""
    lab = _labels(len(sgn), pairs)
    return [set(d) for d in _groups(lab, (x for x, s in enumerate(sgn) if s)).values()]


def _weak(g: SignedGraph, sgn: list[int], flip: int) -> tuple[list[set[int]], list[set[int]]]:
    """Weak classes under the signature times ``flip``, and their closures;
    see ``weak_domains``. Node 2x + 1 of the cover is x with sign -1."""
    keep = [s == 0 or i == (s < 0) for s in sgn for i in (0, 1)]
    lab = _labels(2 * len(sgn), [(a, b) for pair in _cover_pairs(g.edges, flip)
                                 for a, b in (pair, (pair[0] ^ 1, pair[1] ^ 1))
                                 if keep[a] and keep[b]])
    own = [lab[2 * x + (s < 0)] for x, s in enumerate(sgn)]
    classes = _groups(own, (x for x, s in enumerate(sgn) if s))
    zero_nodes = _groups(lab, (i for i in range(2 * len(sgn)) if not sgn[i // 2]))
    return ([set(c) for c in classes.values()],
            [set(c).union(i // 2 for i in zero_nodes.get(label, ()))
             for label, c in classes.items()])


def strong_domains(g: SignedGraph, f) -> tuple[int, list[set[int]]]:
    """Connected components of support(f) under edges with f(x) sigma f(y) > 0."""
    sgn = _signs(g, f)
    domains = _domains(sgn, _split(g, sgn)[0])
    return len(domains), domains


def weak_domains(g: SignedGraph, f) -> tuple[int, list[set[int]], list[set[int]]]:
    """Weak classes on support(f) and their closures (attached zeros).

    Two support vertices merge when a walk between them, with every interior
    vertex a zero of f, has positive total sign (endpoint signs times the
    product of edge signatures). The classes are one labeling of the signed
    double cover, with nodes (x, +1) and (x, -1), in which each support
    vertex keeps only its node of its own sign and each zero keeps both: a
    cover path between kept support nodes is such a walk, and a zero region
    may be crossed with either sign. A class's closure adds every zero
    either of whose nodes lies in the class.
    """
    classes, closures = _weak(g, _signs(g, f), 1)
    return len(classes), classes, closures


def dual_counts(g: SignedGraph, f) -> tuple[int, int]:
    """Strong and weak counts with respect to the negated signature."""
    sgn = _signs(g, f)
    # under -sigma the positive-product support edges are the negative-product ones
    return len(_domains(sgn, _split(g, sgn)[1])), len(_weak(g, sgn, -1)[0])


@dataclass(frozen=True)
class NodalSummary:
    strong_count: int
    strong_sets: tuple[frozenset, ...]
    weak_count: int
    weak_classes: tuple[frozenset, ...]
    weak_closures: tuple[frozenset, ...]
    dual_strong_count: int
    dual_weak_count: int
    zeros: int
    e_plus: int
    e_minus: int
    e_zero: int
    l_plus: int
    l_minus: int
    identity_ok: bool


def nodal_quantities(g: SignedGraph, f) -> NodalSummary:
    """All nodal counts, edge splits and cycle surpluses, with the
    combinatorial identity |E_-| = |E| - |E_z| + z - |V| - l+ + strong
    verified on the way out."""
    return _quantities(g, _signs(g, f))


def _quantities(g: SignedGraph, sgn: list[int]) -> NodalSummary:
    """``nodal_quantities`` from the signs of a checked f."""
    plus, minus = _split(g, sgn)
    sdoms = _domains(sgn, plus)
    wcls, wclo = _weak(g, sgn, 1)
    zeros = sgn.count(0)
    e_zero = len(g.edges) - len(plus) - len(minus)
    l_plus = _surplus(g.n, plus)
    identity_ok = len(minus) == (
        len(g.edges) - e_zero + zeros - g.n - l_plus + len(sdoms)
    )
    return NodalSummary(
        strong_count=len(sdoms),
        strong_sets=tuple(frozenset(d) for d in sdoms),
        weak_count=len(wcls),
        weak_classes=tuple(frozenset(c) for c in wcls),
        weak_closures=tuple(frozenset(c) for c in wclo),
        dual_strong_count=len(_domains(sgn, minus)),
        dual_weak_count=len(_weak(g, sgn, -1)[0]),
        zeros=zeros,
        e_plus=len(plus),
        e_minus=len(minus),
        e_zero=e_zero,
        l_plus=l_plus,
        l_minus=_surplus(g.n, minus),
        identity_ok=identity_ok,
    )


@dataclass(frozen=True)
class SpectrumContext:
    """Position of the eigenvalue among the variational eigenvalues.

    ``k`` is the first index attaining the eigenvalue, ``r`` its
    multiplicity, ``c`` the (sign-blind) number of connected components of
    the graph; ``p`` controls which bounds apply and whether the report is
    marked partial (certified placements exist only for p in {1, 2}).
    """

    k: int
    r: int = 1
    c: int | None = None
    lam: float | None = None
    p: float = 2.0


def bound_report(g: SignedGraph, f, ctx: SpectrumContext) -> dict:
    """Evaluate the nodal-count bounds attached to an eigenvalue position.

    Returns {"partial": bool, "checks": [{check, inputs, lhs, rhs, pass}]}.
    ``ctx`` places f's eigenvalue at positions k .. k + r - 1. Strong counts
    are bounded through the last of these indices, weak counts through the
    first plus c - 1 (Davies, Gladwell, Leydold & Stadler, "Discrete nodal
    domain theorems", Linear Algebra Appl. 336, 2001; for signed graphs and
    p-Laplacians, arXiv:2209.09080). The dual rows negate the signature:
    -L_sigma is the signed Laplacian of -sigma with potential
    -2 deg_w - kappa, and f is its eigenfunction at positions
    n - k - r + 2 .. n - k + 1.
    """
    n = g.n
    c = ctx.c if ctx.c is not None else len(components(g))
    if not 1 <= ctx.k <= n or ctx.r < 1 or ctx.k + ctx.r - 1 > n:
        raise GraphError(
            f"inconsistent spectrum context: k={ctx.k}, r={ctx.r}, n={n}"
        )
    sgn = _signs(g, f)
    q = _quantities(g, sgn)
    # the support's surplus: each zero adds one class and one vertex
    plus, minus = _split(g, sgn)
    l_sub = _surplus(n, plus + minus)

    checks = []

    def add(name, lhs, rhs, sense, **inputs):
        ok = lhs <= rhs if sense == "<=" else lhs >= rhs
        checks.append(
            {"check": name, "lhs": lhs, "rhs": rhs, "sense": sense,
             "pass": bool(ok), "inputs": inputs}
        )

    k_last = ctx.k + ctx.r - 1
    # every strong domain lies in one weak domain, and every weak domain
    # contains a strong one (Davies et al. 2001)
    add("weak-le-strong", q.weak_count, q.strong_count, "<=")
    # strong nodal domain theorem: S(f) <= k + r - 1 (Davies et al. 2001)
    add("strong-upper", q.strong_count, k_last, "<=", k=ctx.k, r=ctx.r)
    # the same theorem for the dual, whose last index is n - k + 1
    add("dual-strong-upper", q.dual_strong_count, n - ctx.k + 1, "<=", k=ctx.k)
    if ctx.p > 1:
        # weak nodal domain theorem: W(f) <= k + c - 1 (Davies et al. 2001
        # for c = 1; arXiv:2209.09080 for signed graphs and p > 1)
        add("weak-upper", q.weak_count, ctx.k + c - 1, "<=", k=ctx.k, c=c)
        # the same theorem for the dual, whose first index is n - k - r + 2
        add(
            "dual-weak-upper",
            q.dual_weak_count,
            n - ctx.k - ctx.r + c + 1,
            "<=",
            k=ctx.k,
            r=ctx.r,
            c=c,
        )
    # lower bound through the cycle surplus of the support, after
    # Berkolaiko, "A lower bound for nodal count on discrete and metric
    # graphs", Comm. Math. Phys. 278, 2008
    add(
        "strong-lower-surplus",
        q.strong_count,
        k_last - l_sub + q.l_plus - q.zeros,
        ">=",
        k=ctx.k,
        r=ctx.r,
        l_support=l_sub,
        l_plus=q.l_plus,
        zeros=q.zeros,
    )
    return {
        "partial": ctx.p not in (1.0, 2.0),
        "p": ctx.p,
        "lambda": ctx.lam,
        "checks": checks,
        "all_pass": all(ch["pass"] for ch in checks),
    }
