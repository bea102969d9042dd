"""Nodal domain counting on signed graphs and the associated combinatorial
identities and eigenvalue-position bounds.

Strong domains are components of the support under edges whose endpoint
product (through the signature) is positive. Weak domains coarsen this by
allowing walks through zero vertices, with the sign accumulated along the
walk. Dual counts use the negated signature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GraphError, SignedGraph, components, cycle_surplus, induced_subgraph

__all__ = [
    "strong_domains",
    "weak_domains",
    "dual_counts",
    "NodalSummary",
    "nodal_quantities",
    "SpectrumContext",
    "bound_report",
]


def _support_sign(f) -> np.ndarray:
    return np.sign(np.asarray(f, dtype=float)).astype(int)


def _require_nonzero(f):
    f = np.asarray(f, dtype=float)
    if not np.any(f):
        raise GraphError("nodal domains are undefined for the zero function")
    return f


def strong_domains(g: SignedGraph, f) -> tuple[int, list[set[int]]]:
    """Connected components of support(f) under edges with f(x) sigma f(y) > 0."""
    f = _require_nonzero(f)
    sgn = _support_sign(f)
    adj = [[y for y, _, s in nbrs if sgn[x] * s * sgn[y] > 0]
           for x, nbrs in enumerate(g.adjacency())]
    seen = [False] * g.n
    domains = []
    for root in range(g.n):
        if sgn[root] == 0 or seen[root]:
            continue
        seen[root] = True
        comp = {root}
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.add(y)
                    stack.append(y)
        domains.append(comp)
    return len(domains), domains


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        """Merge the classes of a and b; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
        return ra != rb


def weak_domains(g: SignedGraph, f) -> tuple[int, list[set[int]], list[set[int]]]:
    """Weak classes on support(f) and their closures (attached zeros).

    Two support vertices merge when a walk between them, with every interior
    vertex a zero of f, has positive total sign (endpoint signs times the
    product of edge signatures). The search carries (vertex, accumulated
    sign) states so a zero region may be crossed with either sign.
    """
    f = _require_nonzero(f)
    sgn = _support_sign(f)
    adj = g.adjacency()
    support = [x for x in range(g.n) if sgn[x] != 0]
    uf = _UnionFind(support)
    reached_zeros: dict[int, set[int]] = {x: set() for x in support}

    for u in support:
        # states: (vertex, sign accumulated from u up to and including the
        # edge into that vertex); start covers direct edges out of u.
        visited = set()
        stack = []
        for y, _, s in adj[u]:
            state = (y, sgn[u] * s)
            if state not in visited:
                visited.add(state)
                stack.append(state)
        while stack:
            x, acc = stack.pop()
            if sgn[x] != 0:
                if acc * sgn[x] > 0:
                    uf.union(u, x)
                continue
            reached_zeros[u].add(x)
            for y, _, s in adj[x]:
                state = (y, acc * s)
                if state not in visited:
                    visited.add(state)
                    stack.append(state)

    classes: dict[int, set[int]] = {}
    for x in support:
        classes.setdefault(uf.find(x), set()).add(x)
    class_list = sorted(classes.values(), key=min)
    closures = [cls | set().union(*(reached_zeros[x] for x in cls)) for cls in class_list]
    return len(class_list), class_list, closures


def _negate(g: SignedGraph) -> SignedGraph:
    return SignedGraph(
        ids=g.ids,
        mu=g.mu,
        kappa=g.kappa,
        edges=tuple((u, v, w, -s) for u, v, w, s in g.edges),
    )


def dual_counts(g: SignedGraph, f) -> tuple[int, int]:
    """Strong and weak counts with respect to the negated signature."""
    gd = _negate(g)
    return strong_domains(gd, f)[0], weak_domains(gd, f)[0]


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


def _surplus_of_edge_set(n: int, edge_pairs: list[tuple[int, int]]) -> int:
    """l of the graph (full vertex set, given edges): |E| - n + #components,
    where each merging edge removes one component."""
    uf = _UnionFind(range(n))
    return len(edge_pairs) - sum(uf.union(u, v) for u, v in edge_pairs)


def nodal_quantities(g: SignedGraph, f) -> NodalSummary:
    """All nodal counts, edge splits and cycle surpluses, with the
    combinatorial identity |E_-| = |E| - |E_z| + z - |V| - l+ + strong
    verified on the way out."""
    f = _require_nonzero(f)
    sgn = _support_sign(f)
    sc, sdoms = strong_domains(g, f)
    wc, wcls, wclo = weak_domains(g, f)
    dsc, dwc = dual_counts(g, f)
    zeros = int(np.sum(sgn == 0))

    e_plus_pairs, e_minus_pairs, e_zero = [], [], 0
    for u, v, _, s in g.edges:
        prod = sgn[u] * s * sgn[v]
        if sgn[u] == 0 or sgn[v] == 0:
            e_zero += 1
        elif prod > 0:
            e_plus_pairs.append((u, v))
        else:
            e_minus_pairs.append((u, v))
    l_plus = _surplus_of_edge_set(g.n, e_plus_pairs)
    l_minus = _surplus_of_edge_set(g.n, e_minus_pairs)
    identity_ok = len(e_minus_pairs) == (
        len(g.edges) - e_zero + zeros - g.n - l_plus + sc
    )
    return NodalSummary(
        strong_count=sc,
        strong_sets=tuple(frozenset(d) for d in sdoms),
        weak_count=wc,
        weak_classes=tuple(frozenset(c) for c in wcls),
        weak_closures=tuple(frozenset(c) for c in wclo),
        dual_strong_count=dsc,
        dual_weak_count=dwc,
        zeros=zeros,
        e_plus=len(e_plus_pairs),
        e_minus=len(e_minus_pairs),
        e_zero=e_zero,
        l_plus=l_plus,
        l_minus=l_minus,
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
    q = nodal_quantities(g, f)
    support = [x for x in range(n) if f[x] != 0]
    l_sub = cycle_surplus(induced_subgraph(g, support))

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
