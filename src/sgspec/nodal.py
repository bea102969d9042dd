"""Nodal domain counting on signed graphs and the associated combinatorial
identities and eigenvalue-position bounds.

Every count of an int8 block of sign patterns comes from two calls of
``graph._block_labels`` (``_block``), and the public functions are its
one-column calls. Strong domains are the classes of the support under
edges whose endpoint product (through the signature) is positive; the
negative-product edges give the dual strong domains, and all support edges
the support's classes, and the class counts give the cycle surpluses. Weak
domains coarsen the strong ones by allowing walks through zero vertices,
with the sign accumulated along the walk: they are the classes of the
signed double cover in which each support vertex keeps only its node of
its own sign and each zero keeps both. Dual counts flip every signature.
Each public function checks f once, by ``graph._function``: in ``_one``,
or, for ``bound_report``, in ``_bound_reports``, which also counts the
eigenvectors of every eigenvalue group of a spectrum in one block.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .graph import GraphError, SignedGraph, _block_labels, _function, _groups, components

__all__ = [
    "strong_domains",
    "weak_domains",
    "dual_counts",
    "NodalSummary",
    "nodal_quantities",
    "SpectrumContext",
    "bound_report",
]


# The nodal labelings of an (n, m) int8 block ``t`` of sign patterns, by
# column j: ``lab[:, k, j]``, each vertex's least vertex of its class under
# the positive-product (k = 0), negative-product (1) and all support edges
# (2); ``cover[:, k, j]``, each node's least node of its weak class on the
# double cover under sigma (k = 0) and -sigma (1), and ``own[:, k, j]``
# that label at x's node of its own sign; ``strong[k, j]`` and
# ``weak[k, j]``, the number of these classes that meet the support;
# ``edges[k, j]`` and ``surplus[k, j]``, the edge count and the cycle
# surplus |edges| - n + #classes of each of the three edge sets.
_Block = namedtuple("_Block", "t lab cover own strong weak edges surplus")


def _block(g: SignedGraph, t: np.ndarray) -> _Block:
    """The labelings and counts of every column of the (n, m) int8 block t
    of signs, by two calls of ``graph._block_labels``: on the vertices,
    and on the pairs ``g.cover_ends`` of the signed double cover, whose
    node 2x + 1 is x with sign -1. There a support vertex keeps only its
    node of its own sign and a zero keeps both."""
    (n, m), on = t.shape, t != 0
    prod = t[g.eu] * t[g.ev] * g.es[:, None]
    split = np.concatenate((prod > 0, prod < 0, prod != 0), axis=1)
    lab = _block_labels(n, g.eu, g.ev, split).reshape(n, 3, m)
    # a support class is labelled by its least vertex, which is on the support
    strong = ((lab == np.arange(n)[:, None, None]) & on[:, None]).sum(axis=0)
    kept = np.concatenate((t >= 0, t <= 0), axis=1).reshape(2 * n, m)
    (cu, cv), half = g.cover_ends, 2 * len(g.edges)
    ends = kept[cu] & kept[cv]
    keep = np.zeros((2 * half, 2 * m), bool)  # the pairs under sigma, then under -sigma
    keep[:half, :m], keep[half:, m:] = ends[:half], ends[half:]
    cover = _block_labels(2 * n, cu, cv, keep).reshape(2 * n, 2, m)
    by_vertex = cover.reshape(n, 2, 2, m)  # [x, 0]: (x, +1), [x, 1]: (x, -1)
    own = np.where((t < 0)[:, None], by_vertex[:, 1], by_vertex[:, 0])
    # a weak class may be labelled by a zero's node: count the distinct labels
    hit = np.zeros((2 * n + 1, 2, m), bool)
    hit[np.where(on[:, None], own, 2 * n), np.arange(2)[:, None], np.arange(m)] = True
    edges = split.reshape(-1, 3, m).sum(axis=0)
    return _Block(t, lab, cover, own, strong, hit[:-1].sum(axis=0), edges,
                  edges - on.sum(axis=0) + strong)


def _one(g: SignedGraph, f) -> _Block:
    """``_block`` of the signs of f, once f is checked to be a finite,
    nonzero vector on g."""
    return _block(g, np.sign(_function(g, f)).astype(np.int8)[:, None])


def _strong_sets(b: _Block) -> list[set[int]]:
    """Strong domains of a one-column block, in order of least member."""
    support = np.flatnonzero(b.t).tolist()
    return [set(d) for d in _groups(b.lab[:, 0, 0].tolist(), support).values()]


def _weak_sets(b: _Block) -> tuple[list[set[int]], list[set[int]]]:
    """Weak classes of a one-column block, in order of least member, and
    their closures; see ``weak_domains``."""
    sgn = b.t[:, 0].tolist()
    classes = _groups(b.own[:, 0, 0].tolist(), (x for x, s in enumerate(sgn) if s))
    zero_nodes = _groups(b.cover[:, 0, 0].tolist(),
                         (i for i in range(2 * len(sgn)) if not sgn[i // 2]))
    return ([set(c) for c in classes.values()],
            [set(c).union(i // 2 for i in zero_nodes.get(label, ()))
             for label, c in classes.items()])


def strong_domains(g: SignedGraph, f) -> tuple[int, list[set[int]]]:
    """Connected components of support(f) under edges with f(x) sigma f(y) > 0."""
    b = _one(g, f)
    return int(b.strong[0, 0]), _strong_sets(b)


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
    b = _one(g, f)
    return (int(b.weak[0, 0]), *_weak_sets(b))


def dual_counts(g: SignedGraph, f) -> tuple[int, int]:
    """Strong and weak counts with respect to the negated signature."""
    b = _one(g, f)
    # under -sigma the positive-product support edges are the negative-product ones
    return int(b.strong[1, 0]), int(b.weak[1, 0])


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
    b = _one(g, f)
    (strong, dual_strong, _), (weak, dual_weak) = b.strong[:, 0].tolist(), b.weak[:, 0].tolist()
    (e_plus, e_minus, _), (l_plus, l_minus, _) = b.edges[:, 0].tolist(), b.surplus[:, 0].tolist()
    zeros = g.n - int(np.count_nonzero(b.t))
    e_zero = len(g.edges) - e_plus - e_minus
    wcls, wclo = _weak_sets(b)
    return NodalSummary(
        strong_count=strong,
        strong_sets=tuple(frozenset(d) for d in _strong_sets(b)),
        weak_count=weak,
        weak_classes=tuple(frozenset(c) for c in wcls),
        weak_closures=tuple(frozenset(c) for c in wclo),
        dual_strong_count=dual_strong,
        dual_weak_count=dual_weak,
        zeros=zeros,
        e_plus=e_plus,
        e_minus=e_minus,
        e_zero=e_zero,
        l_plus=l_plus,
        l_minus=l_minus,
        identity_ok=e_minus == len(g.edges) - e_zero + zeros - g.n - l_plus + strong,
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
    return _bound_reports(g, f, [ctx])[0]


def _bound_reports(g: SignedGraph, F, ctxs) -> list[dict]:
    """``bound_report`` of each column of F, an (n,) vector for one context
    or (n, m) for m, placed by its context in ``ctxs``: the columns are
    counted in one ``_block`` call."""
    n = g.n
    c = len(components(g)) if any(ctx.c is None for ctx in ctxs) else None
    for ctx in ctxs:
        if not 1 <= ctx.k <= n or ctx.r < 1 or ctx.k + ctx.r - 1 > n:
            raise GraphError(
                f"inconsistent spectrum context: k={ctx.k}, r={ctx.r}, n={n}"
            )
    b = _block(g, np.sign(_function(g, F, columns=True).reshape(n, -1)).astype(np.int8))
    return [_report(b, j, ctx, c if ctx.c is None else ctx.c) for j, ctx in enumerate(ctxs)]


def _report(b: _Block, j: int, ctx: SpectrumContext, c: int) -> dict:
    """The bound rows of column j of the block b, placed by ``ctx``, on a
    graph of c components."""
    n = len(b.t)
    (strong, dual_strong, _), (weak, dual_weak) = b.strong[:, j].tolist(), b.weak[:, j].tolist()
    # l_sub, the support's surplus: each zero adds one class and one vertex
    (l_plus, _, l_sub), zeros = b.surplus[:, j].tolist(), n - int(np.count_nonzero(b.t[:, j]))

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
    add("weak-le-strong", weak, strong, "<=")
    # strong nodal domain theorem: S(f) <= k + r - 1 (Davies et al. 2001)
    add("strong-upper", strong, k_last, "<=", k=ctx.k, r=ctx.r)
    # the same theorem for the dual, whose last index is n - k + 1
    add("dual-strong-upper", dual_strong, n - ctx.k + 1, "<=", k=ctx.k)
    if ctx.p > 1:
        # weak nodal domain theorem: W(f) <= k + c - 1 (Davies et al. 2001
        # for c = 1; arXiv:2209.09080 for signed graphs and p > 1)
        add("weak-upper", weak, ctx.k + c - 1, "<=", k=ctx.k, c=c)
        # the same theorem for the dual, whose first index is n - k - r + 2
        add(
            "dual-weak-upper",
            dual_weak,
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
        strong,
        k_last - l_sub + l_plus - zeros,
        ">=",
        k=ctx.k,
        r=ctx.r,
        l_support=l_sub,
        l_plus=l_plus,
        zeros=zeros,
    )
    return {
        "partial": ctx.p not in (1.0, 2.0),
        "p": ctx.p,
        "lambda": ctx.lam,
        "checks": checks,
        "all_pass": all(ch["pass"] for ch in checks),
    }
