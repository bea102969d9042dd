"""Signed graph data model: switching, balance, components, JSON I/O.

Every connectivity question of the package is one labeling, each class
labeled by its least node. On one graph it is ``_labels``, a union-find:
components over the edges, and balance over the signed double cover, whose
nodes 2x and 2x + 1 are x with sign +1 and -1, with an early stop. On a
block of edge subsets, one per column, it is ``_block_labels``, in numpy:
the nodal domains of ``nodal`` and the components of free support edges in
the 1-Laplacian pin stage, ``spectra._pin_stage``.

A signed graph carries a positive vertex measure ``mu``, a real vertex
potential ``kappa``, positive edge weights and an edge signature in {-1,+1}.
Vertices have string ids at the boundary and dense indices 0..n-1 internally.

JSON I/O: ``parse_graph`` and ``serialize_graph`` read and write graph
documents. Beside them, ``_load_json`` reads every document the package
takes (graphs, functions and suite configs), and ``_indented_json`` writes
every indented document it prints: the CLI's ``--format json`` output and
the suite report.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "GraphError",
    "ParseError",
    "SignedGraph",
    "BalanceState",
    "BalanceResult",
    "switch",
    "balance_state",
    "components",
    "cycle_surplus",
    "induced_subgraph",
    "with_degree_measure",
    "parse_graph",
    "serialize_graph",
    "parse_function",
    "serialize_function",
]


class GraphError(ValueError):
    """Invalid graph construction or operation input."""


class ParseError(GraphError):
    """Malformed graph or function document."""


def _is(x, kind) -> bool:
    """``x`` is a ``kind`` number and not a bool. Builtin types are tested
    first: the ABC check is slow and this runs per edge of every graph."""
    t = type(x)
    return t is int or (t is float and kind is numbers.Real) or (
        t is not bool and isinstance(x, kind))


def _frozen(values, dtype) -> np.ndarray:
    """A read-only ``dtype`` array of ``values``."""
    arr = np.array(values, dtype)
    arr.flags.writeable = False
    return arr


def _cached_array(values, dtype) -> cached_property:
    """A read-only ``dtype`` array of ``values(graph)``, built on first use."""
    return cached_property(lambda g: _frozen(values(g), dtype))


ColumnViews = namedtuple("ColumnViews", "eu ev ew es mu kappa bins col inc")


@dataclass(frozen=True)
class SignedGraph:
    """Immutable vertex- and edge-weighted graph with a +-1 signature.

    ``edges`` is a tuple of ``(u, v, w, sigma)`` with dense indices
    ``u < v``, finite weight ``w > 0`` and ``sigma in {-1, +1}`` an int;
    ``mu`` is finite and positive, ``kappa`` finite. The constructor is the
    one validator of these rules, as ``_function`` is of a function on the
    vertices. Its numeric views are read-only and built on first use: the
    edge columns ``eu``, ``ev`` (intp), ``ew``, ``es`` (float), mu, kappa,
    the ``columns`` views, ``cover_ends``, the pairs of the signed double
    cover, ``scaled_ints``, the exact integer view, and ``reduced_ints``,
    its arrays for the p = 1 block passes.
    """

    ids: tuple[str, ...]
    mu: tuple[float, ...]
    kappa: tuple[float, ...]
    edges: tuple[tuple[int, int, float, int], ...]

    def __post_init__(self):
        n = len(self.ids)
        if len(set(self.ids)) != n:
            raise GraphError("vertex ids must be unique")
        if len(self.mu) != n or len(self.kappa) != n:
            raise GraphError("mu/kappa must match the vertex set")
        for vid, m, k in zip(self.ids, self.mu, self.kappa):
            if not (_is(m, numbers.Real) and math.isfinite(m) and m > 0):
                raise GraphError(f"vertex {vid!r}: measure mu must be positive, finite, got {m}")
            if not (_is(k, numbers.Real) and math.isfinite(k)):
                raise GraphError(f"vertex {vid!r}: potential kappa must be finite, got {k}")
        def edge_error(u, v, what):
            return GraphError(f"edge {{{self.ids[u]},{self.ids[v]}}}: {what}")

        seen = set()
        for u, v, w, s in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge endpoint out of range: ({u},{v})")
            if u == v:
                raise GraphError(f"self-loop at vertex {self.ids[u]}")
            if u > v:
                raise GraphError("edges must be stored with u < v")
            if (u, v) in seen:
                raise edge_error(u, v, "parallel edge")
            seen.add((u, v))
            if not (_is(w, numbers.Real) and math.isfinite(w) and w > 0):
                raise edge_error(u, v, f"weight must be positive and finite, got {w}")
            if not (_is(s, numbers.Integral) and s in (-1, 1)):
                raise edge_error(u, v, f"signature must be the integer -1 or +1, got {s!r}")

    # Numeric views, each built on first use and then kept.
    eu = _cached_array(lambda g: [e[0] for e in g.edges], np.intp)
    ev = _cached_array(lambda g: [e[1] for e in g.edges], np.intp)
    ew = _cached_array(lambda g: [e[2] for e in g.edges], float)
    es = _cached_array(lambda g: [e[3] for e in g.edges], float)
    _mu = _cached_array(lambda g: g.mu, float)
    _kappa = _cached_array(lambda g: g.kappa, float)
    _index = cached_property(lambda g: {vid: i for i, vid in enumerate(g.ids)})

    @property
    def n(self) -> int:
        return len(self.ids)

    def index(self, vid: str) -> int:
        try:
            return self._index[vid]
        except KeyError:
            raise GraphError(f"unknown vertex id {vid!r}") from None

    def mu_array(self) -> np.ndarray:
        return self._mu

    def kappa_array(self) -> np.ndarray:
        return self._kappa

    def incident_sums(self, c) -> np.ndarray:
        """Per vertex, the sum of the per-edge values ``c`` over its edges;
        with sorted edges it adds them in edge order, as a per-edge loop."""
        c = np.asarray(c, dtype=float)
        return np.bincount(np.concatenate((self.ev, self.eu)), np.concatenate((c, c)), self.n)

    def weighted_degrees(self) -> np.ndarray:
        return self.incident_sums(self.ew)

    _column_views = cached_property(lambda g: {})

    def columns(self, m: int) -> ColumnViews:
        """Read-only flat views for m functions held as the columns of an
        (n, m) array f and read through ``f.ravel()``: the edge ends ``eu``,
        ``ev`` as flat indices; ``ew``, ``es``, ``mu``, ``kappa`` repeated per
        column, ``kappa`` None when it is zero everywhere; ``bins`` for
        ``np.bincount`` over the vertex entries, then the edges' v ends, then
        their u ends; ``col``, the column of each vertex entry, then of each
        edge entry; ``inc``, the (2, |E| m) signed incidence weights
        (-sigma w, w) of the v and u ends. Built once per m."""
        if m not in self._column_views:
            eu, ev = ((e[:, None] * m + np.arange(m)).ravel() for e in (self.eu, self.ev))
            ew, es, mu, kappa = (np.repeat(a, m) for a in (self.ew, self.es, self._mu, self._kappa))
            views = ColumnViews(eu, ev, ew, es, mu, kappa if any(self.kappa) else None,
                                np.concatenate((np.arange(self.n * m), ev, eu)),
                                np.arange((self.n + len(self.edges)) * m) % m,
                                np.stack((-es * ew, ew)))
            for a in views:
                if a is not None:
                    a.flags.writeable = False
            self._column_views[m] = views
        return self._column_views[m]

    @cached_property
    def cover_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ends ``(cu, cv)`` of the pairs of the signed double
        cover, whose node 2x + 1 is x with sign -1 (as in ``_cover_pairs``):
        per edge (u, v, sigma), with a = (u, +1) and b = (v, sigma), the
        pairs (a, b) and (a ^ 1, b ^ 1), which join under sigma, then
        (a, b ^ 1) and (a ^ 1, b), which join under -sigma."""
        a, b = 2 * self.eu, 2 * self.ev + (self.es < 0)
        return (_frozen(np.concatenate((a, a ^ 1, a, a ^ 1)), np.intp),
                _frozen(np.concatenate((b, b ^ 1, b ^ 1, b)), np.intp))

    @cached_property
    def scaled_ints(self) -> tuple[tuple[int, ...], tuple[int, ...],
                                   tuple[tuple[int, int, int, int], ...],
                                   tuple[tuple[tuple[int, int, int], ...], ...]]:
        """Exact integer view ``(mu, kappa, edges, adjacency)``: every mu,
        kappa and edge weight times one common denominator (a power of two
        for float data), so sums and ratios of them compare exactly in
        Python ints."""
        weights = [w for _, _, w, _ in self.edges]
        ratios = [Fraction(x).as_integer_ratio() for x in (*self.mu, *self.kappa, *weights)]
        den = math.lcm(*(d for _, d in ratios))
        ints = [num * (den // d) for num, d in ratios]
        n = self.n
        edges = tuple((u, v, w, s) for (u, v, _, s), w in zip(self.edges, ints[2 * n:]))
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for u, v, w, s in edges:
            adj[u].append((v, w, s))
            adj[v].append((u, w, s))
        return tuple(ints[:n]), tuple(ints[n:2 * n]), edges, tuple(map(tuple, adj))

    @cached_property
    def reduced_ints(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, type]:
        """``(mu, kappa, w, wide)``: ``scaled_ints`` as read-only arrays for the
        integer block passes of the p = 1 code, mu over gcd(mu), and kappa
        and the weights w over their gcd, which multiplies and divides lambda
        and changes no comparison of it; and ``wide``, the dtype of
        products. A |sum of fluxes| is at most A = sum |kappa| + 2 sum w and
        a sum of mu at most B = sum mu, so the arrays and their sums are
        int64 when A, B < 2**62 and products of the two when A B < 2**62;
        else they take Python ints (dtype object)."""
        mu, kappa, edges, _ = self.scaled_ints
        w = [e[2] for e in edges]
        dm, dk = math.gcd(*mu), math.gcd(*kappa, *w) or 1  # 0 without edges and kappa
        mu, kappa, w = ([x // d for x in xs] for xs, d in ((mu, dm), (kappa, dk), (w, dk)))
        span, total = sum(map(abs, kappa)) + 2 * sum(w), sum(mu)
        dtype = np.int64 if max(span, total) < 2**62 else object
        return (*(_frozen(xs, dtype) for xs in (mu, kappa, w)),
                dtype if span * total < 2**62 else object)

    @staticmethod
    def build(
        ids: Sequence[str],
        edges: Iterable[tuple[str, str, float, int]],
        mu: Mapping[str, float] | Sequence[float] | float = 1.0,
        kappa: Mapping[str, float] | Sequence[float] | float = 0.0,
    ) -> "SignedGraph":
        """Construct from string ids; edges as ``(u_id, v_id, w, sigma)``. Malformed
        input (not a 4-tuple, not a number, sigma not an int) raises GraphError."""
        ids = tuple(str(i) for i in ids)
        idx = {vid: i for i, vid in enumerate(ids)}

        def number(x, kind, what):
            try:
                return kind(x)
            except (TypeError, ValueError, OverflowError):
                raise GraphError(f"{what} must be a number, got {x!r}") from None

        def per_vertex(spec, name, default):
            if isinstance(spec, Mapping):
                if unknown := [key for key in spec if key not in idx]:
                    raise GraphError(f"{name} names {unknown[0]!r}, which is no vertex")
                spec = [spec.get(vid, default) for vid in ids]
            elif isinstance(spec, numbers.Real):
                spec = [spec] * len(ids)
            vals = tuple(number(v, float, name) for v in number(spec, tuple, name))
            if len(vals) != len(ids):
                raise GraphError(f"{name} length mismatch")
            return vals

        edge_list = []
        for e in edges:
            try:
                a, b, w, s = e
            except (TypeError, ValueError):
                raise GraphError(f"edge {e!r} is not a (u_id, v_id, w, sigma) tuple") from None
            a, b = str(a), str(b)
            if a not in idx or b not in idx:
                raise GraphError(f"edge references unknown vertex {a!r} or {b!r}")
            u, v = sorted((idx[a], idx[b]))
            edge_list.append((u, v, number(w, float, "edge weight"),
                              int(s) if _is(s, numbers.Integral) else s))
        return SignedGraph(
            ids=ids,
            mu=per_vertex(mu, "mu", 1.0),
            kappa=per_vertex(kappa, "kappa", 0.0),
            edges=tuple(sorted(edge_list, key=lambda e: e[:2])),
        )


def _function(g: SignedGraph, f, columns: bool = False, nonzero: bool = True) -> np.ndarray:
    """The one check of a function argument: f as a float array of shape
    (n,), or (n, m) with m >= 1 when the caller takes ``columns``; finite;
    and, with ``nonzero``, not zero (in any column)."""
    try:
        f = np.asarray(f, dtype=float)
    except (TypeError, ValueError):
        raise GraphError("function must be an array of real numbers") from None
    if f.shape != (g.n,) and not (columns and f.ndim == 2 and len(f) == g.n and f.shape[1]):
        expected = f"({g.n},) or ({g.n}, m)" if columns else f"({g.n},)"
        raise GraphError(f"function has shape {f.shape}, expected {expected}")
    if not np.isfinite(f).all():
        raise GraphError("function must be finite")
    if nonzero and not f.any(axis=0).all():
        raise GraphError("function must be nonzero")
    return f


def _exponent(p, single_valued: bool) -> None:
    """The one check of an exponent p: a finite real number, p > 1 where
    Delta_p must be ``single_valued``, else p >= 1."""
    if not (_is(p, numbers.Real) and math.isfinite(p) and (p > 1 if single_valued else p >= 1)):
        raise GraphError(f"p must be finite and {'> 1' if single_valued else '>= 1'}, got {p!r}")


def _seed(value, name: str = "seed") -> None:
    """The one check of a random seed or a count: a non-negative int, not a bool."""
    if not (_is(value, numbers.Integral) and value >= 0):
        raise GraphError(f"{name} must be a non-negative int, got {value!r}")


def _vertices(g: SignedGraph, xs) -> set[int]:
    """The set of vertex indices ``xs``; GraphError unless each is an int in [0, n)."""
    xs = set(xs)
    if not all(_is(x, numbers.Integral) and 0 <= x < g.n for x in xs):
        raise GraphError(f"vertex indices must be ints in [0, {g.n}), got {sorted(xs, key=repr)}")
    return {int(x) for x in xs}


class BalanceState(Enum):
    BALANCED = "balanced"
    ANTIBALANCED = "antibalanced"
    BOTH = "both"
    NEITHER = "neither"


@dataclass(frozen=True)
class BalanceResult:
    state: BalanceState
    balancing_tau: tuple[int, ...] | None
    antibalancing_tau: tuple[int, ...] | None


def switch(g: SignedGraph, tau: Sequence[int]) -> SignedGraph:
    """Switch the signature: sigma'_xy = tau(x) * sigma_xy * tau(y)."""
    if len(tau) != g.n:
        raise GraphError("switching function must be defined on exactly the vertex set")
    for t in tau:
        if t not in (-1, 1):
            raise GraphError(f"switching values must be -1 or +1, got {t}")
    new_edges = tuple((u, v, w, tau[u] * s * tau[v]) for u, v, w, s in g.edges)
    return SignedGraph(ids=g.ids, mu=g.mu, kappa=g.kappa, edges=new_edges)


def _labels(n: int, pairs: Iterable[tuple[int, int]], mirrored: bool = False) -> list[int] | None:
    """Union-find over nodes 0..n-1 joined by ``pairs``: per node, the least
    node of its class. Every parent is at most its child, so one ascending
    pass turns parents into roots.

    ``mirrored``: each pair (a, b) also joins its mirror (a ^ 1, b ^ 1), and
    the labeling stops, returning None, at the first pair that would put a
    node and its mirror in one class. Until then the classes are closed
    under the mirror and hold no such two nodes, so the root of the mirror
    of a's class is a's root ^ 1: the test is one comparison of roots, and
    the mirror union needs no search."""
    root = list(range(n))
    for u, v in pairs:
        while (r := root[u]) != u:
            root[u] = u = root[r]  # path halving
        while (r := root[v]) != v:
            root[v] = v = root[r]
        if u == v:
            continue
        if mirrored and u == v ^ 1:
            return None
        if v < u:
            u, v = v, u
        root[v] = u
        if mirrored:
            root[v ^ 1] = u ^ 1
    for x in range(n):
        root[x] = root[root[x]]
    return root


def _block_labels(n: int, eu: np.ndarray, ev: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Per column j of the (|E|, m) bool ``keep``, the classes of nodes
    0..n-1 joined by the pairs (eu[e], ev[e]) with keep[e, j]: an (n, m)
    array holding, per node, the least node of its class in column j.
    Repeated pairs and pairs (a, a) are allowed.

    Hook and jump on one flat parent array over (node, column), entry
    x m + j, after Shiloach & Vishkin, "An O(log n) parallel connectivity
    algorithm", J. Algorithms 3, 1982. After the jumps every entry points
    at its root. A round hooks, on every kept pair whose two roots differ,
    the larger root to the smaller, then sets parent = parent[parent] until
    it is stable. Any one of several writes to a root is correct, since
    each is smaller than the root, so ``minimum.at`` is not needed for the
    labels; it is used because it hooks a root to the least of its
    neighbouring roots, where the last write would hook a star whose centre
    is its largest node one leaf a round, and because under it a pair whose
    roots are equal writes nothing. Such a pair joins nothing any more and
    is dropped for good."""
    m = keep.shape[1]
    e, j = np.nonzero(keep)
    a, b = eu[e] * m + j, ev[e] * m + j
    parent = np.arange(n * m)
    while True:
        ra, rb = parent[a], parent[b]
        differ = ra != rb
        if not np.count_nonzero(differ):
            return (parent // max(m, 1)).reshape(n, m)
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        a, b = a[differ], b[differ]
        while np.count_nonzero(parent != (jumped := parent[parent])):
            parent = jumped


def _groups(lab: Sequence[int], nodes: Iterable[int]) -> dict[int, list[int]]:
    """``nodes`` grouped by label, in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for x in nodes:
        groups.setdefault(lab[x], []).append(x)
    return groups


def _cover_pairs(edges, flip: int) -> Iterable[tuple[int, int]]:
    """Edges of the signed double cover, whose node 2x + 1 is x with sign -1
    and 2x is x with sign +1, one of each mirror pair: an edge (u, v, sigma)
    joins (u, +1) to (v, sigma flip), and its mirror (a ^ 1, b ^ 1) joins
    (u, -1) to (v, -sigma flip)."""
    for u, v, _, s in edges:
        yield 2 * u, 2 * v + (s * flip < 0)


def balance_state(g: SignedGraph) -> BalanceResult:
    """Classify the switching class of ``g``.

    Balanced means some tau switches every edge positive; antibalanced
    means the negated signature is balanced. Both can hold at once
    (e.g. bipartite all-positive graphs). A tau making every edge sign t
    exists iff no x has both its nodes in one class of the double cover
    under t sigma (Zaslavsky, "Signed graphs", Discrete Appl. Math. 4,
    1982); it is +1 at the least vertex of each component. The labeling
    for t stops at the first cover edge that joins such two nodes.
    """
    def tau(t: int) -> tuple[int, ...] | None:
        lab = _labels(2 * g.n, _cover_pairs(g.edges, t), mirrored=True)
        if lab is None:
            return None
        return tuple(1 if lab[2 * x] % 2 == 0 else -1 for x in range(g.n))

    bal, anti = tau(+1), tau(-1)
    if bal is not None and anti is not None:
        state = BalanceState.BOTH
    elif bal is not None:
        state = BalanceState.BALANCED
    elif anti is not None:
        state = BalanceState.ANTIBALANCED
    else:
        state = BalanceState.NEITHER
    return BalanceResult(state=state, balancing_tau=bal, antibalancing_tau=anti)


def components(g: SignedGraph) -> list[list[int]]:
    """Connected components (sign-blind), each as a sorted index list."""
    lab = _labels(g.n, ((u, v) for u, v, _, _ in g.edges))
    return list(_groups(lab, range(g.n)).values())


def cycle_surplus(g: SignedGraph) -> int:
    """l(G) = |E| - |V| + c(G); zero exactly on forests."""
    return len(g.edges) - g.n + len(components(g))


def with_degree_measure(g: SignedGraph) -> SignedGraph:
    """``g`` with mu set to the weighted degree (1 on isolated vertices)."""
    mu = tuple(float(d) if d > 0 else 1.0 for d in g.weighted_degrees())
    return SignedGraph(ids=g.ids, mu=mu, kappa=g.kappa, edges=g.edges)


def induced_subgraph(g: SignedGraph, keep: Sequence[int]) -> SignedGraph:
    """Subgraph induced on the index set ``keep`` (mu, kappa carried over)."""
    keep = sorted(_vertices(g, keep))
    remap = {old: new for new, old in enumerate(keep)}
    edges = tuple(
        (remap[u], remap[v], w, s)
        for u, v, w, s in g.edges
        if u in remap and v in remap
    )
    return SignedGraph(
        ids=tuple(g.ids[i] for i in keep),
        mu=tuple(g.mu[i] for i in keep),
        kappa=tuple(g.kappa[i] for i in keep),
        edges=edges,
    )


def _number(obj: dict, key: str, default: float, where: str, i: int | None = None) -> float:
    """``obj[key]`` (else ``default``) as a float; the ParseError names its
    place, ``where`` or ``where[i]``, built only when it is raised."""
    val = obj.get(key, default)
    if type(val) is float:
        return val
    loc = where if i is None else f"{where}[{i}]"
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ParseError(f"{loc}: {key} must be a number, got {val!r}")
    try:
        return float(val)
    except OverflowError:
        raise ParseError(f"{loc}: {key} is out of range") from None


def _load_json(data: bytes | str):
    """The one reader of a JSON document: a malformed one, or one nested
    past the decoder's recursion limit, is a ParseError."""
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc


def parse_graph(data: bytes | str) -> SignedGraph:
    """Parse the JSON graph document (see README for the schema)."""
    doc = _load_json(data)
    if not (isinstance(doc, dict) and isinstance(doc.get("vertices"), list)
            and isinstance(doc.get("edges", []), list)):
        raise ParseError("graph document must be an object with 'vertices' and 'edges' lists")
    ids, mu, kappa = [], [], []
    for i, v in enumerate(doc["vertices"]):
        if not isinstance(v, dict) or "id" not in v:
            raise ParseError(f"vertices[{i}]: each vertex needs an 'id'")
        ids.append(str(v["id"]))
        mu.append(_number(v, "mu", 1.0, "vertices", i))
        kappa.append(_number(v, "kappa", 0.0, "vertices", i))
    idx = {vid: j for j, vid in enumerate(ids)}
    edges = []
    for i, e in enumerate(doc.get("edges", [])):
        if not isinstance(e, dict) or "u" not in e or "v" not in e:
            raise ParseError(f"edges[{i}]: each edge needs 'u' and 'v'")
        a, b = str(e["u"]), str(e["v"])
        u, v = idx.get(a), idx.get(b)
        if u is None or v is None:
            raise ParseError(f"edges[{i}]: unknown vertex {(a if u is None else b)!r}")
        if v < u:
            u, v = v, u
        edges.append((u, v, _number(e, "w", 1.0, "edges", i), e.get("sigma", 1)))
    # sorted on (u, v) alone: a malformed sigma must reach the validator
    edges.sort(key=itemgetter(0, 1))
    try:
        return SignedGraph(ids=tuple(ids), mu=tuple(mu), kappa=tuple(kappa), edges=tuple(edges))
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def serialize_graph(g: SignedGraph) -> bytes:
    """Canonical JSON bytes; parse(serialize(g)) == g."""
    doc = {
        "vertices": [
            {"id": vid, "mu": g.mu[i], "kappa": g.kappa[i]}
            for i, vid in enumerate(g.ids)
        ],
        "edges": [
            {"u": g.ids[u], "v": g.ids[v], "w": w, "sigma": s}
            for u, v, w, s in g.edges
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _indented_json(doc, pad: str = "\n") -> str:
    """Exactly ``json.dumps(doc, indent=2, sort_keys=True, default=str)``,
    the form of every indented document the package prints, ``pad`` being
    the newline and indentation of doc's own level.

    ``json.dumps`` takes its C encoder only without ``indent``; with it,
    every number costs a generator step and a Python call. Here a dict with
    str keys and a list or tuple are joined in one step each, a list of
    finite floats is mapped through ``float.__repr__`` in one pass, and
    str, int, finite float, bool and None leaves are written as
    ``json.dumps`` writes them. Anything else (NaN, infinities, numpy
    scalars, Fractions, non-str keys) goes to ``json.dumps`` itself,
    re-indented: its strings hold no raw newline."""
    t = type(doc)
    if t is str:
        return encode_basestring_ascii(doc)
    if t is int:
        return int.__repr__(doc)
    if t is float and math.isfinite(doc):
        return float.__repr__(doc)
    if t is bool:
        return "true" if doc else "false"
    if doc is None:
        return "null"
    inner = pad + "  "
    sep = "," + inner
    if t is dict and {*map(type, doc)} <= {str}:
        items = (encode_basestring_ascii(k) + ": " + _indented_json(doc[k], inner)
                 for k in sorted(doc))
        return "{" + inner + sep.join(items) + pad + "}" if doc else "{}"
    if t is list or t is tuple:
        if not doc:
            return "[]"
        if {*map(type, doc)} == {float} and all(map(math.isfinite, doc)):
            return "[" + inner + sep.join(map(float.__repr__, doc)) + pad + "]"
        return "[" + inner + sep.join(_indented_json(x, inner) for x in doc) + pad + "]"
    return json.dumps(doc, indent=2, sort_keys=True, default=str).replace("\n", pad)


def parse_function(data: bytes | str, g: SignedGraph) -> np.ndarray:
    """Parse ``{"values": {id: value}}`` into a dense vector over g."""
    doc = _load_json(data)
    if not isinstance(doc, dict) or not isinstance(doc.get("values"), dict):
        raise ParseError("function document must be an object with a 'values' map")
    vals = doc["values"]
    f = np.zeros(g.n)
    seen = set()
    for vid in vals:
        i = g.index(str(vid))
        f[i] = _number(vals, vid, 0.0, "values")
        if not math.isfinite(f[i]):
            raise ParseError(f"values: {vid} must be finite, got {f[i]}")
        seen.add(i)
    if len(seen) != g.n:
        missing = [g.ids[i] for i in range(g.n) if i not in seen]
        raise ParseError(f"function missing values for vertices {missing}")
    return f


def serialize_function(f: Sequence[float], g: SignedGraph) -> bytes:
    return json.dumps(
        {"values": {vid: float(x) for vid, x in zip(g.ids, _function(g, f, nonzero=False))}},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
