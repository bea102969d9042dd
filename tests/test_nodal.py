import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgspec.cheeger import check_theorem41, cheeger_k
from sgspec.graph import GraphError, SignedGraph, induced_subgraph, serialize_function, switch
from sgspec.harness import random_signed_graph
from sgspec.nodal import (
    SpectrumContext,
    _bound_reports,
    bound_report,
    dual_counts,
    nodal_quantities,
    strong_domains,
    weak_domains,
)
from sgspec.operators import (
    EigenPair,
    apply_p_laplacian,
    check_certificates_1lap,
    check_eigenpair,
    check_eigenpair_1lap,
    eigen_residual,
    one_lap_lambda_range,
    rayleigh,
)
from sgspec.spectra import upper_bound_lambda_k
from sgspec.transforms import interlacing_check_p2, remove_edge, remove_node

from oracles import (
    _closure,
    all_signed_graphs,
    nonzero_patterns,
    strong_count_oracle,
    weak_count_oracle,
)
from test_graph import complete, path, random_graph, triangle


def random_pattern(rng, n):
    f = rng.standard_normal(n)
    f[rng.random(n) < 0.4] = 0.0
    return f if np.any(f) else random_pattern(rng, n)


def closure_sets(g, f):
    """Strong sets and weak closures from boolean transitive closures.

    A weak class is a class of the relation "some walk through zeros joins
    (u, sgn u) to (v, sgn v) on the (vertex, sign) states"; its closure adds
    every zero that such a walk from one of its members reaches.
    """
    sgn = np.sign(f)
    n = g.n
    support = [x for x in range(n) if sgn[x]]
    plus = np.eye(n, dtype=bool)
    step = np.zeros((2 * n, 2 * n), dtype=bool)  # state 2x: sign +1, 2x + 1: sign -1
    for u, v, _, s in g.edges:
        if sgn[u] * s * sgn[v] > 0:
            plus[u, v] = plus[v, u] = True
        for a, b in ((u, v), (v, u)):
            for i in (0, 1):
                step[2 * a + i, 2 * b + (i if s == 1 else 1 - i)] = True
    plus = _closure(plus)
    strong = {frozenset(y for y in support if plus[x, y]) for x in support}

    interior = step.copy()
    interior[[2 * x + i for x in support for i in (0, 1)], :] = False
    full = step @ _closure(np.eye(2 * n, dtype=bool) | interior)
    own = {x: 2 * x + int(sgn[x] < 0) for x in support}
    rel = np.eye(n, dtype=bool)
    for u in support:
        for v in support:
            rel[u, v] |= full[own[u], own[v]]
    rel = _closure(rel | rel.T)
    closures = set()
    for u in support:
        cls = {v for v in support if rel[u, v]}
        zeros = {z for z in range(n) if not sgn[z]
                 and any(full[own[v], 2 * z] or full[own[v], 2 * z + 1] for v in cls)}
        closures.add(frozenset(cls | zeros))
    return strong, closures


class TestStrong:
    def test_p3_alternating(self):
        assert strong_domains(path(3), [1, -1, 1])[0] == 3

    def test_p3_zero_separates(self):
        count, doms = strong_domains(path(3), [1, 0, 1])
        assert count == 2
        assert sorted(map(sorted, doms)) == [[0], [2]]

    def test_unbalanced_triangle(self):
        g = triangle((-1, 1, 1))
        assert strong_domains(g, [1, -1, 1])[0] == 1

    def test_zero_function_rejected(self):
        with pytest.raises(GraphError):
            strong_domains(path(2), [0, 0])


_G = random_signed_graph(4, 0.9, seed=1, connected=True)  # (0, 1) is an edge
# Each malformed row is zero at vertex 2 and nonzero on the edge (0, 1), so
# that its defect is the only reason for the surgeries to refuse it.
_BAD = {
    "long": [1.0, -1.0, 0.0, -1.0, 1.0],
    "short": [1.0, -1.0, 0.0],
    "nan": [1.0, float("nan"), 0.0, 1.0],
    "inf": [1.0, -1.0, 0.0, float("inf")],
    "matrix": [[1.0, -1.0, 0.0, -1.0]],
    "zero": [0.0, 0.0, 0.0, 0.0],
}
# Every public entry point that takes a function f on the vertices, as
# fn(g, f), and whether it rejects f = 0. The surgeries act on the edge
# (0, 1) and the vertex 2.
_TAKES_F = {
    "strong_domains": (strong_domains, True),
    "weak_domains": (weak_domains, True),
    "dual_counts": (dual_counts, True),
    "nodal_quantities": (nodal_quantities, True),
    "bound_report": (functools.partial(bound_report, ctx=SpectrumContext(k=1)), True),
    "apply_p_laplacian": (lambda g, f: apply_p_laplacian(g, 3.0, f), False),
    "rayleigh": (lambda g, f: rayleigh(g, 3.0, f), True),
    "eigen_residual": (lambda g, f: eigen_residual(g, 3.0, f, 1.0), False),
    "check_eigenpair": (lambda g, f: check_eigenpair(g, EigenPair(1.0, f, 3.0)), True),
    "check_eigenpair_1lap": (lambda g, f: check_eigenpair_1lap(g, 1.0, f), True),
    "one_lap_lambda_range": (one_lap_lambda_range, True),
    # one certificate: f as a block of one column, under a zero witness; no
    # kind certifies a zero column, so f = 0 answers False there
    "check_certificate_1lap": (lambda g, f: check_certificates_1lap(
        g, "witness", np.asarray(f)[:, None], [0], [1], np.zeros((len(g.edges), 1), int),
        np.zeros((g.n, 1), int)), False),
    "remove_edge": (lambda g, f: remove_edge(g, 2.0, f, (0, 1)), True),
    "remove_node": (lambda g, f: remove_node(g, 2, f), False),
    "interlacing_edge": (lambda g, f: interlacing_check_p2(
        g, [{"kind": "remove_edge", "edge": (0, 1), "f": f}]), True),
    "interlacing_node": (lambda g, f: interlacing_check_p2(
        g, [{"kind": "remove_node", "node": 2, "f": f}]), False),
    "serialize_function": (lambda g, f: serialize_function(f, g), False),
}


_NAN, _INF = float("nan"), float("inf")
_F = np.array([1.0, -1.0, 0.0, 1.0])  # nonzero on the edge (0, 1)
# Public entry points called with one bad scalar argument: an exponent p that
# is not finite, or below 1 (or at 1 where Delta_p must be single-valued), a
# lambda that is not a finite real, or a vertex index that is not an int in
# [0, n); and an EigenPair whose f is not a finite real vector.
_BAD_SCALAR = {
    "check_eigenpair_1lap-nan-lambda": lambda g: check_eigenpair_1lap(g, _NAN, _F),
    "check_eigenpair_1lap-inf-lambda": lambda g: check_eigenpair_1lap(g, _INF, _F),
    "check_eigenpair_1lap-bool-lambda": lambda g: check_eigenpair_1lap(g, True, _F),
    "check_eigenpair_1lap-str-lambda": lambda g: check_eigenpair_1lap(g, "0.5", _F),
    "check_eigenpair_1lap-complex-lambda": lambda g: check_eigenpair_1lap(g, 1j, _F),
    "rayleigh-nan-p": lambda g: rayleigh(g, _NAN, _F),
    "rayleigh-p-below-1": lambda g: rayleigh(g, 0.5, _F),
    "apply_p_laplacian-inf-p": lambda g: apply_p_laplacian(g, _INF, _F),
    "apply_p_laplacian-nan-p": lambda g: apply_p_laplacian(g, _NAN, _F),
    "eigen_residual-nan-p": lambda g: eigen_residual(g, _NAN, _F, 1.0),
    "EigenPair-nan-p": lambda g: EigenPair(1.0, _F, _NAN),
    "EigenPair-nan-lambda": lambda g: EigenPair(_NAN, [1.0], 2.0),
    "EigenPair-inf-lambda": lambda g: EigenPair(-_INF, _F, 2.0),
    "EigenPair-str-lambda": lambda g: EigenPair("1", _F, 2.0),
    "EigenPair-complex-lambda": lambda g: EigenPair(1j, _F, 2.0),
    "EigenPair-str-f": lambda g: EigenPair(1.0, "ab", 2.0),
    "EigenPair-nan-in-f": lambda g: EigenPair(1.0, np.array([_NAN, 1.0, 2.0]), 2.0),
    "EigenPair-inf-in-f": lambda g: EigenPair(1.0, [1.0, _INF], 2.0),
    "EigenPair-complex-f": lambda g: EigenPair(1.0, [1j, 1.0], 2.0),
    "EigenPair-2d-f": lambda g: EigenPair(1.0, [[1.0, 2.0]], 2.0),
    "EigenPair-scalar-f": lambda g: EigenPair(1.0, 1.0, 2.0),
    "check_eigenpair-nan-lambda": lambda g: check_eigenpair(g, EigenPair(_NAN, _F, 2.0)),
    "check_eigenpair-p-1": lambda g: check_eigenpair(g, EigenPair(1.0, _F, 1.0)),
    "upper_bound_lambda_k-nan-p": lambda g: upper_bound_lambda_k(g, _NAN, 1),
    "check_theorem41-nan-p": lambda g: check_theorem41(g, _NAN, 1, 1.0, 1),
    "remove_edge-inf-p": lambda g: remove_edge(g, _INF, _F, (0, 1)),
    "remove_edge-float-index": lambda g: remove_edge(g, 2.0, _F, (0, 1.0)),
    "remove_edge-index-out-of-range": lambda g: remove_edge(g, 2.0, _F, (0, 7)),
    "remove_node-float-index": lambda g: remove_node(g, 1.5),
    "remove_node-negative-index": lambda g: remove_node(g, -1),
    "induced_subgraph-negative-index": lambda g: induced_subgraph(g, [-1]),
    "induced_subgraph-index-out-of-range": lambda g: induced_subgraph(g, [5]),
    "cheeger_k-float-k": lambda g: cheeger_k(g, 1.5),
    "cheeger_k-bool-k": lambda g: cheeger_k(g, True),
    "check_theorem41-float-k": lambda g: check_theorem41(g, 2.0, 1.5, 1.0, 1),
    "check_theorem41-bool-m": lambda g: check_theorem41(g, 2.0, 1, 1.0, True),
    "upper_bound_lambda_k-float-k": lambda g: upper_bound_lambda_k(g, 2.0, 1.5),
    "upper_bound_lambda_k-bool-k": lambda g: upper_bound_lambda_k(g, 2.0, True),
    "bound_report-float-k": lambda g: bound_report(g, _F, SpectrumContext(k=1.5)),
    "bound_report-bool-r": lambda g: bound_report(g, _F, SpectrumContext(k=1, r=True)),
    "bound_report-negative-c": lambda g: bound_report(g, _F, SpectrumContext(k=1, c=-3)),
}


class TestMalformedScalar:
    """Each bad scalar argument is a GraphError, checked once by
    ``graph._exponent``, ``graph._vertices``, ``graph._seed`` (a count k, m,
    r or c) or, for lambda, by
    ``check_eigenpair_1lap`` itself and by ``EigenPair``, which also checks
    its f."""

    @pytest.mark.parametrize("call", _BAD_SCALAR.values(), ids=_BAD_SCALAR)
    def test_rejected(self, call):
        with pytest.raises(GraphError):
            call(_G)


class TestMalformedFunction:
    """f must be a finite vector with one entry per vertex, or (n, m) where
    the entry point takes columns, and nonzero where the entry point needs
    it; every public entry point that takes f raises GraphError otherwise."""

    G, BAD = _G, _BAD

    @pytest.mark.parametrize("fn, kind", [
        pytest.param(fn, kind, id=f"{name}-{kind}")
        for name, (fn, rejects_zero) in _TAKES_F.items() for kind in _BAD
        if kind != "zero" or rejects_zero])
    def test_rejected(self, fn, kind):
        with pytest.raises(GraphError):
            fn(self.G, self.BAD[kind])

    @pytest.mark.parametrize("fn", [fn for fn, rejects_zero in _TAKES_F.values()
                                    if not rejects_zero],
                             ids=[name for name, (_, z) in _TAKES_F.items() if not z])
    def test_zero_accepted_where_defined(self, fn):
        fn(self.G, self.BAD["zero"])

    def test_good_function_accepted(self):
        assert nodal_quantities(self.G, [1.0, -1.0, 0.0, 1.0]).identity_ok


class TestWeak:
    def test_p3_positive_through_zero(self):
        count, classes, closures = weak_domains(path(3), [1, 0, 1])
        assert count == 1
        assert classes == [{0, 2}]
        assert closures == [{0, 1, 2}]

    def test_p3_negative_through_zero(self):
        assert weak_domains(path(3), [1, 0, -1])[0] == 2

    def test_p3_alternating(self):
        assert weak_domains(path(3), [1, -1, 1])[0] == 3

    def test_zero_region_crossed_with_both_signs(self):
        # square a-b-c-d-a with one negative edge; b, d zero: a and c are
        # connected with positive sign via one arc and negative via the other
        g = SignedGraph.build(
            "abcd",
            [("a", "b", 1, 1), ("b", "c", 1, 1), ("c", "d", 1, 1), ("d", "a", 1, -1)],
        )
        count, classes, _ = weak_domains(g, [1, 0, 1, 0])
        assert count == 1
        assert classes == [{0, 2}]


class TestDual:
    def test_p2_plus(self):
        g = path(2)
        q = nodal_quantities(g, [1, 1])
        assert (q.strong_count, q.dual_strong_count) == (1, 2)

    def test_p2_minus(self):
        g = SignedGraph.build(["a", "b"], [("a", "b", 1.0, -1)])
        assert strong_domains(g, [1, 1])[0] == 2
        assert dual_counts(g, [1, 1])[0] == 1

    def test_positive_triangle(self):
        g = triangle()
        assert strong_domains(g, [1, 1, 1])[0] == 1
        assert dual_counts(g, [1, 1, 1])[0] == 3


class TestQuantities:
    def test_p3_counts(self):
        q = nodal_quantities(path(3), [1, 0, -1])
        assert (q.e_zero, q.zeros, q.e_plus, q.e_minus) == (2, 1, 0, 0)
        assert q.l_plus == 0
        assert q.strong_count == 2
        assert q.identity_ok

    def test_k5_constant(self):
        q = nodal_quantities(complete(5), [1, 1, 1, 1, 1])
        assert (q.e_plus, q.l_plus, q.strong_count, q.e_minus) == (10, 6, 1, 0)
        assert q.identity_ok

    def test_tree_no_zeros(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            edges = [(f"v{i}", f"v{int(rng.integers(0, i))}", 1.0,
                      int(rng.choice((-1, 1)))) for i in range(1, n)]
            g = SignedGraph.build([f"v{i}" for i in range(n)], edges)
            f = rng.choice((-1.0, 1.0), size=n)
            q = nodal_quantities(g, f)
            assert q.e_plus + q.e_minus == n - 1
            assert q.l_plus == q.l_minus == 0

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(2, 9)))
        f = random_pattern(rng, g.n)
        assert nodal_quantities(g, f).identity_ok

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_no_zero_formulas(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(2, 8)))
        f = rng.choice((-1.0, 1.0), size=g.n)
        q = nodal_quantities(g, f)
        assert q.strong_count == g.n - q.e_plus + q.l_plus
        assert q.strong_count + q.dual_strong_count == (
            2 * g.n - len(g.edges) + q.l_plus + q.l_minus
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_weak_le_strong_and_refinement(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(2, 9)))
        f = random_pattern(rng, g.n)
        q = nodal_quantities(g, f)
        assert q.weak_count <= q.strong_count
        # every strong domain sits inside a single weak closure
        for dom in q.strong_sets:
            assert sum(1 for clo in q.weak_closures if dom <= clo) >= 1

    @given(st.integers(0, 2**10 - 1), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_switching_equivariance(self, mask, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 5)
        f = random_pattern(rng, 5)
        tau = np.array([1 if mask >> i & 1 else -1 for i in range(5)])
        q1 = nodal_quantities(g, f)
        q2 = nodal_quantities(switch(g, list(tau)), tau * f)
        assert (q1.strong_count, q1.weak_count) == (q2.strong_count, q2.weak_count)
        assert (q1.dual_strong_count, q1.dual_weak_count) == (
            q2.dual_strong_count, q2.dual_weak_count
        )


class TestAgainstClosureOracle:
    def test_exhaustive_small_signed_graphs(self):
        for g in all_signed_graphs(3):
            for f in nonzero_patterns(3):
                assert strong_domains(g, f)[0] == strong_count_oracle(g, f)
                assert weak_domains(g, f)[0] == weak_count_oracle(g, f)

    def test_random_larger(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            g = random_graph(rng, int(rng.integers(4, 8)))
            f = np.array(rng.choice((-1.0, 0.0, 1.0), size=g.n))
            if not np.any(f):
                continue
            assert strong_domains(g, f)[0] == strong_count_oracle(g, f)
            assert weak_domains(g, f)[0] == weak_count_oracle(g, f)
            q = nodal_quantities(g, f)
            assert (set(q.strong_sets), set(q.weak_closures)) == closure_sets(g, f)


class TestBoundReport:
    def test_p3_second_eigenfunction(self):
        rep = bound_report(path(3), [1, 0, -1],
                           SpectrumContext(k=2, r=1, c=1, lam=1.0, p=2.0))
        assert not rep["partial"]
        assert rep["all_pass"]
        by_name = {c["check"]: c for c in rep["checks"]}
        assert by_name["strong-upper"]["lhs"] == 2
        assert by_name["strong-upper"]["rhs"] == 2
        # n - k - r + 2 bounds the dual strong count only where f has no
        # zeros, and there "dual-weak-upper" implies it
        assert "dual-strong-upper-mult" not in by_name

    def test_constant_on_balanced(self):
        rep = bound_report(triangle(), [1, 1, 1], SpectrumContext(k=1))
        assert rep["all_pass"]
        by_name = {c["check"]: c for c in rep["checks"]}
        assert by_name["strong-upper"]["lhs"] == 1

    def test_partial_flag_for_other_p(self):
        rep = bound_report(path(3), [1, 0, -1], SpectrumContext(k=2, p=2.5))
        assert rep["partial"]
        names = {c["check"] for c in rep["checks"]}
        assert "weak-upper" in names  # p > 1 bounds still evaluated

    def test_weak_upper_excluded_for_p1(self):
        rep = bound_report(path(3), [1, 0, -1], SpectrumContext(k=2, p=1.0))
        names = {c["check"] for c in rep["checks"]}
        assert "weak-upper" not in names

    def test_inconsistent_context(self):
        with pytest.raises(GraphError):
            bound_report(path(3), [1, 0, -1], SpectrumContext(k=3, r=2))

    def test_batched_reports_equal_the_one_column_calls(self):
        # a spectrum's groups, as the suite counts them, and random sign
        # patterns with zeros, on one block each
        from sgspec.harness import _clean_zeros
        from sgspec.spectra import spectrum_p2

        rng = np.random.default_rng(31)
        for model in ("uniform", "balanced", "antibalanced", "all-negative"):
            for seed in range(12):
                g = random_signed_graph(int(rng.integers(2, 9)), float(rng.uniform(0.2, 1.0)),
                                        model, seed=seed, connected=seed % 2 == 0)
                spec = spectrum_p2(g)
                F = np.stack([_clean_zeros(spec.vectors[:, grp[0]]) for grp in spec.groups],
                             axis=1)
                ctxs = [SpectrumContext(k=grp[0] + 1, r=len(grp), lam=float(spec.values[grp[0]]))
                        for grp in spec.groups]
                signs = rng.choice((-1.0, 0.0, 1.0), size=(g.n, 5))
                signs[0] = 1.0
                F = np.concatenate((F, signs), axis=1)
                ctxs += [SpectrumContext(k=int(rng.integers(1, g.n + 1)), c=seed % 3 or None,
                                         p=float(rng.choice((1.0, 2.0, 3.5))))
                         for _ in range(5)]
                assert _bound_reports(g, F, ctxs) == [bound_report(g, F[:, j], ctx)
                                                      for j, ctx in enumerate(ctxs)]

    def test_forest_nonvanishing_equality(self):
        # nonvanishing eigenfunction on a tree: strong count == k + c - 1
        from sgspec.spectra import spectrum_p2

        rng = np.random.default_rng(25)
        checked = 0
        for _ in range(30):
            n = int(rng.integers(2, 8))
            edges = [(f"v{i}", f"v{int(rng.integers(0, i))}",
                      float(rng.uniform(0.5, 2.0)), int(rng.choice((-1, 1))))
                     for i in range(1, n)]
            g = SignedGraph.build([f"v{i}" for i in range(n)], edges)
            spec = spectrum_p2(g)
            for k in range(n):
                f = spec.vectors[:, k]
                if np.min(np.abs(f)) < 1e-7 or spec.multiplicity(k) > 1:
                    continue
                assert strong_domains(g, f)[0] == (k + 1) + 1 - 1
                checked += 1
        assert checked >= 30
