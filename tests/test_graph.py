import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgspec import graph as graph_module
from sgspec.graph import (
    BalanceState,
    GraphError,
    ParseError,
    SignedGraph,
    balance_state,
    components,
    cycle_surplus,
    induced_subgraph,
    parse_function,
    parse_graph,
    serialize_function,
    serialize_graph,
    switch,
)

from oracles import all_signed_graphs, balance_oracle


def path(n, sigma=1, w=1.0):
    return SignedGraph.build(
        [f"v{i}" for i in range(n)],
        [(f"v{i}", f"v{i+1}", w, sigma) for i in range(n - 1)],
    )


def triangle(signs=(1, 1, 1)):
    return SignedGraph.build(
        ["1", "2", "3"],
        [("1", "2", 1.0, signs[0]), ("1", "3", 1.0, signs[1]), ("2", "3", 1.0, signs[2])],
    )


def complete(n, sigma=1, mu="degree"):
    ids = [f"v{i}" for i in range(n)]
    edges = [(ids[i], ids[j], 1.0, sigma) for i in range(n) for j in range(i + 1, n)]
    mu_val = float(n - 1) if mu == "degree" else 1.0
    return SignedGraph.build(ids, edges, mu=mu_val)


def random_graph(rng, n, density=0.6):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((i, j, float(rng.uniform(0.5, 2.0)), int(rng.choice((-1, 1)))))
    return SignedGraph(
        ids=tuple(str(i) for i in range(n)),
        mu=tuple(float(rng.uniform(0.5, 2.0)) for _ in range(n)),
        kappa=tuple(0.0 for _ in range(n)),
        edges=tuple(edges),
    )


class TestConstruction:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(GraphError, match="unique"):
            SignedGraph.build(["a", "a"], [])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            SignedGraph.build(["a", "b"], [("a", "a", 1.0, 1)])

    def test_parallel_edge_rejected(self):
        with pytest.raises(GraphError, match="parallel"):
            SignedGraph.build(["a", "b"], [("a", "b", 1.0, 1), ("b", "a", 2.0, 1)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphError, match="weight"):
            SignedGraph.build(["a", "b"], [("a", "b", 0.0, 1)])

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(GraphError, match="measure"):
            SignedGraph.build(["a", "b"], [], mu=[1.0, 0.0])

    def test_bad_signature_rejected(self):
        with pytest.raises(GraphError, match="signature"):
            SignedGraph.build(["a", "b"], [("a", "b", 1.0, 0)])

    # a number by the constructor's rule: no bool, and no str even where
    # float() would read it
    @pytest.mark.parametrize("edges, spec, match", [
        ([("a", "b", "x", 1)], {}, "edge weight"),
        ([("a", "b", 1.0)], {}, "tuple"),
        ([], {"mu": ["q"]}, "mu"),
        ([], {"mu": {"a": None}}, "mu"),
        ([("a", "b", 1.0, 1.5)], {}, "signature"),
        ([("a", "b", 1.0, "-1")], {}, "signature"),
        ([("a", "b", 1.0, "x"), ("b", "a", 1.0, 1)], {}, "signature"),
        ([("a", "b", True, 1)], {}, "edge weight"),
        ([("a", "b", "1.0", 1)], {}, "edge weight"),
        ([], {"mu": {"a": "2.5"}}, "mu"),
        ([], {"mu": True}, "mu"),
        ([], {"kappa": [False, 1.0]}, "kappa"),
        ([], {"kappa": [0.0, "1e3"]}, "kappa"),
    ], ids=("text-weight", "three-tuple", "text-mu", "none-mu", "fractional-sigma", "text-sigma",
            "parallel-text-sigma", "bool-weight", "numeric-text-weight", "numeric-text-mu",
            "bool-mu", "bool-kappa", "numeric-text-kappa"))
    def test_build_rejects_malformed_input(self, edges, spec, match):
        with pytest.raises(GraphError, match=match):
            SignedGraph.build(["a", "b"], edges, **spec)

    @pytest.mark.parametrize("spec", [{"mu": {"b": 5.0}}, {"kappa": {"A": 2.0}}],
                             ids=("mu", "kappa"))
    def test_build_rejects_a_key_that_names_no_vertex(self, spec):
        (name, mapping), = spec.items()
        key, = mapping
        with pytest.raises(GraphError, match=rf"{name} names {key!r}"):
            SignedGraph.build(["a"], [], **spec)

    def test_build_takes_any_real_scalar(self):
        assert SignedGraph.build(["a", "b"], [], mu=np.int64(2)).mu == (2.0, 2.0)

    def test_index_lookup(self):
        g = path(3)
        assert g.index("v1") == 1
        with pytest.raises(GraphError, match="unknown vertex"):
            g.index("nope")

    def test_canonical_edge_orientation(self):
        g = SignedGraph.build(["a", "b"], [("b", "a", 1.0, -1)])
        assert g.edges == ((0, 1, 1.0, -1),)

    @pytest.mark.parametrize("mu, kappa, edge, match", [
        ((1.0, float("nan")), (0.0, 0.0), (0, 1, 1.0, 1), "measure"),
        ((1.0, 1.0), (0.0, float("nan")), (0, 1, 1.0, 1), "kappa"),
        ((1.0, 1.0), (float("inf"), 0.0), (0, 1, 1.0, 1), "kappa"),
        ((1.0, 1.0), (0.0, 0.0), (0, 1, float("inf"), 1), "weight"),
        ((1.0, 1.0), (0.0, 0.0), (0, 1, 1.0, True), "signature"),
        ((1.0, 1.0), (0.0, 0.0), (0, 1, 1.0, 1.0), "signature"),
    ])
    def test_non_finite_and_non_int_values_rejected(self, mu, kappa, edge, match):
        with pytest.raises(GraphError, match=match):
            SignedGraph(ids=("a", "b"), mu=mu, kappa=kappa, edges=(edge,))


class TestFunctionCheck:
    """``graph._function``, the one check of a function argument."""

    @pytest.mark.parametrize("f", [[[1.0, 2.0], [3.0]], ["a", "b", "c"], [1j, 1.0, 1.0]],
                             ids=("ragged", "text", "complex"))
    def test_not_real_numbers(self, f):
        with pytest.raises(GraphError, match="real numbers"):
            graph_module._function(path(3), f)

    def test_columns_only_where_taken(self):
        g, f = path(3), np.ones((3, 2))
        assert graph_module._function(g, f, columns=True).shape == (3, 2)
        with pytest.raises(GraphError, match="shape"):
            graph_module._function(g, f)
        with pytest.raises(GraphError, match="shape"):
            graph_module._function(g, np.ones((3, 0)), columns=True)


class TestCachedArrays:
    def test_columns_match_edges(self):
        g = triangle((-1, 1, 1))
        assert g.eu.dtype == g.ev.dtype == np.intp
        assert list(zip(g.eu, g.ev, g.ew, g.es)) == list(g.edges)

    def test_read_only(self):
        g = triangle((-1, 1, 1))
        for arr in (g.eu, g.ev, g.ew, g.es, g.mu_array(), g.kappa_array()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.ew = np.zeros(3)

    def test_equality_and_hash_see_only_the_fields(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 6)
        twin = SignedGraph(ids=g.ids, mu=g.mu, kappa=g.kappa, edges=g.edges)
        assert g == twin and hash(g) == hash(twin)
        assert hash(g) == hash((g.ids, g.mu, g.kappa, g.edges))
        assert "ew" not in repr(g)

    def test_scaled_ints_are_one_exact_scaling(self):
        g = SignedGraph.build(["a", "b", "c"], [("a", "b", 0.75, 1), ("b", "c", 3.0, -1)],
                              mu=[0.5, 1.0, 0.1], kappa=[0.0, -1.25, 0.0])
        mu, kappa, edges = g.scaled_ints
        ints = [*mu, *kappa, *(w for _, _, w, _ in edges)]
        vals = [*g.mu, *g.kappa, *(w for _, _, w, _ in g.edges)]
        assert all(type(i) is int for i in ints)
        scale = Fraction(ints[0]) / Fraction(vals[0])
        assert all(Fraction(i) == scale * Fraction(v) for i, v in zip(ints, vals))
        assert [(u, v, s) for u, v, _, s in edges] == [(u, v, s) for u, v, _, s in g.edges]
        assert g.scaled_ints is g.scaled_ints  # built once
        assert g == SignedGraph(ids=g.ids, mu=g.mu, kappa=g.kappa, edges=g.edges)

    def test_weighted_degrees_equal_edge_loop(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(1, 12)))
            deg = np.zeros(g.n)
            for u, v, w, _ in g.edges:
                deg[u] += w
                deg[v] += w
            assert np.array_equal(g.weighted_degrees(), deg)


class TestSwitch:
    def test_single_edge(self):
        g = SignedGraph.build(["a", "b"], [("a", "b", 1.0, 1)])
        assert switch(g, [1, -1]).edges[0][3] == -1

    def test_identity_tau(self):
        g = triangle((-1, 1, -1))
        assert switch(g, [1, 1, 1]) == g

    def test_negative_triangle(self):
        g = triangle((-1, -1, -1))
        got = switch(g, [1, 1, -1])
        signs = {(g.ids[u], g.ids[v]): s for u, v, _, s in got.edges}
        assert signs == {("1", "2"): -1, ("1", "3"): 1, ("2", "3"): 1}

    def test_domain_mismatch(self):
        with pytest.raises(GraphError):
            switch(path(3), [1, -1])
        # each value the int -1 or +1: no bool, and no float even at 1.0
        for tau in ([1, 2], [True, 1], [1, 1.0], [-1.0, 1], ["1", 1], [None, 1]):
            with pytest.raises(GraphError, match="switching values"):
                switch(path(2), tau)
        # a numpy int is an int, and the signs are Python ints
        got = switch(path(2), np.array([1, -1]))
        assert got.edges[0][3] == -1 and type(got.edges[0][3]) is int

    @given(st.integers(0, 2**12 - 1), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_involution(self, mask, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 5)
        tau = [1 if mask >> i & 1 else -1 for i in range(g.n)]
        assert switch(switch(g, tau), tau) == g


class TestBalance:
    def test_p2_both(self):
        assert balance_state(path(2)).state is BalanceState.BOTH

    def test_unbalanced_triangle(self):
        res = balance_state(triangle((-1, 1, 1)))
        assert res.state is BalanceState.ANTIBALANCED
        assert res.balancing_tau is None
        # witness actually antibalances
        g = switch(triangle((-1, 1, 1)), res.antibalancing_tau)
        assert all(s == -1 for _, _, _, s in g.edges)

    def test_positive_triangle(self):
        assert balance_state(triangle()).state is BalanceState.BALANCED

    def test_forest_is_both(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            edges = [(f"v{i}", f"v{int(rng.integers(0, i))}", 1.0, int(rng.choice((-1, 1))))
                     for i in range(1, n)]
            g = SignedGraph.build([f"v{i}" for i in range(n)], edges)
            assert balance_state(g).state is BalanceState.BOTH

    def test_against_switching_enumeration(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            g = random_graph(rng, int(rng.integers(2, 7)))
            bal, anti = balance_oracle(g)
            res = balance_state(g)
            assert (res.balancing_tau is not None) == bal
            assert (res.antibalancing_tau is not None) == anti

    def test_every_signed_graph_up_to_four_vertices(self):
        for n in range(1, 5):
            for g in all_signed_graphs(n):
                res = balance_state(g)
                assert ((res.balancing_tau is not None),
                        (res.antibalancing_tau is not None)) == balance_oracle(g)

    def test_stops_at_the_first_conflicting_edge(self, monkeypatch):
        """A triangle with one negative edge, then a positive path: the
        balance labeling reads the triangle's three edges and stops; the
        antibalance labeling reads them all."""
        read = []

        def counted(edges, flip):
            read.append(0)
            for pair in cover_pairs(edges, flip):
                read[-1] += 1
                yield pair

        cover_pairs = graph_module._cover_pairs
        monkeypatch.setattr(graph_module, "_cover_pairs", counted)
        g = SignedGraph.build([f"v{i}" for i in range(12)],
                              [("v0", "v1", 1.0, -1), ("v0", "v2", 1.0, 1), ("v1", "v2", 1.0, 1)]
                              + [(f"v{i}", f"v{i + 1}", 1.0, 1) for i in range(2, 11)])
        assert balance_state(g).state is BalanceState.ANTIBALANCED
        assert read == [3, len(g.edges)]

    @given(st.integers(0, 2**12 - 1), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_switching_class_invariant(self, mask, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 5)
        tau = [1 if mask >> i & 1 else -1 for i in range(g.n)]
        assert balance_state(switch(g, tau)).state is balance_state(g).state


    @given(st.integers(0, 10**6), st.sampled_from((0, 1, -1)))
    @settings(max_examples=150, deadline=None)
    def test_tau_is_a_certificate(self, seed, base):
        """Each tau switches every sign to its target and is +1 at the least
        vertex of each component. base 0 keeps random signs; base +1 or -1
        switches an all-positive or all-negative graph, so the balancing or
        the antibalancing tau must exist. Sparse draws are often
        disconnected."""
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(1, 11)), float(rng.uniform(0.1, 0.7)))
        if base:
            g = dataclasses.replace(g, edges=tuple((u, v, w, base) for u, v, w, _ in g.edges))
            g = switch(g, [int(t) for t in rng.choice((-1, 1), size=g.n)])
        res = balance_state(g)
        assert base != 1 or res.balancing_tau is not None
        assert base != -1 or res.antibalancing_tau is not None
        for tau, target in ((res.balancing_tau, 1), (res.antibalancing_tau, -1)):
            if tau is not None:
                assert all(s == target for _, _, _, s in switch(g, tau).edges)
                assert all(tau[min(comp)] == 1 for comp in components(g))


class TestComponentsSurplus:
    def test_tree(self):
        g = path(5)
        assert len(components(g)) == 1
        assert cycle_surplus(g) == 0

    def test_k5(self):
        g = complete(5)
        assert cycle_surplus(g) == 10 - 5 + 1

    def test_two_disjoint_edges(self):
        g = SignedGraph.build("abcd", [("a", "b", 1, 1), ("c", "d", 1, 1)])
        assert len(components(g)) == 2
        assert cycle_surplus(g) == 0

    def test_surplus_zero_iff_forest(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(2, 8)))
            has_cycle = False
            # forest <=> every component has |E| = |V| - 1
            for comp in components(g):
                sub = induced_subgraph(g, comp)
                if len(sub.edges) != sub.n - 1:
                    has_cycle = True
            assert (cycle_surplus(g) == 0) == (not has_cycle)


class TestBlockLabels:
    """``graph._block_labels`` against ``graph._labels``, column by column."""

    @staticmethod
    def check(n, eu, ev, keep):
        eu, ev = np.asarray(eu, np.intp), np.asarray(ev, np.intp)
        lab = graph_module._block_labels(n, eu, ev, keep)
        assert lab.shape == (n, keep.shape[1])
        for j in range(keep.shape[1]):
            pairs = zip(eu[keep[:, j]].tolist(), ev[keep[:, j]].tolist())
            assert lab[:, j].tolist() == graph_module._labels(n, pairs), (n, eu, ev, keep[:, j])

    @given(st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_random_blocks(self, seed):
        # pairs drawn with repeats and with both ends equal, as the cover has
        rng = np.random.default_rng(seed)
        n, size, m = int(rng.integers(1, 12)), int(rng.integers(0, 30)), int(rng.integers(0, 5))
        keep = rng.random((size, m)) < rng.random()
        self.check(n, rng.integers(0, n, size), rng.integers(0, n, size), keep)

    @pytest.mark.parametrize("n, eu, ev, m", [
        (4, [0, 1, 2], [1, 2, 3], 0),  # no columns
        (4, [0, 1, 2], [3, 2, 1], 1),  # one column
        (5, [], [], 3),  # no pairs
        (1, [], [], 2),  # one node
        (1, [0, 0], [0, 0], 2),  # one node and its self-pairs
        (4, [2, 2, 3, 1, 0, 3], [2, 1, 1, 2, 0, 3], 3),  # repeated pairs and self-pairs
        (40, list(range(39)), [39] * 39, 2),  # a star whose centre is the largest node
        # one jump a round would leave node 3 two steps from its root
        (8, [1, 2, 0, 3, 4, 4, 1, 5], [4, 3, 5, 3, 1, 2, 5, 4], 1),
    ])
    def test_edge_cases(self, n, eu, ev, m):
        rng = np.random.default_rng(n + m)
        for keep in (np.ones((len(eu), m), bool), rng.random((len(eu), m)) < 0.5):
            self.check(n, eu, ev, keep)

    def test_labels_are_least_nodes(self):
        # the path 3 - 2 - 1 - 0 and the pair (1, 3) in two columns
        keep = np.array([[1, 0], [1, 0], [1, 0], [0, 1]], bool)
        lab = graph_module._block_labels(4, np.array([2, 1, 0, 1]), np.array([3, 2, 1, 3]), keep)
        assert lab.T.tolist() == [[0, 0, 0, 0], [0, 1, 2, 1]]


class TestIO:
    def test_minimal_document(self):
        g = parse_graph(b'{"vertices":[{"id":"a"},{"id":"b"}],'
                        b'"edges":[{"u":"a","v":"b"}]}')
        assert g.n == 2
        assert g.mu == (1.0, 1.0)
        assert g.edges == ((0, 1, 1.0, 1),)

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(1, 8)))
            data = serialize_graph(g)
            assert parse_graph(data) == g
            assert serialize_graph(parse_graph(data)) == data

    def test_bad_sigma(self):
        doc = {"vertices": [{"id": "a"}, {"id": "b"}],
               "edges": [{"u": "a", "v": "b", "sigma": 0}]}
        with pytest.raises(ParseError, match="signature"):
            parse_graph(json.dumps(doc))

    def test_unknown_vertex_in_edge(self):
        doc = {"vertices": [{"id": "a"}], "edges": [{"u": "a", "v": "zz"}]}
        with pytest.raises(ParseError, match="zz"):
            parse_graph(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(ParseError, match="malformed"):
            parse_graph(b"{nope")

    @pytest.mark.parametrize("vertex, edge, match", [
        ({"mu": "x"}, {}, "mu must be a number"),
        ({"kappa": None}, {}, "kappa must be a number"),
        ({"mu": True}, {}, "mu must be a number"),
        ({}, {"w": "x"}, "w must be a number"),
        ({}, {"w": 10**400}, "out of range"),
        ({"kappa": float("nan")}, {}, "kappa"),
        ({}, {"w": float("inf")}, "weight"),
        ({}, {"sigma": True}, "signature"),
        ({}, {"sigma": [1]}, "signature"),
    ])
    def test_bad_values_are_parse_errors(self, vertex, edge, match):
        doc = {"vertices": [{"id": "a", **vertex}, {"id": "b"}],
               "edges": [{"u": "a", "v": "b", **edge}]}
        with pytest.raises(ParseError, match=match):
            parse_graph(json.dumps(doc))

    @pytest.mark.parametrize("vertices, edges, message", [
        ([{"id": "a"}, "b"], [], "vertices[1]: each vertex needs an 'id'"),
        ([{"id": "a"}, {"mu": 1.0}], [], "vertices[1]: each vertex needs an 'id'"),
        ([{"id": "a"}, {"id": "b", "mu": "x"}], [], "vertices[1]: mu must be a number, got 'x'"),
        ([{"id": "a"}, {"id": "b", "kappa": None}], [],
         "vertices[1]: kappa must be a number, got None"),
        ([{"id": "a"}, {"id": "b"}], [{"u": "a", "v": "b"}, ["a", "b"]],
         "edges[1]: each edge needs 'u' and 'v'"),
        ([{"id": "a"}, {"id": "b"}], [{"u": "a", "v": "b"}, {"u": "a"}],
         "edges[1]: each edge needs 'u' and 'v'"),
        ([{"id": "a"}, {"id": "b"}], [{"u": "a", "v": "b"}, {"u": "zz", "v": "b"}],
         "edges[1]: unknown vertex 'zz'"),
        ([{"id": "a"}, {"id": "b"}], [{"u": "a", "v": "b"}, {"u": "a", "v": "yy"}],
         "edges[1]: unknown vertex 'yy'"),
        ([{"id": "a"}, {"id": "b"}], [{"u": "a", "v": "b"}, {"u": "xx", "v": "yy"}],
         "edges[1]: unknown vertex 'xx'"),
        ([{"id": "a"}, {"id": 1}], [{"u": "a", "v": "b"}], "edges[0]: unknown vertex 'b'"),
        ([{"id": "a"}, {"id": "b"}], [{"u": "a", "v": "b"}, {"u": "b", "v": "a", "w": True}],
         "edges[1]: w must be a number, got True"),
        ([{"id": "a"}, {"id": "b"}], [{"u": "a", "v": "b"}, {"u": "b", "v": "a", "w": 10**400}],
         "edges[1]: w is out of range"),
        ([{"id": "a"}, {"id": "b"}], [{"u": "b", "v": "a"}, {"u": "a", "v": "b", "w": 2}],
         "edge {a,b}: parallel edge"),
    ])
    def test_malformed_rows_name_their_place(self, vertices, edges, message):
        with pytest.raises(ParseError) as exc:
            parse_graph(json.dumps({"vertices": vertices, "edges": edges}))
        assert str(exc.value) == message

    def test_int_weight_is_stored_as_a_float(self):
        g = parse_graph('{"vertices":[{"id":"a"},{"id":"b"}],'
                        '"edges":[{"u":"b","v":"a","w":2,"sigma":-1}]}')
        assert g.edges == ((0, 1, 2.0, -1),) and type(g.edges[0][2]) is float
        assert serialize_graph(g) == (b'{"edges":[{"sigma":-1,"u":"a","v":"b","w":2.0}],'
                                      b'"vertices":[{"id":"a","kappa":0.0,"mu":1.0},'
                                      b'{"id":"b","kappa":0.0,"mu":1.0}]}')

    @given(
        st.sampled_from([(), ("vertices",), ("vertices", 0), ("vertices", 0, "id"),
                         ("vertices", 0, "mu"), ("vertices", 1, "kappa"), ("edges",),
                         ("edges", 0), ("edges", 0, "u"), ("edges", 0, "w"),
                         ("edges", 0, "sigma")]),
        st.recursive(st.none() | st.booleans() | st.integers() | st.floats()
                     | st.text(max_size=3),
                     lambda inner: st.lists(inner, max_size=2)
                     | st.dictionaries(st.text(max_size=2), inner, max_size=2),
                     max_leaves=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_document_parses_or_raises_parse_error(self, where, value):
        doc = {"vertices": [{"id": "a", "mu": 1.0, "kappa": 0.0}, {"id": "b"}],
               "edges": [{"u": "a", "v": "b", "w": 1.0, "sigma": -1}]}
        if where:
            *head, last = where
            target = doc
            for key in head:
                target = target[key]
            target[last] = value
        else:
            doc = value
        try:
            g = parse_graph(json.dumps(doc))
        except ParseError:
            return
        assert np.all(np.isfinite(g.ew)) and np.all(g.mu_array() > 0)

    def test_nonpositive_values(self):
        with pytest.raises(ParseError, match="mu"):
            parse_graph('{"vertices":[{"id":"a","mu":-1}]}')
        with pytest.raises(ParseError, match="weight"):
            parse_graph('{"vertices":[{"id":"a"},{"id":"b"}],'
                        '"edges":[{"u":"a","v":"b","w":0}]}')

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.text()
        | st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf")])
        | st.fractions() | st.floats().map(np.float64)
        | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.booleans().map(np.bool_)
        | st.lists(st.floats(), max_size=4),
        lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=3), inner, max_size=4)
        | st.dictionaries(st.integers(), inner, max_size=3),
        max_leaves=30,
    ))
    @settings(max_examples=300, deadline=None)
    def test_indented_json_is_json_dumps(self, doc):
        assert (graph_module._indented_json(doc)
                == json.dumps(doc, indent=2, sort_keys=True, default=str))

    def test_indented_json_refuses_what_json_dumps_refuses(self):
        for doc in ({"a": 1, 2: 3}, [{"b": [1.0], 1.5: None}], {"x": {(1, 2): 0}}):
            with pytest.raises(TypeError):
                json.dumps(doc, indent=2, sort_keys=True, default=str)
            with pytest.raises(TypeError):
                graph_module._indented_json(doc)

    def test_function_round_trip(self):
        g = path(3)
        f = np.array([0.5, -1.0, 0.0])
        assert np.array_equal(parse_function(serialize_function(f, g), g), f)

    @pytest.mark.parametrize("value, match", [('"x"', "number"), ("NaN", "finite")])
    def test_function_bad_value(self, value, match):
        with pytest.raises(ParseError, match=match):
            parse_function('{"values":{"v0":1.0,"v1":%s,"v2":0}}' % value, path(3))

    def test_function_missing_vertex(self):
        g = path(3)
        with pytest.raises(ParseError, match="missing"):
            parse_function('{"values":{"v0":1.0}}', g)
