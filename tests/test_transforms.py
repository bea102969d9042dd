import numpy as np
import pytest

from sgspec import transforms
from sgspec.graph import GraphError, SignedGraph
from sgspec.operators import EigenPair, check_eigenpair, rayleigh
from sgspec.spectra import spectrum_p2
from sgspec.transforms import interlacing_check_p2, remove_edge, remove_node

from test_graph import path, random_graph, triangle


class TestRemoveEdge:
    def test_p2_plus_edge(self):
        g = path(2)
        res = remove_edge(g, 2.0, [1.0, -1.0], (0, 1))
        assert res.graph.edges == ()
        assert res.graph.kappa == (2.0, 2.0)
        assert check_eigenpair(res.graph, EigenPair(2.0, res.f, 2.0)).verdict

    def test_p3_minus_edge(self):
        g = SignedGraph.build(["a", "b"], [("a", "b", 1.0, -1)])
        res = remove_edge(g, 3.0, [1.0, 1.0], (0, 1))
        assert res.graph.kappa == (4.0, 4.0)
        assert check_eigenpair(res.graph, EigenPair(4.0, res.f, 3.0)).verdict

    def test_triangle_second_eigenpair_preserved(self):
        g = triangle()
        spec = spectrum_p2(g)
        f = spec.vectors[:, 1]
        edge = next((u, v) for u, v, _, _ in g.edges
                    if abs(f[u]) > 1e-6 and abs(f[v]) > 1e-6)
        res = remove_edge(g, 2.0, f, edge)
        cert = check_eigenpair(res.graph, EigenPair(float(spec.values[1]), res.f, 2.0))
        assert cert.verdict and cert.max_residual <= 1e-9

    def test_zero_endpoint_rejected(self):
        with pytest.raises(GraphError, match="nonzero"):
            remove_edge(path(2), 2.0, [1.0, 0.0], (0, 1))

    def test_missing_edge_rejected(self):
        with pytest.raises(GraphError, match="not in graph"):
            remove_edge(path(3), 2.0, [1.0, 1.0, 1.0], (0, 2))

    def test_p1_rejected(self):
        with pytest.raises(GraphError):
            remove_edge(path(2), 1.0, [1.0, -1.0], (0, 1))

    def test_preservation_fuzz(self):
        rng = np.random.default_rng(51)
        done = 0
        while done < 60:
            g = random_graph(rng, int(rng.integers(3, 8)))
            if not g.edges:
                continue
            spec = spectrum_p2(g)
            k = int(rng.integers(0, g.n))
            f = spec.vectors[:, k]
            floor = 1e-2 * np.max(np.abs(f))
            edge = next(((u, v) for u, v, _, _ in g.edges
                         if abs(f[u]) > floor and abs(f[v]) > floor), None)
            if edge is None:
                continue
            res = remove_edge(g, 2.0, f, edge)
            cert = check_eigenpair(res.graph,
                                   EigenPair(float(spec.values[k]), res.f, 2.0))
            assert cert.verdict, cert.max_residual
            done += 1


class TestRemoveNode:
    def test_p3_middle(self):
        g = path(3)
        res = remove_node(g, 1, [1.0, 0.0, -1.0])
        assert res.graph.n == 2
        assert res.graph.edges == ()
        assert res.graph.kappa == (1.0, 1.0)
        assert np.array_equal(res.f, [1.0, -1.0])
        assert check_eigenpair(res.graph, EigenPair(1.0, res.f, 2.0)).verdict

    def test_isolated_vertex(self):
        g = SignedGraph.build("abc", [("a", "b", 1, 1)])
        res = remove_node(g, 2)
        assert res.kappa_changes == {}
        assert res.graph.kappa == (0.0, 0.0)

    def test_nonzero_at_vertex_rejected(self):
        with pytest.raises(GraphError, match="f\\(x0\\) = 0"):
            remove_node(path(3), 1, [1.0, 0.5, -1.0])

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            remove_node(path(3), 5)

    def test_rayleigh_commutes(self):
        # restriction through a zero vertex preserves the Rayleigh quotient
        rng = np.random.default_rng(53)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(3, 8)))
            f = rng.standard_normal(g.n)
            x0 = int(rng.integers(0, g.n))
            f[x0] = 0.0
            if not np.any(f):
                continue
            res = remove_node(g, x0, f)
            p = float(rng.uniform(1.0, 4.0))
            assert rayleigh(res.graph, p, res.f) == pytest.approx(
                rayleigh(g, p, f), rel=1e-9
            )


class TestInterlacing:
    def test_p3_remove_middle_node(self):
        rep = interlacing_check_p2(path(3), [{"kind": "remove_node", "node": 1}])
        assert rep["all_pass"]
        step = rep["steps"][0]
        assert step["case"] == "node"
        assert [c["value"] for c in step["checks"]] == pytest.approx([1.0, 1.0])

    def test_p2_remove_edge_negative_product(self):
        rep = interlacing_check_p2(
            path(2), [{"kind": "remove_edge", "edge": (0, 1), "f": [1.0, -1.0]}]
        )
        assert rep["all_pass"]
        assert rep["steps"][0]["case"] == "negative-product"

    def test_edge_fuzz_both_cases(self):
        rng = np.random.default_rng(55)
        cases = {"negative-product": 0, "positive-product": 0}
        done = 0
        while done < 50:
            g = random_graph(rng, int(rng.integers(4, 8)))
            if not g.edges:
                continue
            spec = spectrum_p2(g)
            f = spec.vectors[:, int(rng.integers(0, g.n))]
            floor = 1e-2 * np.max(np.abs(f))
            edge = next(((u, v) for u, v, _, _ in g.edges
                         if abs(f[u]) > floor and abs(f[v]) > floor), None)
            if edge is None:
                continue
            rep = interlacing_check_p2(
                g, [{"kind": "remove_edge", "edge": edge, "f": f}]
            )
            assert rep["all_pass"], rep
            cases[rep["steps"][0]["case"]] += 1
            done += 1
        assert min(cases.values()) > 0

    def test_node_fuzz(self):
        rng = np.random.default_rng(57)
        for _ in range(50):
            g = random_graph(rng, int(rng.integers(4, 8)))
            x = int(rng.integers(0, g.n))
            rep = interlacing_check_p2(g, [{"kind": "remove_node", "node": x}])
            assert rep["all_pass"], rep

    def test_cumulative_node_check(self):
        rng = np.random.default_rng(59)
        g = random_graph(rng, 6)
        seq = [{"kind": "remove_node", "node": 3}, {"kind": "remove_node", "node": 0}]
        rep = interlacing_check_p2(g, seq)
        assert rep["all_pass"]
        cum = rep["cumulative_node_check"]
        assert cum["m"] == 2
        assert cum["all_pass"]

    @pytest.mark.parametrize("seq, calls", [
        ([{"kind": "remove_node", "node": 2}], 2),
        ([{"kind": "remove_node", "node": 2}, {"kind": "remove_node", "node": 0}], 3),
        ([{"kind": "remove_edge", "edge": (0, 1), "f": None}], 2),
    ], ids=("node", "two-nodes", "edge"))
    def test_each_spectrum_once(self, monkeypatch, seq, calls):
        # one spectrum per graph: the start and each surgery's result
        g = path(6)
        for step in seq:
            if step["kind"] == "remove_edge":
                step["f"] = spectrum_p2(g).vectors[:, 1]
        seen = []

        def counted(h):
            seen.append(h)
            return spectrum_p2(h)

        monkeypatch.setattr(transforms, "spectrum_p2", counted)
        assert interlacing_check_p2(g, seq)["all_pass"]
        assert len(seen) == calls and len(set(seen)) == calls

    def test_unknown_kind(self):
        with pytest.raises(GraphError, match="unknown surgery"):
            interlacing_check_p2(path(2), [{"kind": "shrink"}])

    @pytest.mark.parametrize("step, match", [
        ({"node": 0}, "surgery step 1: unknown surgery kind None"),
        ({"kind": "remove_edge", "edge": (0, 1)}, "surgery step 1: remove_edge needs f"),
        ({"kind": "remove_node"}, "surgery step 1: remove_node needs node"),
        (("remove_node", 0), "surgery step 1 must be a dict"),
        ("remove_node", "surgery step 1 must be a dict"),
    ], ids=("no-kind", "edge-without-f", "node-without-node", "tuple", "str"))
    def test_malformed_step(self, step, match):
        with pytest.raises(GraphError, match=match):
            interlacing_check_p2(path(4), [{"kind": "remove_node", "node": 3}, step])
