from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgspec.graph import GraphError, SignedGraph, switch
from sgspec.operators import (
    EigenPair,
    apply_p_laplacian,
    check_eigenpair,
    check_eigenpair_1lap,
    one_lap_lambda_range,
    phi_p,
    rayleigh,
)

from sgspec import simplex
from sgspec.harness import random_signed_graph

from oracles import (
    nonzero_patterns, one_lap_lambda_range_lp, p_laplacian_oracle, rayleigh_p2_oracle,
)
from test_graph import complete, path, random_graph, triangle
from test_spectra import repro_graph


class TestPhi:
    def test_values(self):
        assert phi_p(2.0, 3.0) == 4.0
        assert phi_p(-2.0, 3.0) == -4.0
        assert phi_p(0.0, 1.5) == 0.0

    def test_tiny_arguments_no_overflow(self):
        assert phi_p(1e-308, 1.5) == 0.0
        assert np.isfinite(phi_p(1e-200, 1.1))

    @given(st.floats(-10, 10), st.floats(1.0, 4.0))
    def test_odd(self, t, p):
        assert phi_p(-t, p) == pytest.approx(-phi_p(t, p), abs=1e-12)


class TestApply:
    def test_p2_plus_edge(self):
        g = path(2)
        assert np.allclose(apply_p_laplacian(g, 2.0, [1, -1]), [2, -2])

    def test_p3_minus_edge(self):
        g = SignedGraph.build(["a", "b"], [("a", "b", 1.0, -1)])
        assert np.allclose(apply_p_laplacian(g, 3.0, [1, 1]), [4, 4])

    def test_zero_function(self):
        g = complete(4)
        assert np.allclose(apply_p_laplacian(g, 2.5, np.zeros(4)), 0.0)

    def test_p_le_one_rejected(self):
        with pytest.raises(GraphError):
            apply_p_laplacian(path(2), 1.0, [1, -1])

    @given(st.integers(0, 10**6), st.integers(1, 6), st.floats(1.0, 4.0, exclude_min=True),
           st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_against_pointwise_oracle(self, seed, n, p, on_grid):
        # values on a half-integer grid give exact zeros in f and edges
        # with f_x = sigma f_y; density 0 draws edgeless graphs
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, density=float(rng.choice((0.0, 0.6, 1.0))))
        g = SignedGraph(ids=g.ids, mu=g.mu, edges=g.edges,
                        kappa=tuple(float(k) for k in rng.uniform(-1.0, 1.0, n)))
        if on_grid:
            f = rng.integers(-3, 4, size=n) / 2.0
        else:
            f = rng.standard_normal(n)
        assert np.allclose(apply_p_laplacian(g, p, f), p_laplacian_oracle(g, p, f),
                           rtol=1e-12, atol=1e-12)

    @given(st.floats(-3, 3).filter(lambda c: abs(c) > 1e-6), st.integers(0, 10**6),
           st.floats(1.2, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, c, seed, p):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 5)
        f = rng.standard_normal(5)
        lhs = apply_p_laplacian(g, p, c * f)
        rhs = phi_p(c, p) * apply_p_laplacian(g, p, f)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    @given(st.integers(0, 10**6), st.floats(1.2, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_euler_identity(self, seed, p):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 6)
        f = rng.standard_normal(6)
        lhs = float(np.dot(f, apply_p_laplacian(g, p, f)))
        num = float(np.dot(g.kappa_array(), np.abs(f) ** p))
        for u, v, w, s in g.edges:
            num += w * abs(f[u] - s * f[v]) ** p
        assert lhs == pytest.approx(num, rel=1e-9, abs=1e-9)


class TestRayleigh:
    def test_p2_plus_edge(self):
        assert rayleigh(path(2), 2.0, [1, -1]) == pytest.approx(2.0)

    def test_p1_plus_edge(self):
        assert rayleigh(path(2), 1.0, [1, -1]) == pytest.approx(1.0)

    def test_k5_degree_measure(self):
        g = complete(5)
        f = [1, -1, 0, 0, 0]
        assert rayleigh(g, 2.0, f) == pytest.approx(10 / 8)
        assert rayleigh(g, 2.0, f) == pytest.approx(rayleigh_p2_oracle(g, f))

    def test_zero_function_rejected(self):
        with pytest.raises(GraphError):
            rayleigh(path(2), 2.0, [0, 0])

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_against_quadratic_form(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 6)
        f = rng.standard_normal(6)
        assert rayleigh(g, 2.0, f) == pytest.approx(rayleigh_p2_oracle(g, f))

    @given(st.floats(-3, 3).filter(lambda c: abs(c) > 1e-6), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, c, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 5)
        f = rng.standard_normal(5)
        p = float(rng.uniform(1.0, 4.0))
        assert rayleigh(g, p, c * f) == pytest.approx(rayleigh(g, p, f))

    @given(st.integers(0, 2**10 - 1), st.integers(0, 10**6), st.floats(1.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_switching_covariance(self, mask, seed, p):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 5)
        f = rng.standard_normal(5)
        tau = np.array([1 if mask >> i & 1 else -1 for i in range(5)])
        assert rayleigh(switch(g, list(tau)), p, f) == pytest.approx(
            rayleigh(g, p, tau * f)
        )


class TestCheckEigenpair:
    def test_minus_edge_exact(self):
        g = SignedGraph.build(["a", "b"], [("a", "b", 1.0, -1)])
        for p in (1.5, 2.0, 3.0, 4.0):
            cert = check_eigenpair(g, EigenPair(2.0 ** (p - 1), np.array([1.0, 1.0]), p))
            assert cert.verdict
            assert cert.max_residual <= 1e-12

    def test_p3_path(self):
        g = path(3)
        f = np.array([1.0, 0.0, -1.0])
        assert check_eigenpair(g, EigenPair(1.0, f, 2.0)).verdict
        assert not check_eigenpair(g, EigenPair(2.0, f, 2.0)).verdict

    def test_zero_function_rejected(self):
        with pytest.raises(GraphError):
            EigenPair(1.0, np.zeros(2), 2.0)


class TestOneLapChecker:
    def test_p2_plus_edge_feasible(self):
        g = path(2)
        cert = check_eigenpair_1lap(g, 1.0, [1, -1])
        assert cert.verdict
        assert cert.witness["z_edge"]["v0,v1"] == 1
        assert cert.witness["z_vertex"] == {"v0": 1, "v1": -1}

    def test_p2_wrong_lambda_infeasible(self):
        assert not check_eigenpair_1lap(path(2), 0.5, [1, -1]).verdict

    def test_constant_on_balanced(self):
        cert = check_eigenpair_1lap(path(2), 0.0, [1, 1])
        assert cert.verdict

    def test_fraction_lambda(self):
        g = triangle((-1, 1, 1))  # one negative edge
        g = SignedGraph(ids=g.ids, mu=(2.0, 2.0, 2.0), kappa=g.kappa, edges=g.edges)
        assert check_eigenpair_1lap(g, Fraction(1, 3), [1, 1, 1]).verdict
        assert not check_eigenpair_1lap(g, Fraction(1, 4), [1, 1, 1]).verdict

    def test_witness_satisfies_inclusion(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            g = random_graph(rng, 5)
            f = np.array(rng.choice((-1.0, 0.0, 1.0), size=5))
            if not np.any(f):
                continue
            ranges = one_lap_lambda_range(g, f)
            for lo, hi in ranges:
                cert = check_eigenpair_1lap(g, lo, f)
                assert cert.verdict
                self._verify_witness(g, f, lo, cert.witness)

    @staticmethod
    def _verify_witness(g, f, lam, witness):
        ze = {tuple(k.split(",")): v for k, v in witness["z_edge"].items()}
        zx = witness["z_vertex"]
        for u, v, w, s in g.edges:
            z = ze[(g.ids[u], g.ids[v])]
            d = f[u] - s * f[v]
            if d > 0:
                assert z == 1
            elif d < 0:
                assert z == -1
            else:
                assert -1 <= z <= 1
        for x in range(g.n):
            zv = zx[g.ids[x]]
            if f[x] > 0:
                assert zv == 1
            elif f[x] < 0:
                assert zv == -1
            else:
                assert -1 <= zv <= 1
            flux = Fraction(g.kappa[x]) * zv
            for u, v, w, s in g.edges:
                z = ze[(g.ids[u], g.ids[v])]
                if u == x:
                    flux += Fraction(w) * z
                elif v == x:
                    flux += Fraction(w) * (-s * z)
            target = Fraction(lam) * Fraction(g.mu[x])
            if f[x] > 0:
                assert flux == target
            elif f[x] < 0:
                assert flux == -target
            else:
                assert abs(flux) <= target


class TestLambdaRange:
    def test_agrees_with_fixed_lambda_grid(self):
        # two independent decision paths: the free-lambda interval solver
        # versus the fixed-lambda feasibility checker on a rational grid
        rng = np.random.default_rng(17)
        grid = [Fraction(k, 6) for k in range(-12, 25)]
        for _ in range(25):
            g = random_graph(rng, 4)
            f = np.array(rng.choice((-1.0, 0.0, 1.0), size=4))
            if not np.any(f):
                continue
            ranges = one_lap_lambda_range(g, f)
            for lam in grid:
                expected = any(lo <= lam <= hi for lo, hi in ranges)
                got = check_eigenpair_1lap(g, lam, f).verdict
                assert got == expected, (g.edges, f, lam, ranges)

    def test_constant_on_plus_edge_pinned_to_zero(self):
        # the antisymmetry z_vu = -z_uv forces lambda = -lambda here
        g = path(2)
        assert one_lap_lambda_range(g, [1.0, 1.0]) == [(0, 0)]

    def test_zero_function_rejected(self):
        with pytest.raises(GraphError):
            one_lap_lambda_range(path(2), [0, 0])

    @pytest.mark.parametrize("f", [[1.0], [1.0, 0.0, 1.0], [1.0, float("nan")],
                                   [float("inf"), 1.0]])
    def test_bad_function_rejected(self, f):
        with pytest.raises(GraphError):
            one_lap_lambda_range(path(2), f)

    @staticmethod
    def _corpus():
        """Seeded n <= 6 graphs of three signature models with dyadic
        non-unit mu and some nonzero kappa."""
        rng = np.random.default_rng(23)
        for seed in range(12):
            n = 3 + seed % 4
            g = random_signed_graph(n, 0.7, model=("uniform", "balanced", "antibalanced")[seed % 3],
                                    seed=seed)
            yield SignedGraph(ids=g.ids, edges=g.edges,
                              mu=tuple(float(m) for m in rng.choice((0.25, 0.5, 1.5, 2.0, 3.0), n)),
                              kappa=tuple(float(k) for k in rng.choice((0.0, 0.0, 0.5, -1.25), n)))

    def test_equals_lp_oracle_on_every_sign_pattern(self):
        # max-flow against the three-LP simplex solve, on every pattern;
        # cover_cases counts feasible patterns with a negative edge between
        # two zero vertices, the case only the signed double cover decides
        found = cover_cases = 0
        for g in self._corpus():
            for pattern in nonzero_patterns(g.n):
                got = one_lap_lambda_range(g, pattern)
                assert got == one_lap_lambda_range_lp(g, pattern), (g, pattern)
                found += bool(got)
                cover_cases += bool(got) and any(s < 0 and pattern[u] == pattern[v] == 0
                                                 for u, v, _, s in g.edges)
        assert found >= 150 and cover_cases >= 50

    def test_equals_lp_oracle_on_repro_graph(self):
        g, lam = repro_graph()
        for pattern in nonzero_patterns(g.n):
            assert one_lap_lambda_range(g, pattern) == one_lap_lambda_range_lp(g, pattern)
        assert one_lap_lambda_range(g, [1, 1, 0, 0, 0]) == [(lam, lam)]

    def test_equals_lp_oracle_off_the_unit_grid(self):
        # only the signs of f and of f_u - sigma f_v matter
        rng = np.random.default_rng(29)
        for g in list(self._corpus())[:6]:
            for _ in range(60):
                f = rng.choice((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0), size=g.n)
                if np.any(f):
                    assert one_lap_lambda_range(g, f) == one_lap_lambda_range_lp(g, f)

    def test_components_pinning_different_lambdas_give_empty(self):
        # x1-x2 and y1-y2 are free support edges (f_u = sigma f_v); the
        # negative edge x2-y1 is determined. The components pin
        # lambda = (1 + 1 + 1) / 2 and (2 + 2 + 1) / 2.
        g = SignedGraph.build(["x1", "x2", "y1", "y2"],
                              [("x1", "x2", 1.0, 1), ("y1", "y2", 1.0, 1), ("x2", "y1", 1.0, -1)],
                              kappa=[1.0, 1.0, 2.0, 2.0])
        f = [1.0, 1.0, 1.0, 1.0]
        assert one_lap_lambda_range(g, f) == one_lap_lambda_range_lp(g, f) == []
        g2 = SignedGraph(ids=g.ids, mu=g.mu, edges=g.edges, kappa=(1.0, 1.0, 1.0, 1.0))
        assert one_lap_lambda_range(g2, f) == [(Fraction(3, 2), Fraction(3, 2))]

    def test_decided_without_the_simplex(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("one_lap_lambda_range must not solve an LP")

        monkeypatch.setattr(simplex, "solve_lp", no_lp)
        monkeypatch.setattr(simplex, "feasible", no_lp)
        g = complete(4)
        for pattern in nonzero_patterns(g.n):
            one_lap_lambda_range(g, pattern)
