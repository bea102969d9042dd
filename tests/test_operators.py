from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgspec import operators
from sgspec.graph import GraphError, SignedGraph, switch
from sgspec.operators import (
    EigenPair,
    OneLapWitness,
    _pattern_lambda,
    apply_p_laplacian,
    check_certificate_1lap,
    check_eigenpair,
    check_eigenpair_1lap,
    check_rejections_1lap,
    eigen_residual,
    one_lap_lambda_range,
    phi_p,
    rayleigh,
)

from sgspec import simplex
from sgspec.cheeger import _labelings
from sgspec.graph import with_degree_measure
from sgspec.harness import random_signed_graph

from oracles import (
    check_eigenpair_1lap_lp, nonzero_patterns, one_lap_lambda_range_lp, p_laplacian_oracle,
    prefilter_lambda_box, rayleigh_p2_oracle,
)
from test_graph import complete, path, random_graph, triangle
from test_spectra import products_take_python_ints, repro_graph


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

    @pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0])
    def test_equals_masked_formula_bitwise(self, p):
        def masked(t):
            t = np.asarray(t, dtype=float)
            out = np.zeros_like(t)
            mask = np.abs(t) >= 1e-300
            out[mask] = np.sign(t[mask]) * np.abs(t[mask]) ** (p - 1)
            return out if out.ndim else float(out)

        rng = np.random.default_rng(int(p * 100))
        special = [0.0, -0.0, 1e-300, -1e-300, 9e-301, 1e-310, -5e-324, 1e-299, 1e100]
        vec = np.concatenate((special, rng.standard_normal(40) * 10.0 ** rng.integers(-320, 5, 40)))
        for t in [*special, 2.5, -0.75, vec, vec.reshape(7, 7)]:
            got, want = phi_p(t, p), masked(t)
            assert type(got) is type(want)
            assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


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


class TestColumns:
    """Every operator on an (n, m) array gives, in column j, the 1-D result
    for column j, bit for bit."""

    @given(st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 6),
           st.sampled_from([1.01, 1.5, 2.0, 2.5, 3.0]))
    @settings(max_examples=80, deadline=None)
    def test_each_column_equals_the_1d_call(self, seed, n, m, p):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, density=float(rng.choice((0.0, 0.6, 1.0))))
        g = SignedGraph(ids=g.ids, mu=g.mu, edges=g.edges,
                        kappa=tuple(float(k) for k in rng.uniform(-1.0, 1.0, n)))
        if rng.random() < 0.5:  # a half-integer grid gives zeros and f_x = sigma f_y
            f = rng.integers(-3, 4, size=(n, m)) / 2.0
        else:
            f = rng.standard_normal((n, m))
        f[0] = np.where(f.any(axis=0), f[0], 1.0)  # no zero column
        lam = rng.uniform(-2.0, 5.0, m)
        lap, ray, res = (apply_p_laplacian(g, p, f), rayleigh(g, p, f),
                         eigen_residual(g, p, f, lam))
        assert lap.shape == (n, m) and ray.shape == res.shape == (m,)
        for j in range(m):
            assert np.array_equal(lap[:, j], apply_p_laplacian(g, p, f[:, j]))
            assert ray[j] == rayleigh(g, p, f[:, j])
            assert res[j] == eigen_residual(g, p, f[:, j], lam[j])
            assert np.array_equal(phi_p(f, p)[:, j], phi_p(f[:, j], p))

    def test_zero_column_rejected(self):
        with pytest.raises(GraphError):
            rayleigh(path(2), 2.0, np.array([[1.0, 0.0], [-1.0, 0.0]]))


class TestKernels:
    """The private kernels that the projected gradient calls directly give,
    bit for bit, the formulas on ``phi_p`` that the operators had before
    them, with and without a potential, also on subnormal entries of f
    and of its edge differences (|t| < 1e-300 maps to 0)."""

    @staticmethod
    def reference(g, p, f, lam):
        """Delta_p f, the Rayleigh quotients and the eigen-residuals of the
        (n, m) f, each potential term included even when it is zero."""
        n, m = f.shape
        x, c = f.ravel(), g.columns(m)
        kappa, mu = np.repeat(g.kappa_array(), m), g.mu_array()[:, None]
        bins = np.concatenate((np.arange(n * m), c.ev, c.eu))
        col = np.arange((n + len(g.edges)) * m) % m
        t = c.ew * phi_p(x[c.eu] - c.es * x[c.ev], p)
        lap = np.bincount(bins, np.concatenate((kappa * phi_p(x, p), -c.es * t, t)), x.size)
        lap = lap.reshape(n, m)
        fp = np.abs(x) ** p
        edge_terms = c.ew * np.abs(x[c.eu] - c.es * x[c.ev]) ** p
        q = (np.bincount(col, np.concatenate((kappa * fp, edge_terms)), m)
             / np.bincount(col[:x.size], c.mu * fp, m))
        eq = lap - lam * mu * phi_p(f, p)
        res = (np.abs(eq) / (1.0 + np.abs(lam) * mu * np.abs(f) ** (p - 1))).max(axis=0)
        return lap, q, eq, res

    @pytest.mark.parametrize("p", [1.01, 1.3, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("potential", [False, True])
    def test_equal_the_phi_p_formulas_bitwise(self, p, potential):
        rng = np.random.default_rng(int(p * 100) + potential)
        for n in range(2, 9):
            g = random_graph(rng, n, density=0.7)
            kappa = rng.uniform(-1.0, 1.0, n) if potential else np.zeros(n)
            g = SignedGraph(ids=g.ids, mu=g.mu, edges=g.edges, kappa=tuple(map(float, kappa)))
            f = rng.standard_normal((n, 4))
            # a subnormal column: entries and edge differences below 1e-300
            f[:, 1] = rng.choice((0.0, 1e-310, -1e-310, 3e-310), n)
            f[0, 1] = 1.0
            f[:, 2] = rng.integers(-2, 3, n) / 2.0  # exact zeros and f_x = sigma f_y
            f[0, 2] = 0.5
            lam = rng.uniform(-2.0, 5.0, 4)
            c, x = g.columns(4), f.ravel()
            d = operators._edge_diffs(c, x)
            lap, q, eq, res = self.reference(g, p, f, lam)
            got = (operators._delta(c, p, d, phi_p(x, p)).reshape(n, 4),
                   operators._quotient(c, p, x, d, 4),
                   *operators._eigen_terms(c, p, f, d, lam, g.mu_array()[:, None])[::2])
            for a, b in zip(got, (lap, q, eq, res)):
                assert np.array_equal(a.view(np.int64), b.view(np.int64))
            assert np.array_equal(apply_p_laplacian(g, p, f).view(np.int64), lap.view(np.int64))
            assert (c.kappa is None) is not potential


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

    @pytest.mark.parametrize("tamper", [
        lambda c: c._replace(lam=c.lam + 1),
        lambda c: c._replace(z_edge=((c.z_edge[0][0] + 1, c.z_edge[0][1]),)),
        lambda c: ("pins", (0,), (0,)),
    ], ids=("witness-lambda", "witness-edge", "rejection"))
    def test_certificate_that_fails_its_check_raises(self, monkeypatch, tamper):
        g, f = path(2), [1.0, -1.0]
        cert = operators._pattern_lambda(g, f)
        monkeypatch.setattr(operators, "_pattern_lambda", lambda g, f: tamper(cert))
        with pytest.raises(RuntimeError, match="fails its check"):
            check_eigenpair_1lap(g, 1.0, f)

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
                assert abs(flux) <= abs(target)


class TestLambdaRange:
    @staticmethod
    def _grid_cases():
        """(g, f, ranges) on seeded n = 4 graphs, with the rational lambda grid."""
        rng = np.random.default_rng(17)
        grid = [Fraction(k, 6) for k in range(-12, 25)]
        for _ in range(25):
            g = random_graph(rng, 4)
            f = np.array(rng.choice((-1.0, 0.0, 1.0), size=4))
            if np.any(f):
                yield g, f, one_lap_lambda_range(g, f), grid

    def test_agrees_with_fixed_lambda_grid(self):
        # two independent decision paths: the free-lambda interval solver
        # versus the fixed-lambda LP on a rational grid
        for g, f, ranges, grid in self._grid_cases():
            for lam in grid:
                expected = any(lo <= lam <= hi for lo, hi in ranges)
                got = check_eigenpair_1lap_lp(g, lam, f)
                assert got == expected, (g.edges, f, lam, ranges)

    @staticmethod
    def _check_against_lp(g, f, lams):
        """check_eigenpair_1lap gives the fixed-lambda LP's verdict at each
        lambda; a true verdict's witness satisfies the inclusion. Returns
        the number of true verdicts."""
        hits = 0
        for lam in lams:
            cert = check_eigenpair_1lap(g, lam, f)
            assert cert.verdict == check_eigenpair_1lap_lp(g, lam, f), (g, f, lam)
            if cert.verdict:
                TestOneLapChecker._verify_witness(g, f, lam, cert.witness)
                hits += 1
        return hits

    def test_checker_agrees_with_lp_on_the_grid(self):
        # the grid, and f's own lambda, which the grid seldom holds
        hits = sum(self._check_against_lp(g, f, grid + [lo for lo, _ in ranges])
                   for g, f, ranges, grid in self._grid_cases())
        assert hits >= 5

    def test_checker_agrees_with_lp_on_the_corpus(self):
        # per pattern: its lambda, when it has one, a neighbour of it, and
        # a fixed negative one
        hits = 0
        for g in self._corpus():
            for pattern in nonzero_patterns(g.n):
                lams = {Fraction(-1, 2)}
                for lo, _ in one_lap_lambda_range(g, pattern):
                    lams |= {lo, lo + Fraction(1, 4)}
                hits += self._check_against_lp(g, np.array(pattern, float), sorted(lams))
        assert hits >= 100

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

    @staticmethod
    def _certified(g, pattern, lp) -> list[str]:
        """Assert that each certificate for ``pattern`` checks and agrees
        with the LP answer ``lp``; return the kinds seen. A witness must
        also pass the fixed-lambda LP."""
        kinds = []
        for cert in (prefilter_lambda_box(g, pattern), _pattern_lambda(g, pattern)):
            if cert is None:
                continue
            assert check_certificate_1lap(g, pattern, cert), (g, pattern, cert)
            if isinstance(cert, OneLapWitness):
                assert lp == [(cert.lam, cert.lam)], (g, pattern)
                assert check_eigenpair_1lap_lp(g, cert.lam, pattern)
            else:
                assert lp == [], (g, pattern, cert)
            kind = "witness" if isinstance(cert, OneLapWitness) else cert[0]
            kinds.append(kind + ("-wide" if kind == "zero-cut" and sum(map(abs, cert[2])) > 1
                                 else ""))
        return kinds

    def test_equals_lp_oracle_on_every_sign_pattern(self):
        # max-flow against the three-LP simplex solve, on every pattern;
        # cover_cases counts feasible patterns with a negative edge between
        # two zero vertices, the case only the signed double cover decides.
        # Both directions of each certificate are checked against the LP.
        found = cover_cases = 0
        kinds = Counter()
        for g in self._corpus():
            for pattern in nonzero_patterns(g.n):
                got = one_lap_lambda_range(g, pattern)
                lp = one_lap_lambda_range_lp(g, pattern)
                assert got == lp, (g, pattern)
                kinds.update(self._certified(g, pattern, lp))
                found += bool(got)
                cover_cases += bool(got) and any(s < 0 and pattern[u] == pattern[v] == 0
                                                 for u, v, _, s in g.edges)
        assert found >= 150 and cover_cases >= 50
        # every kind of certificate occurs, zero-block cuts over several vertices too
        assert min(kinds[k] for k in ("witness", "screen", "pins", "support-cut", "zero-cut",
                                      "zero-cut-wide")) >= 10, kinds

    def test_equals_lp_oracle_on_repro_graph(self):
        g, lam = repro_graph()
        for pattern in nonzero_patterns(g.n):
            lp = one_lap_lambda_range_lp(g, pattern)
            assert one_lap_lambda_range(g, pattern) == lp
            self._certified(g, pattern, lp)
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
            raise AssertionError("the 1-Laplacian decisions must not solve an LP")

        monkeypatch.setattr(simplex, "solve_lp", no_lp)
        monkeypatch.setattr(simplex, "feasible", no_lp)
        g = complete(4)
        for pattern in nonzero_patterns(g.n):
            lams = [lo for lo, _ in one_lap_lambda_range(g, pattern)]
            assert all(check_eigenpair_1lap(g, lam, pattern).verdict for lam in lams)
            assert not check_eigenpair_1lap(g, lams[0] + 1 if lams else 0, pattern).verdict


class TestCertificateTamper:
    """A certificate changed in any of these ways no longer checks."""

    @staticmethod
    def _witnesses():
        for g in list(TestLambdaRange._corpus())[:6]:
            for pattern in nonzero_patterns(g.n):
                cert = _pattern_lambda(g, pattern)
                if isinstance(cert, OneLapWitness):
                    yield g, pattern, cert

    def test_perturbed_edge_value(self):
        # a fixed z_uv leaves its Sgn point, a free support edge unbalances
        # its ends; a zero-zero edge may have slack, so it is left out
        tried = 0
        for g, pattern, cert in self._witnesses():
            for e, (u, v, _, s) in enumerate(g.edges):
                if pattern[u] == pattern[v] == 0:
                    continue
                z_edge = list(cert.z_edge)
                a, b = z_edge[e]
                z_edge[e] = (a + 1, b - s)  # still antisymmetric
                assert not check_certificate_1lap(g, pattern, cert._replace(z_edge=tuple(z_edge)))
                tried += 1
        assert tried >= 300

    def test_broken_antisymmetry(self):
        for g, pattern, cert in self._witnesses():
            for e in range(len(g.edges)):
                z_edge = list(cert.z_edge)
                a, b = z_edge[e]
                z_edge[e] = (a, b + 1)
                assert not check_certificate_1lap(g, pattern, cert._replace(z_edge=tuple(z_edge)))

    def test_lambda_shifted_by_one_scaled_unit(self):
        for g, pattern, cert in self._witnesses():
            p, q = cert.lam.numerator, cert.lam.denominator
            for lam in (Fraction(p + 1, q), Fraction(p - 1, q)):
                assert not check_certificate_1lap(g, pattern, cert._replace(lam=lam))

    def test_circulation_beyond_the_sgn_interval(self):
        # a circulation around a cycle of free edges keeps every vertex
        # balanced; one of twice the weight puts each |z| at 2
        g = triangle()
        f = [1, 1, 1]
        cert = _pattern_lambda(g, f)
        assert check_certificate_1lap(g, f, cert)
        w, c = g.scaled_ints[2][0][2], 2 * cert.den
        assert all(e[2] == w for e in g.scaled_ints[2])
        flows = {(0, 1): c, (1, 2): c, (0, 2): -c}  # 0 -> 1 -> 2 -> 0
        z_edge = tuple((a + w * flows[u, v], b - w * flows[u, v])
                       for (a, b), (u, v, _, _) in zip(cert.z_edge, g.edges))
        assert not check_certificate_1lap(g, f, cert._replace(z_edge=z_edge))

    def test_zero_vertex_unbalanced_inside_its_interval(self):
        # y has flux -1 from its edge and slack |lambda| mu_y + kappa_y = 2;
        # z_y = +1 absorbs the flux, z_y = -1 doubles it
        g = SignedGraph.build(["x", "y"], [("x", "y", 1.0, 1)], kappa=[0.0, 1.0])
        f = [1, 0]
        cert = _pattern_lambda(g, f)
        assert cert.lam == 1 and cert.z_vertex[1] == cert.den * g.scaled_ints[1][1]
        assert check_certificate_1lap(g, f, cert)
        tampered = cert._replace(z_vertex=(0, -cert.z_vertex[1]))
        assert not check_certificate_1lap(g, f, tampered)

    def test_no_rejection_of_a_feasible_pattern_checks(self):
        # every screen pair, every pin against the whole support (always a
        # pin), every support cut and every sign vector pi on a feasible
        # pattern must fail, since each would prove it infeasible
        tried = 0
        for g in [g for g in TestLambdaRange._corpus() if g.n <= 5]:
            for pattern in nonzero_patterns(g.n):
                cert = _pattern_lambda(g, pattern)
                if not isinstance(cert, OneLapWitness):
                    continue
                support = tuple(x for x in range(g.n) if pattern[x])
                subsets = [tuple(x for i, x in enumerate(support) if m >> i & 1)
                           for m in range(1, 1 << len(support))]
                fakes = [("screen", x, y) for x in support for y in support]
                fakes += [("pins", c, support) for c in subsets]
                fakes += [("support-cut", support, c) for c in subsets]
                fakes += [("zero-cut", support, pi) for pi in product((-1, 0, 1), repeat=g.n)]
                for fake in fakes:
                    assert not check_certificate_1lap(g, pattern, fake), (g, pattern, fake)
                tried += len(fakes)
        assert tried >= 10000

    def test_vertex_dropped_from_a_support_cut(self):
        # one component a-b-c with lambda = 0 (kappa sums to 0) and demands
        # -3, 3/2, 3/2: {b, c} needs 3 across the edge a-b of weight 1, while
        # {b} and {c} alone have boundary weight 3 and 2
        g = SignedGraph.build(["a", "b", "c"], [("a", "b", 1.0, 1), ("b", "c", 2.0, 1)],
                              kappa=[3.0, -1.5, -1.5])
        f = [1, 1, 1]
        cert = _pattern_lambda(g, f)
        assert cert == ("support-cut", (0, 1, 2), (1, 2))
        assert check_certificate_1lap(g, f, cert)
        for side in ((1,), (2,), ()):
            assert not check_certificate_1lap(g, f, ("support-cut", (0, 1, 2), side))
        assert one_lap_lambda_range_lp(g, f) == []

    def test_vertex_dropped_from_a_zero_cut(self):
        # x pins lambda = 3/64; the zero vertices y1, y2 carry determined
        # flux -3/2 and +3/2, which the negative edge y1-y2 of weight 2 can
        # only cancel together: alone, each is within reach of it
        g = SignedGraph.build(["x", "y1", "y2"],
                              [("x", "y1", 1.5, 1), ("x", "y2", 1.5, -1), ("y1", "y2", 2.0, -1)],
                              mu=[64.0, 1.0, 1.0])
        f = [1, 0, 0]
        cert = _pattern_lambda(g, f)
        kind, pin, pi = cert
        assert kind == "zero-cut" and sum(map(abs, pi)) == 2
        assert check_certificate_1lap(g, f, cert)
        for y in (1, 2):
            dropped = list(pi)
            dropped[y] = 0
            assert not check_certificate_1lap(g, f, (kind, pin, tuple(dropped)))
        assert one_lap_lambda_range_lp(g, f) == []

    def test_wrong_screen_pair(self):
        tried = 0
        for g in list(TestLambdaRange._corpus())[:6]:
            for pattern in nonzero_patterns(g.n):
                cert = prefilter_lambda_box(g, pattern)
                if cert is None:
                    continue
                _, x, y = cert
                assert check_certificate_1lap(g, pattern, cert)
                for wrong in ((y, x), (x, x), (y, y)):
                    assert not check_certificate_1lap(g, pattern, ("screen", *wrong))
                tried += 1
        assert tried >= 100

    def test_pins_must_be_closed_and_differ(self):
        g = SignedGraph.build(["x1", "x2", "y1", "y2"],
                              [("x1", "x2", 1.0, 1), ("y1", "y2", 1.0, 1), ("x2", "y1", 1.0, -1)],
                              kappa=[1.0, 1.0, 2.0, 2.0])
        f = [1, 1, 1, 1]
        cert = _pattern_lambda(g, f)
        assert cert == ("pins", (0, 1), (2, 3))
        assert check_certificate_1lap(g, f, cert)
        # {x1} is left by the free edge x1-x2; a pin against itself agrees
        assert not check_certificate_1lap(g, f, ("pins", (0,), (2, 3)))
        assert not check_certificate_1lap(g, f, ("pins", (0, 1), (0, 1)))

    @staticmethod
    def _good():
        """One certificate of each shape that checks, by name: (g, f, cert)."""
        zero_g = SignedGraph.build(["x", "y1", "y2"], [("x", "y1", 1.5, 1), ("x", "y2", 1.5, -1),
                                                       ("y1", "y2", 2.0, -1)], mu=[64.0, 1.0, 1.0])
        cases = {"screen": (path(3), (1, -1, 1), prefilter_lambda_box(path(3), (1, -1, 1))),
                 "pins": (path(3), (1, -1, 1), ("pins", (0,), (1,))),
                 "witness": (path(3), (1, 1, 1), _pattern_lambda(path(3), (1, 1, 1))),
                 "zero-cut": (zero_g, (1, 0, 0), _pattern_lambda(zero_g, (1, 0, 0)))}
        for g, f, cert in cases.values():
            assert check_certificate_1lap(g, f, cert)
        return cases

    # a certificate of the wrong shape, made from a good one of the named kind
    _MALFORMED = {
        "none": ("screen", lambda c: None),
        "kind-only": ("screen", lambda c: ("bogus",)),
        "screen-one-vertex": ("screen", lambda c: c[:2]),
        "screen-extra-entry": ("screen", lambda c: (*c, 0)),
        "screen-as-list": ("screen", list),
        "screen-float-index": ("screen", lambda c: (c[0], float(c[1]), c[2])),
        "screen-numpy-index": ("screen", lambda c: (c[0], np.int64(c[1]), c[2])),
        "screen-str-index": ("screen", lambda c: (c[0], str(c[1]), c[2])),
        "screen-bool-index": ("screen", lambda c: (c[0], c[1], True)),
        "kind-not-a-string": ("screen", lambda c: (np.array([1, 2]), c[1], c[2])),
        "pins-none": ("pins", lambda c: (c[0], None, None)),
        "pins-as-list": ("pins", lambda c: (c[0], list(c[1]), c[2])),
        "pins-numpy-vertex": ("pins", lambda c: (c[0], c[1], (np.int64(c[2][0]),))),
        "zero-cut-pi-as-list": ("zero-cut", lambda c: (c[0], c[1], list(c[2]))),
        "zero-cut-float-pi": ("zero-cut", lambda c: (c[0], c[1], tuple(map(float, c[2])))),
        "zero-cut-short-pi": ("zero-cut", lambda c: (c[0], c[1], c[2][:-1])),
        "witness-float-lambda": ("witness", lambda c: c._replace(lam=float(c.lam))),
        "witness-numpy-den": ("witness", lambda c: c._replace(den=np.int64(c.den))),
        "witness-none-den": ("witness", lambda c: c._replace(den=None)),
        "witness-z-edge-triple": ("witness", lambda c: c._replace(
            z_edge=((*c.z_edge[0], 0), *c.z_edge[1:]))),
        "witness-z-vertex-as-list": ("witness", lambda c: c._replace(z_vertex=list(c.z_vertex))),
        "witness-float-z": ("witness", lambda c: c._replace(
            z_vertex=(float(c.z_vertex[0]), *c.z_vertex[1:]))),
    }

    @pytest.mark.parametrize("kind, malform", _MALFORMED.values(), ids=_MALFORMED)
    def test_malformed_certificate_answers_false(self, kind, malform):
        g, f, cert = self._good()[kind]
        assert check_certificate_1lap(g, f, malform(cert)) is False

    @pytest.mark.parametrize("f", [[1.0], [0.0, 0.0], [1.0, float("nan")], [float("inf"), 1.0]])
    def test_bad_function_rejected(self, f):
        with pytest.raises(GraphError):
            check_certificate_1lap(path(2), f, ("screen", 0, 1))


# good arguments of each kind's kernel on an (n, m) block t: (first, second)
_CHECKERS = {
    "screen": lambda t: (np.zeros(t.shape[1], int), np.zeros(t.shape[1], int)),
    "pins": lambda t: (t != 0, t != 0),
    "support-cut": lambda t: (t != 0, t != 0),
    "zero-cut": lambda t: (t != 0, np.zeros(t.shape, np.int8)),
}
_T3 = np.array([[1, 1], [-1, 0], [1, 1]], np.int8)


class TestScreenChecker:
    """``check_rejections_1lap`` on whole blocks of screen pairs against the
    per-pattern screen of the oracles: for every column, some (x, y) checks
    exactly when the oracle rejects, and the oracle's (x, y) checks. Then
    the boundary that every kind shares."""

    _GRAPHS = {
        "int64": lambda: random_signed_graph(6, 0.5, seed=2, connected=True),
        "int64-kappa-mu": lambda: SignedGraph.build(
            "abcde", [("a", "b", 1.0, 1), ("b", "c", 2.0, -1), ("c", "d", 3.0, 1),
                      ("d", "e", 1.0, -1), ("a", "e", 2.0, 1), ("b", "d", 1.0, 1)],
            mu=[1.0, 2.0, 1.0, 3.0, 1.0], kappa=[1.0, 0.0, -2.0, 0.0, 0.5]),
        "object-repro": lambda: repro_graph()[0],
        "object-degree-mu": lambda: with_degree_measure(
            random_signed_graph(6, 0.5, seed=2, connected=True)),
        "edgeless-zero-kappa": lambda: SignedGraph.build("abc", []),
    }

    @pytest.mark.parametrize("name", _GRAPHS)
    def test_agrees_with_the_per_pattern_screen(self, name):
        g = self._GRAPHS[name]()
        assert products_take_python_ints(g) == name.startswith("object")
        rejected = 0
        for t, _, _ in _labelings(g.n):
            m = t.shape[1]
            checks = {(x, y): check_rejections_1lap(g, "screen", t, np.full(m, x), np.full(m, y))
                      for x in range(g.n) for y in range(g.n)}
            for j, f in enumerate(zip(*t.tolist())):
                cert = prefilter_lambda_box(g, f)
                assert any(c[j] for c in checks.values()) == (cert is not None), (name, f)
                if cert is not None:
                    assert checks[cert[1:]][j], (name, f)
                    rejected += 1
        assert rejected >= 10 or name == "edgeless-zero-kappa"

    def test_vertex_off_the_graph_or_the_support(self):
        # (1, -1, 1): the middle pins lambda = 2, the ends lambda = 1
        t = np.array([[1, 1], [-1, 0], [1, 1]], np.int8)
        assert check_rejections_1lap(path(3), "screen", t, [1, 1], [0, 0]).tolist() == [True, False]
        assert not check_rejections_1lap(path(3), "screen", t, [1, 1], [-3, 3]).any()
        with pytest.raises(GraphError, match="shape"):
            check_rejections_1lap(path(3), "screen", t[:2], [1, 1], [0, 0])

    # the boundary of every kind: an unknown kind or a malformed block or
    # certificate array raises GraphError, and an empty block answers an
    # empty array
    @pytest.mark.parametrize("kind", ["bogus", "zero_cuts", "Screen", None, ("screen",)])
    def test_unknown_kind_raises(self, kind):
        with pytest.raises(GraphError, match="unknown rejection kind"):
            check_rejections_1lap(path(3), kind, _T3, *_CHECKERS["pins"](_T3))

    @pytest.mark.parametrize("name", _CHECKERS)
    @pytest.mark.parametrize("tamper", [
        lambda t, certs: (np.where(np.eye(3, 2, dtype=bool), np.nan, t), certs),
        lambda t, certs: (np.where(np.eye(3, 2, dtype=bool), np.inf, t), certs),
        lambda t, certs: (t[:2], certs),
        lambda t, certs: (t[:, 0], certs),
        lambda t, certs: (t.astype(bool), certs),
        lambda t, certs: (t, [c[..., :1] for c in certs]),
        lambda t, certs: (t, [c.astype(float) for c in certs]),
        lambda t, certs: (t, [c.astype(str) for c in certs]),
    ], ids=("nan", "inf", "short", "one-dimensional", "bool-t", "certificate-too-short",
            "float-certificate", "str-certificate"))
    def test_malformed_block_raises(self, name, tamper):
        t, certs = tamper(_T3, _CHECKERS[name](_T3))
        with pytest.raises(GraphError):
            check_rejections_1lap(path(3), name, t, *certs)

    @pytest.mark.parametrize("name", _CHECKERS)
    def test_an_empty_block(self, name):
        t = np.zeros((3, 0), np.int8)
        certs = _CHECKERS[name](t)
        for args in (certs, [[]] * len(certs) if name == "screen" else certs):
            out = check_rejections_1lap(path(3), name, t, *args)
            assert out.dtype == bool and out.shape == (0,)

    def test_good_arguments_pass_the_boundary(self):
        for name, make in _CHECKERS.items():
            assert check_rejections_1lap(path(3), name, _T3, *make(_T3)).shape == (2,), name


class TestBlockCheckers:
    """Forged pins, support cuts and zero cuts fail, each for the one reason
    it was forged."""

    # path a - b - c, unit weights and mu; columns (1, -1, 1) and (1, 1, -1):
    # in the first every edge is fixed and {a}, {b}, {c} pin 1, 2, 1; in the
    # second a - b is free, and {a, b} pins 1/2 and {c} pins 1
    _T = np.array([[1, 1], [-1, 1], [1, -1]], np.int8)

    @staticmethod
    def _masks(*sets):
        out = np.zeros((3, len(sets)), bool)
        for j, xs in enumerate(sets):
            out[list(xs), j] = True
        return out

    def test_pins(self):
        g, t, m = path(3), self._T, self._masks

        def check(t, first, second):
            return check_rejections_1lap(g, "pins", t, first, second).tolist()

        assert check(t, m((0,), (0, 1)), m((1,), (2,))) == [True, True]
        # first == second, and two pins that agree
        assert not any(check(t, m((0,), (2,)), m((0,), (2,))))
        assert not any(check(t, m((0,), (0, 1)), m((2,), (0, 1))))
        # {a} crosses the free edge a - b: it would "pin" 0, not 1/2
        assert check(t, m((0,), (0,)), m((1,), (2,))) == [True, False]
        # an empty mask; a mask with the zero vertex b of (1, 0, -1)
        assert not any(check(t, m((), ()), m((1,), (2,))))
        t0 = np.array([[1], [0], [-1]], np.int8)
        assert check(t0, m((0,)), m((2,))) == [False]  # both pin 1
        assert check(t0, m((0, 1)), m((2,))) == [False]

    @pytest.mark.parametrize("mu_a", [1.0, 2.0**70], ids=("int64", "object"))
    def test_support_cuts(self, mu_a):
        # a - b - c - d at (1, 1, 1, 0), w = 1, 2, 1 and kappa = (4, -3/2,
        # -5/2, 0): the fixed edge c - d gives c_c = -3/2, {a, b, c} is the
        # one pin, and {b, c} demands about 3 across a - b of weight 1, while
        # {b} and {c} alone have cuts of weight 3 and 2
        g = SignedGraph.build("abcd", [("a", "b", 1.0, 1), ("b", "c", 2.0, 1), ("c", "d", 1.0, 1)],
                              mu=[mu_a, 1.0, 1.0, 1.0], kappa=[4.0, -1.5, -2.5, 0.0])
        assert products_take_python_ints(g) == (mu_a > 1)
        t = np.array([[1], [1], [1], [0]], np.int8)

        def check(pin, side):
            pin_mask, side_mask = np.zeros((4, 1), bool), np.zeros((4, 1), bool)
            pin_mask[list(pin)], side_mask[list(side)] = True, True
            return bool(check_rejections_1lap(g, "support-cut", t, pin_mask, side_mask)[0])

        # a side and its complement on the support: the demands sum to 0
        assert check((0, 1, 2), (1, 2)) and check((0, 1, 2), (0,))
        assert not check((0, 1, 2), (1, 2, 3))  # the zero vertex d in the side
        assert not check((), (1, 2))  # an empty pin
        assert not check((0,), (1, 2))  # {a} crosses the free edge a - b
        assert not check((0, 1, 2), (1,)) and not check((0, 1, 2), (2,))  # a side vertex dropped

    def test_zero_cuts(self):
        # x - y of weight 2 at f = (1, 0): x pins lambda = 2 / mu_x, and y
        # carries flux -2 against the slack lambda mu_y = 2 / mu_x
        def graph(mu_x):
            return SignedGraph.build("xy", [("x", "y", 2.0, 1)], mu=[mu_x, 1.0])

        t, x_only, both = np.array([[1], [0]], np.int8), np.array([[True], [False]]), np.ones((2, 1), bool)

        def check(g, first, *pi):
            pi = np.array(pi, np.int8)[:, None]
            return bool(check_rejections_1lap(g, "zero-cut", t, first, pi)[0])

        assert check(graph(4.0), x_only, 0, -1)
        assert not check(graph(4.0), x_only, 0, 1)  # the wrong sign
        assert not check(graph(4.0), x_only, 1, -1)  # pi on the support
        assert not check(graph(4.0), x_only, 0, -2)  # pi off {-1, 0, 1}
        assert not check(graph(4.0), both, 0, -1)  # a mask with the zero vertex y
        assert not check(graph(1.0), x_only, 0, -1)  # |c_y| = 2 = the slack: not exceeded
        # pi off {-1, 0, 1} that wraps: abs(-128) is -128 in int8, and the
        # int64 and uint64 extremes read as themselves, not as -1
        assert not check(graph(4.0), x_only, 0, -128)
        for pi in (np.array([[0], [-2**63]]), np.array([[0], [2**64 - 1]], np.uint64)):
            assert not check_rejections_1lap(graph(4.0), "zero-cut", t, x_only, pi)[0]
        # a - b - y at (1, 1, 0), mu_a = mu_b = 4: {a, b} pins 1/4 and y's
        # flux -2 exceeds its slack 1/4; {a} crosses the free edge a - b
        g = SignedGraph.build("aby", [("a", "b", 1.0, 1), ("b", "y", 2.0, 1)], mu=[4.0, 4.0, 1.0])
        t = np.array([[1], [1], [0]], np.int8)
        pi = np.array([[0], [0], [-1]], np.int8)
        for first, verdict in (([[1], [1], [0]], True), ([[1], [0], [0]], False)):
            first = np.array(first, bool)
            assert check_rejections_1lap(g, "zero-cut", t, first, pi).tolist() == [verdict]

    @pytest.mark.parametrize("t", [np.full((2, 1), -128, np.int8), np.full((2, 1), -1.0),
                                   np.full((2, 1), -2**62), np.full((2, 1), -2**63)],
                             ids=("int8-min", "float", "int64-past-2**62", "int64-min"))
    def test_t_is_read_exactly(self, t):
        # a - b of sign -1 at t_a = t_b < 0: t_a - sigma t_b < 0 fixes the edge
        # (sigma t_b wrapped back to t_b would free it), so {a} and {b} pin 1
        # and 1/2, and the screen pair (a, b) checks, lo_a = 1 > hi_b / 2
        g = SignedGraph.build("ab", [("a", "b", 1.0, -1)], mu=[1.0, 2.0])
        first, second = np.array([[True], [False]]), np.array([[False], [True]])
        assert check_rejections_1lap(g, "pins", t, first, second).tolist() == [True]
        assert check_rejections_1lap(g, "screen", t, [0], [1]).tolist() == [True]
