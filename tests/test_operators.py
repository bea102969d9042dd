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
    _pattern_lambda,
    apply_p_laplacian,
    check_certificates_1lap,
    check_eigenpair,
    check_eigenpair_1lap,
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
    prefilter_lambda_box, rayleigh_p2_oracle, support_lambda,
)
from test_graph import complete, path, random_graph, triangle
from test_spectra import _screen_corpus, products_take_python_ints, repro_graph


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

    def test_lambda_beyond_the_float_range(self):
        # the float residual has no such lambda, so it is a GraphError (not
        # a bare OverflowError); the exact 1-Laplacian check takes it as it
        # is: on one negative edge, f = (1, 1) has lambda = w / mu = 2**2000
        g = SignedGraph.build(["a", "b"], [("a", "b", 2.0 ** 1000, -1)], mu=2.0 ** -1000)
        f = np.array([1.0, 1.0])
        for lam in (10**400, -10**400, Fraction(10**400, 3), 2**2000, 10**5000):
            with pytest.raises(GraphError, match="float range"):
                check_eigenpair(g, EigenPair(lam, f, 2.0))
        assert check_eigenpair_1lap(g, 2**2000, f).verdict
        assert check_eigenpair_1lap(g, Fraction(2**2000), f).verdict
        assert not check_eigenpair_1lap(g, 2**2000 + 1, f).verdict
        assert not check_eigenpair_1lap(g, 10**400, f).verdict


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
        lambda c: (c[0], c[1] + c[2], *c[2:]),  # lambda + 1 = (p + q) / q
        lambda c: (*c[:3], [c[3][0] + 1], c[4]),  # z_uv of the one edge
        lambda c: ("cut", np.array([1, 0], np.int8)),
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


def _crossing_weight(g, f, pi) -> float:
    """The weight of the free support edges of the pattern f that the cut
    pi crosses (pi_u != sigma pi_v)."""
    return sum(w for u, v, w, s in g.edges if f[u] and f[u] == s * f[v] and pi[u] != s * pi[v])


def _side(f, xs) -> np.ndarray:
    """The cut pi = sgn(f) on the vertices xs, 0 elsewhere, as (n,) int8."""
    out = np.zeros(len(f), np.int8)
    out[list(xs)] = np.sign(np.asarray(f))[list(xs)]
    return out


def _checks(g, f, cert) -> bool:
    """Whether ``check_certificates_1lap`` passes the certificate ``(kind,
    *columns)`` of the one pattern f, on a block of one column: a witness's
    p and q are ints, a pi or a z an array of one column."""
    kind, *cols = cert
    return bool(check_certificates_1lap(g, kind, np.array(f)[:, None],
                                        *(np.asarray(c)[..., None] for c in cols))[0])


def _witness_block(g, patterns):
    """The witnesses of those ``patterns`` that have one, from
    ``_pattern_lambda``, as one block ``(t, p, q, z_edge, z_vertex)``."""
    cols = [(f, *cert[1:]) for f in patterns if (cert := _pattern_lambda(g, f))[0] == "witness"]
    f, p, q, z_edge, z_vertex = zip(*cols)
    return (np.array(f, np.int8).T, np.array(p, object), np.array(q, object),
            np.array(z_edge, object).reshape(len(cols), -1).T, np.array(z_vertex, object).T)


def _hoffman_violated(n, arcs, lo, hi, side) -> bool:
    """Whether the node set ``side`` rules out every flow: with cut the
    capacity of the arcs with exactly one end in it, its nodes must pass on
    more than the cut lets out (sum of lo over side > cut), or the rest
    must take in more than it lets in (sum of hi over the rest < -cut)."""
    cut = sum(cap for a, b, cap in arcs if (a in side) != (b in side))
    return (sum(lo[v] for v in side) > cut
            or sum(hi[v] for v in range(n) if v not in side) < -cut)


def _hoffman_feasible(n, arcs, lo, hi) -> bool:
    """Hoffman's circulation theorem by brute force: a flow exists iff no
    subset of the nodes violates either condition."""
    return not any(_hoffman_violated(n, arcs, lo, hi, {v for v in range(n) if mask >> v & 1})
                   for mask in range(1 << n))


FLOW_KINDS = ("point", "interval", "zero", "no-arcs", "wide")


def _flow_networks(kind, count, seed):
    """``count`` random networks (n, arcs, lo, hi) of up to 6 nodes: ``point``
    demands (lo = hi, summing to 0 half the time), ``interval`` demands,
    ``zero`` (0 in [lo, hi] at every node), ``no-arcs``, and ``wide``
    (interval demands and capacities beyond 2**63)."""
    rng = np.random.default_rng(seed)
    scale = 2**64 + 1 if kind == "wide" else 1
    for _ in range(count):
        n = int(rng.integers(1, 7))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        keep = [] if kind == "no-arcs" else [pr for pr in pairs if rng.random() < 0.5]
        arcs = [(*(pr if rng.random() < 0.5 else pr[::-1]), scale * int(rng.integers(0, 9)))
                for pr in keep]
        if kind == "point":
            lo = [int(x) for x in rng.integers(-6, 7, n)]
            if rng.random() < 0.5:
                lo[-1] -= sum(lo)
            hi = lo
        else:
            lo = [scale * int(x) for x in rng.integers(-8, 5, n)]
            hi = [x + scale * int(d) for x, d in zip(lo, rng.integers(0, 6, n))]
            if kind == "zero":
                lo, hi = [min(x, 0) for x in lo], [max(x, 0) for x in hi]
        yield n, arcs, lo, hi


class TestFeasibleFlow:
    """The integer flow core against a brute-force Hoffman oracle: a flow it
    returns keeps every bound exactly, a side it returns violates one of
    Hoffman's conditions, and it finds a flow exactly when one exists."""

    @pytest.mark.parametrize("kind", FLOW_KINDS)
    def test_agrees_with_hoffman(self, kind):
        verdicts = Counter()
        for n, arcs, lo, hi in _flow_networks(kind, 400, FLOW_KINDS.index(kind)):
            flows, side = operators._feasible_flow(n, arcs, lo, hi)
            feasible = _hoffman_feasible(n, arcs, lo, hi)
            assert (flows is not None) == feasible, (n, arcs, lo, hi)
            verdicts[feasible] += 1
            if flows is None:
                assert side is not None and set(side) <= set(range(n))
                assert _hoffman_violated(n, arcs, lo, hi, set(side)), (n, arcs, lo, hi, side)
                continue
            assert side is None and len(flows) == len(arcs)
            assert all(type(x) is int and abs(x) <= cap for x, (_, _, cap) in zip(flows, arcs))
            net = [0] * n
            for x, (a, b, _) in zip(flows, arcs):
                net[a] += x
                net[b] -= x
            assert all(l <= x <= h for l, x, h in zip(lo, net, hi)), (n, arcs, lo, hi, flows)
            # each node starts at the target nearest 0: the zero flow if it is one
            assert kind != "zero" or not any(flows)
        # every kind but zero demands meets both verdicts
        assert verdicts[True] and (verdicts[False] or kind == "zero"), verdicts


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
        with the LP answer ``lp``; return where each came from. A witness
        must also pass the fixed-lambda LP; a cut of the max-flow is one
        block column, pi (n,) int8, on the support (a side of the support
        flow) or on the zeros (a side of the zero block) alone."""
        kinds = []
        screen, cert = prefilter_lambda_box(g, pattern), _pattern_lambda(g, pattern)
        if screen is not None:
            assert _checks(g, pattern, screen) and lp == [], (g, pattern, screen)
            kinds.append("screen")
        assert _checks(g, pattern, cert), (g, pattern, cert)
        kind, *cols = cert
        if kind == "witness":
            lam = Fraction(cols[0], cols[1])
            assert lp == [(lam, lam)], (g, pattern)
            assert check_eigenpair_1lap_lp(g, lam, pattern)
            assert all(type(z) is int for z in (*cols[:2], *cols[2], *cols[3]))
            return kinds + ["witness"]
        pi = cols[0]
        assert kind == "cut" and pi.shape == (g.n,) and pi.dtype == np.int8
        assert lp == [], (g, pattern, cert)
        on = np.array(pattern) != 0
        if pi[on].any():
            assert not pi[~on].any() and (pi[on] * np.array(pattern)[on] >= 0).all()
            # closed: a component whose pin is not the support's
            kind = "support-cut" if _crossing_weight(g, pattern, pi) else "support-cut-closed"
        else:
            kind = "zero-cut-wide" if abs(pi).sum() > 1 else "zero-cut"
        return kinds + [kind]

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
        # every kind of certificate occurs, zero-block cuts over several
        # vertices and support cuts of capacity 0 too
        assert min(kinds[k] for k in ("witness", "screen", "support-cut-closed", "support-cut",
                                      "zero-cut", "zero-cut-wide")) >= 10, kinds

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
    """A certificate changed in any of these ways no longer checks. The
    tampered columns of a test go to the checker as one block per graph."""

    @staticmethod
    def _witness_blocks():
        """Per graph of the first six of the corpus, its witnesses as one
        block, each of which checks."""
        for g in list(TestLambdaRange._corpus())[:6]:
            block = _witness_block(g, nonzero_patterns(g.n))
            assert check_certificates_1lap(g, "witness", *block).all()
            yield g, block

    def test_perturbed_edge_value(self):
        # a fixed z_uv leaves its Sgn point, a free support edge unbalances
        # its ends; a zero-zero edge may have slack, so it is left out: one
        # column per witness and edge, z_uv + 1 there
        tried = 0
        for g, (t, p, q, z_edge, z_vertex) in self._witness_blocks():
            j, e = np.nonzero(((t[g.eu] != 0) | (t[g.ev] != 0)).T)
            z = z_edge[:, j]
            z[e, np.arange(j.size)] += 1
            assert not check_certificates_1lap(g, "witness", t[:, j], p[j], q[j], z,
                                               z_vertex[:, j]).any()
            tried += j.size
        assert tried >= 300

    def test_lambda_shifted_by_one_scaled_unit(self):
        # p + 1 and p - 1 over the same q, two columns per witness
        for g, (t, p, q, z_edge, z_vertex) in self._witness_blocks():
            j = np.tile(np.arange(p.size), 2)
            shifted = np.concatenate((p + 1, p - 1))
            assert not check_certificates_1lap(g, "witness", t[:, j], shifted, q[j], z_edge[:, j],
                                               z_vertex[:, j]).any()

    def test_circulation_beyond_the_sgn_interval(self):
        # a circulation around a cycle of free edges keeps every vertex
        # balanced; one of twice the weight puts each |z| at 2
        g = triangle()
        block = _witness_block(g, [(1, 1, 1)])
        t, p, q, z_edge, z_vertex = block
        assert check_certificates_1lap(g, "witness", *block).tolist() == [True]
        w, c = g.scaled_ints[2][0][2], 4 * q[0]  # twice den = 2q
        assert all(e[2] == w for e in g.scaled_ints[2])
        flows = {(0, 1): c, (1, 2): c, (0, 2): -c}  # 0 -> 1 -> 2 -> 0
        z = z_edge + np.array([[w * flows[u, v]] for u, v, _, _ in g.edges], object)
        assert not check_certificates_1lap(g, "witness", t, p, q, z, z_vertex).any()

    def test_zero_vertex_unbalanced_inside_its_interval(self):
        # y has flux -1 from its edge and slack |lambda| mu_y + kappa_y = 2;
        # z_y = +1 absorbs the flux, z_y = -1 doubles it
        g = SignedGraph.build(["x", "y"], [("x", "y", 1.0, 1)], kappa=[0.0, 1.0])
        block = _witness_block(g, [(1, 0)])
        t, p, q, z_edge, z_vertex = block
        assert (p[0], q[0]) == (1, 1) and z_vertex[1, 0] == 2 * q[0] * g.scaled_ints[1][1]
        assert check_certificates_1lap(g, "witness", *block).tolist() == [True]
        tampered = z_vertex.copy()
        tampered[1] *= -1
        assert not check_certificates_1lap(g, "witness", t, p, q, z_edge, tampered).any()

    def test_denominator_below_one(self):
        # den = 2q: at q = 0 every bound is 0, so zero z would pass on every
        # pattern; a witness negated whole, at q < 0, names the same lambda
        for g, (t, p, q, z_edge, z_vertex) in self._witness_blocks():
            zero = np.zeros(p.size, int)
            assert not check_certificates_1lap(g, "witness", t, p, zero, 0 * z_edge,
                                               0 * z_vertex).any()
            assert not check_certificates_1lap(g, "witness", t, -p, -q, -z_edge,
                                               -z_vertex).any()

    def test_support_value_off_its_sgn_point(self):
        # a - b at (1, 1): the free edge carries z_ab = 0 of [-1, 1]; moving
        # one unit of den z_ab onto z_a and z_b keeps both ends balanced,
        # but z_x = sgn(f_x) is fixed on the support
        g = path(2)
        t, p, q, z_edge, z_vertex = _witness_block(g, [(1, 1)])
        assert (p[0], z_edge[0, 0]) == (0, 0)
        moved = (z_edge - 1, z_vertex + np.array([[1], [-1]]))
        assert not check_certificates_1lap(g, "witness", t, p, q, *moved).any()

    def test_zero_vertex_value_beyond_its_interval(self):
        # a - b at (1, 0), lambda = 1: b's flux -1 is within its slack 1, and
        # stays so with z_vertex = 1 at b, but kappa_b = 0 fixes it at 0
        g = path(2)
        t, p, q, z_edge, z_vertex = _witness_block(g, [(1, 0)])
        assert (p[0], q[0]) == (1, 1) and z_vertex[1, 0] == 0
        z_vertex[1, 0] = 1
        assert not check_certificates_1lap(g, "witness", t, p, q, z_edge, z_vertex).any()

    def test_no_rejection_of_a_feasible_pattern_checks(self):
        # every pi in {-1, 0, 1}^n on a feasible pattern must fail, since it
        # would prove it infeasible: the screen's one-vertex cuts, every side
        # on the support (a pin among them) and every zero-block cut are
        # among them; each fake is one column of a block of the pattern
        tried = 0
        for g in [g for g in TestLambdaRange._corpus() if g.n <= 5]:
            pis = np.array(list(product((-1, 0, 1), repeat=g.n)), np.int8).T
            for pattern in nonzero_patterns(g.n):
                if _pattern_lambda(g, pattern)[0] != "witness":
                    continue
                t = np.repeat(np.array(pattern, np.int8)[:, None], pis.shape[1], axis=1)
                assert not check_certificates_1lap(g, "cut", t, pis).any(), (g, pattern)
                tried += t.shape[1]
        assert tried >= 10000

    def test_vertex_dropped_from_a_support_cut(self):
        # one component a-b-c with lambda = 0 (kappa sums to 0) and demands
        # -3, 3/2, 3/2: {b, c} needs 3 across the edge a-b of weight 1, while
        # {b} and {c} alone have boundary weight 3 and 2
        g = SignedGraph.build(["a", "b", "c"], [("a", "b", 1.0, 1), ("b", "c", 2.0, 1)],
                              kappa=[3.0, -1.5, -1.5])
        f = [1, 1, 1]
        cert = _pattern_lambda(g, f)
        assert cert[0] == "cut" and cert[1].tolist() == [0, 1, 1]
        assert _checks(g, f, cert)
        for side in ((1,), (2,), ()):
            for sign in (1, -1):
                assert not _checks(g, f, ("cut", sign * _side(f, side)))
        assert one_lap_lambda_range_lp(g, f) == []

    def test_vertex_dropped_from_a_zero_cut(self):
        # x, the support, pins lambda = 3/64; the zero vertices y1, y2 carry determined
        # flux -3/2 and +3/2, which the negative edge y1-y2 of weight 2 can
        # only cancel together: alone, each is within reach of it
        g = SignedGraph.build(["x", "y1", "y2"],
                              [("x", "y1", 1.5, 1), ("x", "y2", 1.5, -1), ("y1", "y2", 2.0, -1)],
                              mu=[64.0, 1.0, 1.0])
        f = [1, 0, 0]
        cert = _pattern_lambda(g, f)
        kind, pi = cert
        assert kind == "cut" and not pi[0] and abs(pi).sum() == 2
        assert _checks(g, f, cert)
        for y in (1, 2):
            dropped = pi.copy()
            dropped[y] = 0
            assert not _checks(g, f, (kind, dropped))
        assert one_lap_lambda_range_lp(g, f) == []

    def test_wrong_screen_pair(self):
        # the screen's one-vertex cut with the other sign at its vertex, or
        # with an entry beyond {-1, 0, 1}
        tried = 0
        for g in list(TestLambdaRange._corpus())[:6]:
            for pattern in nonzero_patterns(g.n):
                cert = prefilter_lambda_box(g, pattern)
                if cert is None:
                    continue
                pi = np.array(cert[1])
                assert _checks(g, pattern, cert) and abs(pi).sum() == 1
                for wrong in (-pi, 2 * pi):
                    assert not _checks(g, pattern, ("cut", wrong))
                tried += 1
        assert tried >= 100

    def test_a_closed_side_at_the_support_ratio_fails(self):
        # the components {x1, x2}, {y1, y2} and {z} of the free support edges
        # pin lambda = 3/2, 5/2 and 2, and the support 10/5 = 2: the first
        # two are cuts of capacity 0, pi = sgn below the support's lambda and
        # -sgn above it; {z} and the whole support are closed at the
        # support's ratio, and {x1} is left by the free edge x1 - x2, whose
        # weight 1 its demand does not exceed
        g = SignedGraph.build(["x1", "x2", "y1", "y2", "z"],
                              [("x1", "x2", 1.0, 1), ("y1", "y2", 1.0, 1), ("x2", "y1", 1.0, -1)],
                              kappa=[1.0, 1.0, 2.0, 2.0, 2.0])
        f = [1, 1, 1, 1, 1]
        cert = _pattern_lambda(g, f)
        assert cert[0] == "cut" and cert[1].tolist() == [1, 1, 0, 0, 0]
        assert _checks(g, f, cert)
        assert _checks(g, f, ("cut", -_side(f, (2, 3))))
        assert not _checks(g, f, ("cut", _side(f, (2, 3))))
        for side in ((4,), (0, 1, 2, 3, 4), (0,)):
            for sign in (1, -1):
                assert not _checks(g, f, ("cut", sign * _side(f, side)))
        assert one_lap_lambda_range_lp(g, f) == []

    def test_one_vertex_pins_that_differ_give_a_support_cut(self):
        # (1, -1, 1) on the path fixes every edge: {a}, {b} and {c} pin 1, 2
        # and 1, the support 4/3, and with no free support edge the flow
        # still runs and finds the cut {a, c} of capacity 0
        g, f = path(3), (1, -1, 1)
        cert = _pattern_lambda(g, f)
        assert cert[0] == "cut" and cert[1].tolist() == [1, 0, 1]
        assert _checks(g, f, cert)
        assert one_lap_lambda_range(g, f) == one_lap_lambda_range_lp(g, f) == []

    @staticmethod
    def _good():
        """One certificate that checks per stage that makes it, by name:
        (g, f, cert), cert ``(kind, t, *certs)`` on a block t of one column.
        The screen's cut of (1, -1, 1) on the path is pi = 1 at its middle,
        which pins lambda = 2 against the support's 4/3; the flow's is {a, c}
        (see above); the zero block's is that of the y1 - y2 graph above."""
        zero_g = SignedGraph.build(["x", "y1", "y2"], [("x", "y1", 1.5, 1), ("x", "y2", 1.5, -1),
                                                       ("y1", "y2", 2.0, -1)], mu=[64.0, 1.0, 1.0])
        t = np.array([[1], [-1], [1]], np.int8)
        cases = {"screen": (path(3), (1, -1, 1), ("cut", t, np.array([[0], [1], [0]]))),
                 "support-cut": (path(3), (1, -1, 1), ("cut", t, np.array([[1], [0], [1]]))),
                 "witness": (path(3), (1, 1, 1),
                             ("witness", *_witness_block(path(3), [(1, 1, 1)]))),
                 "zero-cut": (zero_g, (1, 0, 0), ("cut", np.array([[1], [0], [0]], np.int8),
                                                  _pattern_lambda(zero_g, (1, 0, 0))[1][:, None]))}
        assert prefilter_lambda_box(path(3), (1, -1, 1)) == ("cut", (0, 1, 0))
        for g, f, cert in cases.values():
            assert check_certificates_1lap(g, *cert).tolist() == [True]
        return cases

    # a certificate of the wrong shape, made from a good block (kind, t,
    # *certs) of the named stage: it raises GraphError at the block
    # boundary, or answers False where pi reads off {-1, 0, 1}
    _MALFORMED = {
        "none": ("screen", lambda c: (c[0], c[1], None)),
        "kind-only": ("screen", lambda c: ("bogus", c[1])),
        "screen-one-vertex": ("screen", lambda c: c[:2]),  # no pi
        "screen-extra-entry": ("screen", lambda c: (*c, c[2])),
        "screen-as-list": ("screen", lambda c: (*c[:2], [c[2].tolist()])),  # shape (1, 3, 1)
        "screen-float-index": ("screen", lambda c: (*c[:2], c[2].astype(float))),
        "screen-numpy-index": ("screen", lambda c: (*c[:2], np.where(
            c[2] != 0, np.uint64(2**64 - 1), c[2].astype(np.uint64)))),  # reads as 2**63 - 1
        "screen-str-index": ("screen", lambda c: (*c[:2], c[2].astype(str))),
        "screen-bool-index": ("screen", lambda c: (*c[:2], c[2] != 0)),
        "kind-not-a-string": ("screen", lambda c: (np.array([1, 2]), *c[1:])),
        "support-cut-none": ("support-cut", lambda c: (*c[:2], None)),
        "support-cut-as-list": ("support-cut", lambda c: (*c[:2], np.flatnonzero(c[2]).tolist())),
        "support-cut-numpy-vertex": ("support-cut", lambda c: (*c[:2], np.flatnonzero(c[2]))),
        "support-cut-with-a-pin": ("support-cut", lambda c: (*c, c[2])),
        "pins-kind": ("support-cut", lambda c: ("pins", *c[1:])),
        "zero-cut-pi-as-list": ("zero-cut", lambda c: (*c[:2], c[2][:, 0].tolist())),  # shape (n,)
        "zero-cut-float-pi": ("zero-cut", lambda c: (*c[:2], c[2].astype(float))),
        "zero-cut-short-pi": ("zero-cut", lambda c: (*c[:2], c[2][:-1])),
        "zero-cut-with-a-pin": ("zero-cut", lambda c: (*c, c[2])),
        "witness-float-lambda": ("witness", lambda c: (*c[:2], c[2].astype(float), *c[3:])),
        "witness-numpy-den": ("witness", lambda c: (*c[:3], np.array([np.int64(2)], object),
                                                    *c[4:])),
        "witness-none-den": ("witness", lambda c: (*c[:3], None, *c[4:])),
        "witness-z-edge-triple": ("witness", lambda c: (*c[:4], np.vstack((c[4], c[4][:1])),
                                                        c[5])),
        "witness-z-vertex-as-list": ("witness", lambda c: (*c[:5], c[5][:, 0].tolist())),
        "witness-float-z": ("witness", lambda c: (*c[:5], np.where(np.eye(3, 1, dtype=bool),
                                                                   float(c[5][0, 0]), c[5]))),
        "witness-bool-z": ("witness", lambda c: (*c[:4], np.where(np.eye(2, 1, dtype=bool),
                                                                  True, c[4]), c[5])),
        "witness-one-array-less": ("witness", lambda c: c[:5]),
    }

    @pytest.mark.parametrize("name", _MALFORMED)
    def test_malformed_certificate_answers_false(self, name):
        stage, malform = self._MALFORMED[name]
        g, f, cert = self._good()[stage]
        if name == "screen-numpy-index":
            assert check_certificates_1lap(g, *malform(cert)).tolist() == [False]
        else:
            with pytest.raises(GraphError):
                check_certificates_1lap(g, *malform(cert))

    @pytest.mark.parametrize("stage", ["screen", "support-cut", "zero-cut"])
    def test_a_rejection_is_no_witness(self, stage):
        # a good cut's arrays are no witness's, and no zero z makes its
        # pattern an eigenfunction, at its support's lambda or another
        g, f, (kind, t, *certs) = self._good()[stage]
        assert kind == "cut" and check_certificates_1lap(g, kind, t, *certs).all()
        with pytest.raises(GraphError):
            check_certificates_1lap(g, "witness", t, *certs)
        zero = (np.zeros((len(g.edges), 1), int), np.zeros((g.n, 1), int))
        for lam in (Fraction(0), Fraction(4, 3), Fraction(3, 64), Fraction(-1, 2)):
            assert not check_certificates_1lap(g, "witness", t, [lam.numerator],
                                               [lam.denominator], *zero).any()

    @pytest.mark.parametrize("f", [[1.0], [0.0, 0.0], [1.0, float("nan")], [float("inf"), 1.0]])
    def test_bad_function_rejected(self, f):
        # a witness of one column on f: a zero column answers False (no kind
        # certifies it), any other raises GraphError at the boundary
        certs = ([0], [1], np.zeros((1, 1), int), np.zeros((2, 1), int))
        t = np.array(f)[:, None]
        if f == [0.0, 0.0]:
            assert check_certificates_1lap(path(2), "witness", t, *certs).tolist() == [False]
        else:
            with pytest.raises(GraphError):
                check_certificates_1lap(path(2), "witness", t, *certs)


class TestCutKernel:
    """The cut kernel is sound and complete on small graphs: over every pi
    in {-1, 0, 1}^n, no cut checks on a pattern that admits a lambda, and
    some cut checks on every pattern that admits none. Which patterns
    admit one is ``one_lap_lambda_range``'s answer, which ``TestLambdaRange``
    pins to the LP oracle."""

    @staticmethod
    def _graphs():
        # n = 3 and 4: unit mu, degree mu, and non-unit mu with kappa != 0
        yield path(3)
        yield triangle((-1, 1, 1))
        yield complete(4)
        for seed, model in enumerate(("uniform", "balanced", "antibalanced")):
            g = random_signed_graph(4, 0.7, model=model, seed=seed)
            yield with_degree_measure(g) if g.edges else g
        yield SignedGraph.build("abcd", [("a", "b", 1.0, -1), ("b", "c", 2.0, 1),
                                         ("c", "d", 1.0, -1), ("a", "d", 1.5, 1)],
                                mu=[1.0, 2.0, 1.0, 0.5], kappa=[1.0, 0.0, -0.5, 0.0])

    def test_sound_and_complete(self):
        verdicts = Counter()
        for g in self._graphs():
            pis = np.array(list(product((-1, 0, 1), repeat=g.n)), np.int8).T
            patterns = list(nonzero_patterns(g.n))
            t = np.repeat(np.array(patterns, np.int8).T, pis.shape[1], axis=1)
            checks = check_certificates_1lap(g, "cut", t, np.tile(pis, len(patterns)))
            for pattern, cut in zip(patterns, checks.reshape(len(patterns), -1).any(axis=1)):
                feasible = bool(one_lap_lambda_range(g, pattern))
                assert cut != feasible, (g, pattern)
                verdicts[feasible] += 1
        assert min(verdicts.values()) >= 50, verdicts


# good certificate arrays on an (n, m) block t of path(3), as (kind, make)
# by the stage that makes them: pi at one vertex (the screen), sgn on the
# support (a side of the support flow) or 0 (a zero-block cut), and a
# witness, whose two z_edge rows are the path's edges
_CHECKERS = {
    "screen": ("cut", lambda t: (np.eye(3, t.shape[1], dtype=int),)),
    "support-cut": ("cut", lambda t: (t.astype(np.int8),)),
    "zero-cut": ("cut", lambda t: (np.zeros(t.shape, np.int8),)),
    "witness": ("witness", lambda t: (np.zeros(t.shape[1], int), np.ones(t.shape[1], int),
                                      np.zeros((2, t.shape[1]), int), np.zeros(t.shape, int))),
}
_T3 = np.array([[1, 1], [-1, 0], [1, 1]], np.int8)


class TestScreenChecker:
    """``check_certificates_1lap`` on whole blocks of the screen's one-vertex
    cuts against the per-pattern screen of the oracles: for every column,
    some pi = +-sgn_v at one support vertex v checks exactly when the oracle
    rejects, and the oracle's pi checks. Then the boundary that every kind
    shares."""

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
            checks = {}
            for v, sign in product(range(g.n), (-1, 1)):
                pi = np.zeros(t.shape, np.int8)
                pi[v] = sign * t[v]
                checks[v, sign] = check_certificates_1lap(g, "cut", t, pi)
            for j, f in enumerate(zip(*t.tolist())):
                cert = prefilter_lambda_box(g, f)
                assert any(c[j] for c in checks.values()) == (cert is not None), (name, f)
                if cert is not None:
                    v = np.flatnonzero(cert[1])[0]
                    assert checks[v, cert[1][v] * f[v]][j], (name, f)
                    rejected += 1
        assert rejected >= 10 or name == "edgeless-zero-kappa"

    def test_vertex_off_the_graph_or_the_support(self):
        # (1, -1, 1) and (1, 0, 1): pi = 1 at the middle checks both, as the
        # screen's cut (b pins lambda = 2 against the support's 4/3) and as
        # a zero vertex's (b's flux -2 exceeds its slack |lambda| mu_b = 1);
        # the same vertex with an entry off {-1, 0, 1} checks neither
        t = np.array([[1, 1], [-1, 0], [1, 1]], np.int8)
        pi = np.array([[0, 0], [1, 1], [0, 0]])
        assert check_certificates_1lap(path(3), "cut", t, pi).tolist() == [True, True]
        for k in (2, -3, 2**62):
            assert not check_certificates_1lap(path(3), "cut", t, k * pi).any()
        with pytest.raises(GraphError, match="shape"):
            check_certificates_1lap(path(3), "cut", t[:2], pi)

    # the boundary of every kind: an unknown kind or a malformed block or
    # certificate array raises GraphError, and an empty block answers an
    # empty array
    @pytest.mark.parametrize("kind", ["bogus", "zero_cuts", "Screen", None, ("screen",), "pins",
                                      "screen", "support-cut", "zero-cut", "Cut"])
    def test_unknown_kind_raises(self, kind):
        with pytest.raises(GraphError, match="unknown certificate kind"):
            check_certificates_1lap(path(3), kind, _T3, *_CHECKERS["support-cut"][1](_T3))

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
        lambda t, certs: (t, [*certs, certs[0]]),
        lambda t, certs: (t, certs[1:]),
    ], ids=("nan", "inf", "short", "one-dimensional", "bool-t", "certificate-too-short",
            "float-certificate", "str-certificate", "one-array-more", "one-array-less"))
    def test_malformed_block_raises(self, name, tamper):
        kind, make = _CHECKERS[name]
        t, certs = tamper(_T3, make(_T3))
        with pytest.raises(GraphError):
            check_certificates_1lap(path(3), kind, t, *certs)

    @pytest.mark.parametrize("name", _CHECKERS)
    def test_an_empty_block(self, name):
        # the arrays, and the same as lists: an empty array of any kind passes
        kind, make = _CHECKERS[name]
        t = np.zeros((3, 0), np.int8)
        certs = make(t)
        for args in (certs, [c.tolist() for c in certs]):
            out = check_certificates_1lap(path(3), kind, t, *args)
            assert out.dtype == bool and out.shape == (0,)

    def test_good_arguments_pass_the_boundary(self):
        for name, (kind, make) in _CHECKERS.items():
            assert check_certificates_1lap(path(3), kind, _T3, *make(_T3)).shape == (2,), name


class TestBlockCheckers:
    """Forged cuts fail, each for the one reason it was forged. Every cut
    takes lambda = a / b from the support; a zero column has b = 0 and is
    rejected by none."""

    # path a - b - c, unit weights and mu; columns (1, -1, 1) and (1, 1, -1):
    # in the first every edge is fixed, {a}, {b}, {c} pin 1, 2, 1 and the
    # support 4/3; in the second a - b is free, {a, b} pins 1/2, {c} pins 1
    # and the support 2/3
    _T = np.array([[1, 1], [-1, 1], [1, -1]], np.int8)

    def test_pins(self):
        # a pin whose lambda differs from the support's is a cut of
        # capacity 0, pi = sgn on it below the support's lambda and -sgn
        # above it
        g, t = path(3), self._T

        def check(*columns):
            return check_certificates_1lap(g, "cut", t, np.array(columns).T).tolist()

        assert check((1, 0, 0), (1, 1, 0)) == [True, True]
        assert check((0, 1, 0), (0, 0, 1)) == [True, True]
        # the other sign
        assert not any(check((-1, 0, 0), (-1, -1, 0)))
        assert not any(check((0, -1, 0), (0, 0, -1)))
        # sgn on the whole support, and no pi at all
        assert not any(check((1, -1, 1), (1, 1, -1)))
        assert not any(check((0, 0, 0), (0, 0, 0)))
        # {a} crosses the free edge a - b of the second column, whose weight
        # 1 its demand |2/3 - 0| does not exceed
        assert check((1, 0, 0), (1, 0, 0)) == [True, False]
        # (1, 0, -1): {a} and {c} pin 1, as does the support; pi at the zero
        # vertex b too, of either sign
        t0 = np.array([[1], [0], [-1]], np.int8)
        for pi in ((1, 0, 0), (1, 1, 0), (1, -1, 0), (-1, 1, 0)):
            assert not check_certificates_1lap(g, "cut", t0, np.array([pi]).T).any(), pi

    def test_a_zero_column_is_rejected_by_no_kind(self):
        g, t = path(3), np.zeros((3, 2), np.int8)
        for pi in (np.zeros((3, 2), np.int8), np.ones((3, 2), np.int8), np.eye(3, 2, dtype=int),
                   np.array([[1, -1], [0, 1], [-1, -1]], np.int8)):
            assert not check_certificates_1lap(g, "cut", t, pi).any()
        assert not check_certificates_1lap(g, "witness", t, *_CHECKERS["witness"][1](t)).any()

    @pytest.mark.parametrize("mu_a", [1.0, 2.0**70], ids=("int64", "object"))
    def test_support_cuts(self, mu_a):
        # a - b - c - d at (1, 1, 1, 0), w = 1, 2, 1 and kappa = (4, -3/2,
        # -5/2, 0): the fixed edge c - d gives c_c = -3/2, {a, b, c} is the
        # support and the one pin, and {b, c} demands about 3 across a - b of
        # weight 1, while {b} and {c} alone have cuts of weight 3 and 2
        g = SignedGraph.build("abcd", [("a", "b", 1.0, 1), ("b", "c", 2.0, 1), ("c", "d", 1.0, 1)],
                              mu=[mu_a, 1.0, 1.0, 1.0], kappa=[4.0, -1.5, -2.5, 0.0])
        assert products_take_python_ints(g) == (mu_a > 1)
        f = (1, 1, 1, 0)
        t = np.array([f], np.int8).T

        def check(side, sign):
            return bool(check_certificates_1lap(g, "cut", t, sign * _side(f, side)[:, None])[0])

        # a side and its complement on the support, of opposite signs: the
        # demands sum to 0
        assert check((1, 2), 1) and check((0,), -1)
        assert not check((1, 2), -1) and not check((0,), 1)  # the other sign
        for sign in (1, -1):
            assert not check((), sign) and not check((0, 1, 2), sign)  # none, the whole support
            assert not check((1,), sign) and not check((2,), sign)  # a side vertex dropped

    def test_zero_cuts(self):
        # x - y of weight 2 at f = (1, 0): the support {x} pins
        # lambda = 2 / mu_x, and y carries flux -2 against the slack
        # lambda mu_y = 2 / mu_x
        def graph(mu_x):
            return SignedGraph.build("xy", [("x", "y", 2.0, 1)], mu=[mu_x, 1.0])

        t = np.array([[1], [0]], np.int8)

        def check(g, *pi):
            pi = np.array(pi, np.int8)[:, None]
            return bool(check_certificates_1lap(g, "cut", t, pi)[0])

        assert check(graph(4.0), 0, 1)  # pi_y = -sgn(c_y)
        assert not check(graph(4.0), 0, -1)  # the wrong sign
        assert check(graph(4.0), 1, 1)  # with x as well: lambda mu_x - c_x = 0 there
        assert not check(graph(4.0), 0, 2)  # pi off {-1, 0, 1}
        assert not check(graph(1.0), 0, 1)  # |c_y| = 2 = the slack: not exceeded
        # pi off {-1, 0, 1} that wraps: abs(-128) is -128 in int8, and the
        # int64 and uint64 extremes read as themselves, not as -1 or 1
        assert not check(graph(4.0), 0, -128)
        for pi in (np.array([[0], [-2**63]]), np.array([[0], [2**64 - 1]], np.uint64)):
            assert not check_certificates_1lap(graph(4.0), "cut", t, pi)[0]
        # a - b - y at (1, 1, 0), mu_a = mu_b = 4: the support {a, b} pins
        # 1/4, and y's flux -2 exceeds its slack 1/4
        g = SignedGraph.build("aby", [("a", "b", 1.0, 1), ("b", "y", 2.0, 1)], mu=[4.0, 4.0, 1.0])
        t = np.array([[1], [1], [0]], np.int8)
        pi = np.array([[0], [0], [1]], np.int8)
        assert check_certificates_1lap(g, "cut", t, pi).tolist() == [True]

    @pytest.mark.parametrize("t", [np.full((2, 1), -128, np.int8), np.full((2, 1), -1.0),
                                   np.full((2, 1), -2**62), np.full((2, 1), -2**63)],
                             ids=("int8-min", "float", "int64-past-2**62", "int64-min"))
    def test_t_is_read_exactly(self, t):
        # a - b of sign -1 at t_a = t_b < 0: t_a - sigma t_b < 0 fixes the edge
        # (sigma t_b wrapped back to t_b would free it), so {a} and {b} pin 1
        # and 1/2 against the support's 2/3: pi = -sgn_a = 1 at a (also the
        # screen's cut, lo_a = 1 > 2/3) and pi = sgn_b = -1 at b check
        g = SignedGraph.build("ab", [("a", "b", 1.0, -1)], mu=[1.0, 2.0])
        pi = np.array([[1, 0], [0, -1]])
        assert check_certificates_1lap(g, "cut", np.repeat(t, 2, axis=1), pi).tolist() == [True,
                                                                                           True]


class TestAboveKernel:
    """An "above" column checks exactly where its support's lambda exceeds
    the bound p / q it names."""

    @staticmethod
    def _graphs():
        # the lambda-range corpus, and screen-corpus graphs whose products
        # take Python ints
        yield from list(TestLambdaRange._corpus())[:8]
        yield from [g for g in list(_screen_corpus())[:40:4] if products_take_python_ints(g)]

    def test_is_the_support_lambda_against_the_bound(self):
        # every pattern against bounds at every support lambda of the graph
        # (a tie is not above) and next to it, as int64 and as Python-int
        # arrays; one block per bound
        outcomes = Counter()
        for g in self._graphs():
            patterns = list(nonzero_patterns(g.n))
            t = np.array(patterns, np.int8).T
            lams = [support_lambda(g, f) for f in patterns]
            eps = Fraction(1, 1 + max(lam.denominator for lam in lams)) ** 2
            bounds = sorted({b + d for b in set(lams) for d in (-eps, 0, eps)})
            for bound in bounds[::max(1, len(bounds) // 12)]:
                want = [lam > bound for lam in lams]
                m = t.shape[1]
                p, q = np.full(m, bound.numerator, object), np.full(m, bound.denominator, object)
                assert check_certificates_1lap(g, "above", t, p, q).tolist() == want, (g, bound)
                if abs(bound.numerator) < 2**62 and bound.denominator < 2**62:
                    assert check_certificates_1lap(g, "above", t, p.astype(np.int64),
                                                   q.astype(np.int64)).tolist() == want
                outcomes.update(want)
        assert min(outcomes[True], outcomes[False]) >= 1000, outcomes

    def test_bound_moved_by_one_unit(self):
        # with lambda = a / b in lowest terms, the bound (a - 1) / b checks
        # and p + 1 puts it at lambda (a q = b p, not above); where lambda >
        # 0 so do a / (b + 1) and q - 1
        for g in list(self._graphs())[:4]:
            patterns = list(nonzero_patterns(g.n))
            t = np.array(patterns, np.int8).T
            lams = [support_lambda(g, f) for f in patterns]
            a = np.array([lam.numerator for lam in lams], object)
            b = np.array([lam.denominator for lam in lams], object)
            assert check_certificates_1lap(g, "above", t, a - 1, b).all()
            assert not check_certificates_1lap(g, "above", t, a - 1 + 1, b).any()
            pos = a > 0
            assert pos.any()
            assert check_certificates_1lap(g, "above", t[:, pos], a[pos], b[pos] + 1).all()
            assert not check_certificates_1lap(g, "above", t[:, pos], a[pos], b[pos] + 1 - 1).any()

    def test_denominator_below_one_and_zero_column(self):
        # q = 0 and a bound negated whole, at q < 0, name no bound; no bound
        # puts the zero column above it (it has no support)
        g, t = path(3), np.array([[1, 0], [-1, 0], [1, 0]], np.int8)
        assert check_certificates_1lap(g, "above", t[:, :1], [0], [1]).tolist() == [True]
        for p, q in ((0, 0), (-1, 0), (0, -1), (-4, -3)):
            assert not check_certificates_1lap(g, "above", t[:, :1], [p], [q]).any(), (p, q)
        assert not check_certificates_1lap(g, "above", t[:, 1:], [-10**9], [1]).any()

    _MALFORMED = {
        "one-array-less": lambda p, q: (p,),
        "one-array-more": lambda p, q: (p, q, q),
        "p-none": lambda p, q: (None, q),
        "p-float": lambda p, q: (p.astype(float), q),
        "q-bool": lambda p, q: (p, q > 0),
        "q-str": lambda p, q: (p, q.astype(str)),
        "p-as-a-row": lambda p, q: (p[None, :], q),
        "q-short": lambda p, q: (p, q[:-1]),
        "p-numpy-int-objects": lambda p, q: (np.array([np.int64(x) for x in p], object), q),
        "q-float-objects": lambda p, q: (p, np.array([float(x) for x in q], object)),
    }

    @pytest.mark.parametrize("name", _MALFORMED)
    def test_malformed_above_raises(self, name):
        g, t = path(3), np.array([[1, 0], [-1, 1], [1, 0]], np.int8)
        p, q = np.array([1, 1], object), np.array([2, 2], object)
        assert check_certificates_1lap(g, "above", t, p, q).all()
        with pytest.raises(GraphError):
            check_certificates_1lap(g, "above", t, *self._MALFORMED[name](p, q))
