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
        lambda c: c._replace(lam=c.lam + 1),
        lambda c: c._replace(z_edge=((c.z_edge[0][0] + 1, c.z_edge[0][1]),)),
        lambda c: ("support-cut", np.array([True, False])),
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


def _crossing_weight(g, f, side) -> float:
    """The weight of the free support edges of the pattern f that cross the
    side, an (n,) bool mask."""
    return sum(w for u, v, w, s in g.edges if f[u] and f[u] == s * f[v] and side[u] != side[v])


def _mask(n, xs) -> np.ndarray:
    """The vertices xs as an (n,) bool mask, the column form of a side."""
    out = np.zeros(n, bool)
    out[list(xs)] = True
    return out


def _rejects(g, f, cert) -> bool:
    """Whether ``check_rejections_1lap`` passes the rejection ``(kind,
    *columns)`` of the one pattern f, on a block of one column: a screen
    pair's x and y are ints, a side or a pi an (n,) array."""
    kind, *cols = cert
    return bool(check_rejections_1lap(g, kind, np.array(f)[:, None],
                                      *(np.asarray(c)[..., None] for c in cols))[0])


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
        with the LP answer ``lp``; return the kinds seen. A witness must
        also pass the fixed-lambda LP; a rejection of the max-flow is one
        block column, a side an (n,) bool mask or pi (n,) int8."""
        kinds = []
        screen, cert = prefilter_lambda_box(g, pattern), _pattern_lambda(g, pattern)
        if screen is not None:
            assert _rejects(g, pattern, screen) and lp == [], (g, pattern, screen)
            kinds.append("screen")
        if isinstance(cert, OneLapWitness):
            assert check_certificate_1lap(g, pattern, cert), (g, pattern, cert)
            assert lp == [(cert.lam, cert.lam)], (g, pattern)
            assert check_eigenpair_1lap_lp(g, cert.lam, pattern)
            return kinds + ["witness"]
        kind, col = cert
        assert col.shape == (g.n,) and col.dtype == (bool if kind == "support-cut" else np.int8)
        assert _rejects(g, pattern, cert) and lp == [], (g, pattern, cert)
        if kind == "zero-cut" and abs(col).sum() > 1:
            kind += "-wide"
        if kind == "support-cut" and not _crossing_weight(g, pattern, col):
            kind += "-closed"  # a component whose pin is not the support's
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
        # every screen pair, every side on the support (a pin among them)
        # and every sign vector pi on a feasible pattern must fail, since
        # each would prove it infeasible: each fake is one column of a block
        # of the pattern, one block per kind
        tried = 0
        for g in [g for g in TestLambdaRange._corpus() if g.n <= 5]:
            for pattern in nonzero_patterns(g.n):
                if not isinstance(_pattern_lambda(g, pattern), OneLapWitness):
                    continue
                support = [x for x in range(g.n) if pattern[x]]
                pairs = np.array([(x, y) for x in support for y in support]).T
                sides = np.array([_mask(g.n, (x for i, x in enumerate(support) if m >> i & 1))
                                  for m in range(1, 1 << len(support))]).T
                pis = np.array(list(product((-1, 0, 1), repeat=g.n)), np.int8).T
                for kind, certs in (("screen", pairs), ("support-cut", [sides]),
                                    ("zero-cut", [pis])):
                    t = np.repeat(np.array(pattern, np.int8)[:, None], certs[0].shape[-1], axis=1)
                    assert not check_rejections_1lap(g, kind, t, *certs).any(), (g, pattern, kind)
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
        assert cert[0] == "support-cut" and np.flatnonzero(cert[1]).tolist() == [1, 2]
        assert _rejects(g, f, cert)
        for side in ((1,), (2,), ()):
            assert not _rejects(g, f, ("support-cut", _mask(3, side)))
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
        assert kind == "zero-cut" and abs(pi).sum() == 2
        assert _rejects(g, f, cert)
        for y in (1, 2):
            dropped = pi.copy()
            dropped[y] = 0
            assert not _rejects(g, f, (kind, dropped))
        assert one_lap_lambda_range_lp(g, f) == []

    def test_wrong_screen_pair(self):
        tried = 0
        for g in list(TestLambdaRange._corpus())[:6]:
            for pattern in nonzero_patterns(g.n):
                cert = prefilter_lambda_box(g, pattern)
                if cert is None:
                    continue
                _, x, y = cert
                assert _rejects(g, pattern, cert)
                for wrong in ((y, x), (x, x), (y, y)):
                    assert not _rejects(g, pattern, ("screen", *wrong))
                tried += 1
        assert tried >= 100

    def test_a_closed_side_at_the_support_ratio_fails(self):
        # the components {x1, x2}, {y1, y2} and {z} of the free support edges
        # pin lambda = 3/2, 5/2 and 2, and the support 10/5 = 2: the first
        # two are support cuts of capacity 0, {z} and the whole support are
        # closed at the support's ratio, and {x1} is left by the free edge
        # x1 - x2, whose weight 1 its demand does not exceed
        g = SignedGraph.build(["x1", "x2", "y1", "y2", "z"],
                              [("x1", "x2", 1.0, 1), ("y1", "y2", 1.0, 1), ("x2", "y1", 1.0, -1)],
                              kappa=[1.0, 1.0, 2.0, 2.0, 2.0])
        f = [1, 1, 1, 1, 1]
        cert = _pattern_lambda(g, f)
        assert cert[0] == "support-cut" and np.flatnonzero(cert[1]).tolist() == [0, 1]
        assert _rejects(g, f, cert)
        assert _rejects(g, f, ("support-cut", _mask(5, (2, 3))))
        for side in ((4,), (0, 1, 2, 3, 4), (0,)):
            assert not _rejects(g, f, ("support-cut", _mask(5, side)))
        assert one_lap_lambda_range_lp(g, f) == []

    def test_one_vertex_pins_that_differ_give_a_support_cut(self):
        # (1, -1, 1) on the path fixes every edge: {a}, {b} and {c} pin 1, 2
        # and 1, the support 4/3, and with no free support edge the flow
        # still runs and finds the cut {a, c} of capacity 0
        g, f = path(3), (1, -1, 1)
        cert = _pattern_lambda(g, f)
        assert cert[0] == "support-cut" and np.flatnonzero(cert[1]).tolist() == [0, 2]
        assert _rejects(g, f, cert)
        assert one_lap_lambda_range(g, f) == one_lap_lambda_range_lp(g, f) == []

    @staticmethod
    def _good():
        """One certificate of each kind that checks, by name: (g, f, cert),
        a rejection as ``(kind, t, *certs)`` on a block t of one column."""
        zero_g = SignedGraph.build(["x", "y1", "y2"], [("x", "y1", 1.5, 1), ("x", "y2", 1.5, -1),
                                                       ("y1", "y2", 2.0, -1)], mu=[64.0, 1.0, 1.0])
        t = np.array([[1], [-1], [1]], np.int8)
        cases = {"screen": (path(3), (1, -1, 1), ("screen", t, np.array([1]), np.array([0]))),
                 "support-cut": (path(3), (1, -1, 1), ("support-cut", t, _mask(3, (1,))[:, None])),
                 "witness": (path(3), (1, 1, 1), _pattern_lambda(path(3), (1, 1, 1))),
                 "zero-cut": (zero_g, (1, 0, 0), ("zero-cut", np.array([[1], [0], [0]], np.int8),
                                                  _pattern_lambda(zero_g, (1, 0, 0))[1][:, None]))}
        assert prefilter_lambda_box(path(3), (1, -1, 1)) == ("screen", 1, 0)
        for g, f, cert in cases.values():
            assert (check_certificate_1lap(g, f, cert) if isinstance(cert, OneLapWitness)
                    else check_rejections_1lap(g, *cert).tolist() == [True])
        return cases

    # a certificate of the wrong shape, made from a good one of the named
    # kind: a witness answers False; a rejection (kind, t, *certs) raises
    # GraphError at the block boundary, or answers False where it names a
    # vertex past the graph
    _MALFORMED = {
        "none": ("screen", lambda c: (c[0], c[1], None, c[3])),
        "kind-only": ("screen", lambda c: ("bogus", c[1])),
        "screen-one-vertex": ("screen", lambda c: c[:3]),
        "screen-extra-entry": ("screen", lambda c: (*c, c[3])),
        "screen-as-list": ("screen", lambda c: (*c[:3], [c[3].tolist()])),  # shape (1, 1)
        "screen-float-index": ("screen", lambda c: (*c[:3], c[3].astype(float))),
        "screen-numpy-index": ("screen", lambda c: (*c[:2], np.full(1, 2**64 - 1, np.uint64),
                                                    c[3])),  # reads as 2**63 - 1, off the graph
        "screen-str-index": ("screen", lambda c: (*c[:3], c[3].astype(str))),
        "screen-bool-index": ("screen", lambda c: (*c[:3], np.array([True]))),
        "kind-not-a-string": ("screen", lambda c: (np.array([1, 2]), *c[1:])),
        "support-cut-none": ("support-cut", lambda c: (*c[:2], None)),
        "support-cut-as-list": ("support-cut", lambda c: (*c[:2], np.flatnonzero(c[2]).tolist())),
        "support-cut-numpy-vertex": ("support-cut", lambda c: (*c[:2], c[2].astype(np.int64))),
        "support-cut-with-a-pin": ("support-cut", lambda c: (*c, c[2])),
        "pins-kind": ("support-cut", lambda c: ("pins", *c[1:])),
        "zero-cut-pi-as-list": ("zero-cut", lambda c: (*c[:2], c[2][:, 0].tolist())),  # shape (n,)
        "zero-cut-float-pi": ("zero-cut", lambda c: (*c[:2], c[2].astype(float))),
        "zero-cut-short-pi": ("zero-cut", lambda c: (*c[:2], c[2][:-1])),
        "zero-cut-with-a-pin": ("zero-cut", lambda c: (*c, c[2])),
        "witness-float-lambda": ("witness", lambda c: c._replace(lam=float(c.lam))),
        "witness-numpy-den": ("witness", lambda c: c._replace(den=np.int64(c.den))),
        "witness-none-den": ("witness", lambda c: c._replace(den=None)),
        "witness-z-edge-triple": ("witness", lambda c: c._replace(
            z_edge=((*c.z_edge[0], 0), *c.z_edge[1:]))),
        "witness-z-vertex-as-list": ("witness", lambda c: c._replace(z_vertex=list(c.z_vertex))),
        "witness-float-z": ("witness", lambda c: c._replace(
            z_vertex=(float(c.z_vertex[0]), *c.z_vertex[1:]))),
    }

    @pytest.mark.parametrize("name", _MALFORMED)
    def test_malformed_certificate_answers_false(self, name):
        kind, malform = self._MALFORMED[name]
        g, f, cert = self._good()[kind]
        if kind == "witness":
            assert check_certificate_1lap(g, f, malform(cert)) is False
        elif name == "screen-numpy-index":
            assert check_rejections_1lap(g, *malform(cert)).tolist() == [False]
        else:
            with pytest.raises(GraphError):
                check_rejections_1lap(g, *malform(cert))

    @pytest.mark.parametrize("kind", ["screen", "support-cut", "zero-cut"])
    def test_a_rejection_is_no_witness(self, kind):
        # check_certificate_1lap checks witnesses only: a good rejection, as
        # its block or as the column form that _pattern_lambda returns,
        # answers False there
        g, f, (_, t, *certs) = self._good()[kind]
        assert check_rejections_1lap(g, kind, t, *certs).all()
        for cert in ((kind, t, *certs), (kind, *(c[..., 0] for c in certs))):
            assert check_certificate_1lap(g, f, cert) is False

    @pytest.mark.parametrize("f", [[1.0], [0.0, 0.0], [1.0, float("nan")], [float("inf"), 1.0]])
    def test_bad_function_rejected(self, f):
        with pytest.raises(GraphError):
            check_certificate_1lap(path(2), f, ("screen", 0, 1))


# good certificate arrays of each kind's kernel on an (n, m) block t
_CHECKERS = {
    "screen": lambda t: (np.zeros(t.shape[1], int), np.zeros(t.shape[1], int)),
    "support-cut": lambda t: (t != 0,),
    "zero-cut": lambda t: (np.zeros(t.shape, np.int8),),
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
    @pytest.mark.parametrize("kind", ["bogus", "zero_cuts", "Screen", None, ("screen",), "pins"])
    def test_unknown_kind_raises(self, kind):
        with pytest.raises(GraphError, match="unknown rejection kind"):
            check_rejections_1lap(path(3), kind, _T3, *_CHECKERS["support-cut"](_T3))

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
    """Forged support cuts and zero cuts fail, each for the one reason it was
    forged. Every kind takes lambda = a / b from the support; a zero column
    has b = 0 and is rejected by none."""

    # path a - b - c, unit weights and mu; columns (1, -1, 1) and (1, 1, -1):
    # in the first every edge is fixed, {a}, {b}, {c} pin 1, 2, 1 and the
    # support 4/3; in the second a - b is free, {a, b} pins 1/2, {c} pins 1
    # and the support 2/3
    _T = np.array([[1, 1], [-1, 1], [1, -1]], np.int8)

    @staticmethod
    def _masks(*sets):
        out = np.zeros((3, len(sets)), bool)
        for j, xs in enumerate(sets):
            out[list(xs), j] = True
        return out

    def test_pins(self):
        # a pin whose lambda differs from the support's is a support cut of
        # capacity 0
        g, t, m = path(3), self._T, self._masks

        def check(t, side):
            return check_rejections_1lap(g, "support-cut", t, side).tolist()

        assert check(t, m((0,), (0, 1))) == [True, True]
        assert check(t, m((1,), (2,))) == [True, True]
        # the whole support, and an empty side
        assert not any(check(t, m((0, 1, 2), (0, 1, 2))))
        assert not any(check(t, m((), ())))
        # {a} crosses the free edge a - b of the second column, whose weight
        # 1 its demand |2/3 - 0| does not exceed
        assert check(t, m((0,), (0,))) == [True, False]
        # (1, 0, -1): {a} and {c} pin 1, as does the support; a side with
        # the zero vertex b
        t0 = np.array([[1], [0], [-1]], np.int8)
        assert check(t0, m((0,))) == [False]
        assert check(t0, m((0, 1))) == [False]

    def test_a_zero_column_is_rejected_by_no_kind(self):
        g, t = path(3), np.zeros((3, 2), np.int8)
        for side in (np.zeros((3, 2), bool), np.ones((3, 2), bool)):
            assert not check_rejections_1lap(g, "support-cut", t, side).any()
        for pi in (np.zeros((3, 2), np.int8), np.array([[1, -1], [0, 1], [-1, -1]], np.int8)):
            assert not check_rejections_1lap(g, "zero-cut", t, pi).any()
        assert not check_rejections_1lap(g, "screen", t, [0, 1], [1, 0]).any()

    @pytest.mark.parametrize("mu_a", [1.0, 2.0**70], ids=("int64", "object"))
    def test_support_cuts(self, mu_a):
        # a - b - c - d at (1, 1, 1, 0), w = 1, 2, 1 and kappa = (4, -3/2,
        # -5/2, 0): the fixed edge c - d gives c_c = -3/2, {a, b, c} is the
        # support and the one pin, and {b, c} demands about 3 across a - b of
        # weight 1, while {b} and {c} alone have cuts of weight 3 and 2
        g = SignedGraph.build("abcd", [("a", "b", 1.0, 1), ("b", "c", 2.0, 1), ("c", "d", 1.0, 1)],
                              mu=[mu_a, 1.0, 1.0, 1.0], kappa=[4.0, -1.5, -2.5, 0.0])
        assert products_take_python_ints(g) == (mu_a > 1)
        t = np.array([[1], [1], [1], [0]], np.int8)

        def check(side):
            side_mask = np.zeros((4, 1), bool)
            side_mask[list(side)] = True
            return bool(check_rejections_1lap(g, "support-cut", t, side_mask)[0])

        # a side and its complement on the support: the demands sum to 0
        assert check((1, 2)) and check((0,))
        assert not check((1, 2, 3))  # the zero vertex d in the side
        assert not check(()) and not check((0, 1, 2))  # the empty side and the whole support
        assert not check((1,)) and not check((2,))  # a side vertex dropped

    def test_zero_cuts(self):
        # x - y of weight 2 at f = (1, 0): the support {x} pins
        # lambda = 2 / mu_x, and y carries flux -2 against the slack
        # lambda mu_y = 2 / mu_x
        def graph(mu_x):
            return SignedGraph.build("xy", [("x", "y", 2.0, 1)], mu=[mu_x, 1.0])

        t = np.array([[1], [0]], np.int8)

        def check(g, *pi):
            pi = np.array(pi, np.int8)[:, None]
            return bool(check_rejections_1lap(g, "zero-cut", t, pi)[0])

        assert check(graph(4.0), 0, -1)
        assert not check(graph(4.0), 0, 1)  # the wrong sign
        assert not check(graph(4.0), 1, -1)  # pi on the support
        assert not check(graph(4.0), 0, -2)  # pi off {-1, 0, 1}
        assert not check(graph(1.0), 0, -1)  # |c_y| = 2 = the slack: not exceeded
        # pi off {-1, 0, 1} that wraps: abs(-128) is -128 in int8, and the
        # int64 and uint64 extremes read as themselves, not as -1
        assert not check(graph(4.0), 0, -128)
        for pi in (np.array([[0], [-2**63]]), np.array([[0], [2**64 - 1]], np.uint64)):
            assert not check_rejections_1lap(graph(4.0), "zero-cut", t, pi)[0]
        # a - b - y at (1, 1, 0), mu_a = mu_b = 4: the support {a, b} pins
        # 1/4, and y's flux -2 exceeds its slack 1/4
        g = SignedGraph.build("aby", [("a", "b", 1.0, 1), ("b", "y", 2.0, 1)], mu=[4.0, 4.0, 1.0])
        t = np.array([[1], [1], [0]], np.int8)
        pi = np.array([[0], [0], [-1]], np.int8)
        assert check_rejections_1lap(g, "zero-cut", t, pi).tolist() == [True]

    @pytest.mark.parametrize("t", [np.full((2, 1), -128, np.int8), np.full((2, 1), -1.0),
                                   np.full((2, 1), -2**62), np.full((2, 1), -2**63)],
                             ids=("int8-min", "float", "int64-past-2**62", "int64-min"))
    def test_t_is_read_exactly(self, t):
        # a - b of sign -1 at t_a = t_b < 0: t_a - sigma t_b < 0 fixes the edge
        # (sigma t_b wrapped back to t_b would free it), so {a} and {b} pin 1
        # and 1/2 against the support's 2/3, and the screen pair (a, b)
        # checks, lo_a = 1 > hi_b / 2
        g = SignedGraph.build("ab", [("a", "b", 1.0, -1)], mu=[1.0, 2.0])
        side = np.array([[True], [False]])
        assert check_rejections_1lap(g, "support-cut", t, side).tolist() == [True]
        assert check_rejections_1lap(g, "screen", t, [0], [1]).tolist() == [True]
