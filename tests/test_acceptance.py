"""End-to-end acceptance checks.

Each test pins one headline guarantee of the package: exact constants on
the complete graph, the degenerate-matrix weak-count example, the random
bound suite, the combinatorial edge-count identity, two-sided Cheeger
inequalities, positivity of extremal eigenfunctions on antibalanced
graphs, surgery re-certification, large-sample inequality fuzz, and
equivalence of the fast implementations with independent oracles.
"""

import time
from fractions import Fraction
from itertools import product

import numpy as np

from sgspec import nodal
from sgspec.cheeger import cheeger_k, check_theorem41
from sgspec.graph import SignedGraph, balance_state
from sgspec.harness import (
    SuiteConfig,
    example_3_1_check,
    random_signed_graph,
    run_suite,
)
from sgspec.nodal import nodal_quantities, strong_domains, weak_domains
from sgspec.operators import EigenPair, check_eigenpair
from sgspec.spectra import (
    extremal_p,
    form_matrix,
    one_lap_enumerate,
    smallest_positive_1lap,
    spectrum_p2,
)
from sgspec.transforms import remove_edge, remove_node

from oracles import (
    all_signed_graphs,
    all_unsigned_graphs,
    nonzero_patterns,
    strong_count_oracle,
    sym2_eigs,
    sym3_eigs,
    weak_count_oracle,
)
from test_graph import complete, random_graph

F = Fraction


def _phi(x, p):
    return np.sign(x) * np.abs(x) ** (p - 1)


def _clean(f, rtol=1e-9):
    out = np.asarray(f, dtype=float).copy()
    out[np.abs(out) <= rtol * np.max(np.abs(out))] = 0.0
    return out


class TestCompleteGraphConstants:
    def test_k5_cheeger_and_one_laplacian(self):
        start = time.monotonic()
        g = complete(5)  # unit weights, degree measure, zero potential
        assert cheeger_k(g, 1).value == 0
        assert cheeger_k(g, 2).value == F(3, 4)
        assert cheeger_k(g, 3).value == F(1)
        ols = one_lap_enumerate(g)
        for v in (F(0), F(3, 4), F(1)):
            assert v in ols.values
        assert smallest_positive_1lap(g) == F(3, 4)
        assert time.monotonic() - start < 10.0


class TestMatrixImportWeakCount:
    def test_k7_second_eigenfunction(self):
        start = time.monotonic()
        rec = example_3_1_check()
        assert rec["pass"]
        assert rec["weak_counts"] == [1]
        assert rec["control_weak_counts"] == [2]
        assert time.monotonic() - start < 1.0


class TestEigenvalueBoundSuite:
    def test_random_graph_suite(self):
        # nodal-count bounds at every certified eigenvalue position plus
        # both interlacing directions, with failures kept as replayable
        # (seed, trial, graph) bundles
        start = time.monotonic()
        cfg = SuiteConfig(
            seed=2024,
            trials=200,
            n_min=4,
            n_max=8,
            checks=("nodal-bounds", "interlacing-edge", "interlacing-node"),
            tol=1e-9,
        )
        rep = run_suite(cfg)
        assert rep.ok, rep.failures
        assert rep.aggregates["nodal-bounds"]["checked"] >= 200
        assert rep.aggregates["interlacing-edge"]["checked"] >= 150
        assert rep.aggregates["interlacing-node"]["checked"] == 200
        assert rep.failures == []
        assert time.monotonic() - start < 120.0


class TestEdgeCountIdentity:
    def test_thousand_random_pairs(self):
        rng = np.random.default_rng(71)
        done = 0
        while done < 1000:
            g = random_graph(rng, int(rng.integers(2, 9)))
            f = rng.standard_normal(g.n)
            # every third function is zero-heavy
            zero_frac = 0.7 if done % 3 == 0 else 0.3
            f[rng.random(g.n) < zero_frac] = 0.0
            if not np.any(f):
                continue
            assert nodal_quantities(g, f).identity_ok
            done += 1


class TestCheegerInequalities:
    def test_two_sided_bounds_p1_p2(self):
        rng = np.random.default_rng(73)
        checked = {1.0: 0, 2.0: 0}
        for trial in range(20):
            n = int(rng.integers(4, 9))
            g = random_signed_graph(n, 0.6, "uniform",
                                    seed=int(rng.integers(0, 2**31)),
                                    connected=True)
            spec = spectrum_p2(g)
            for k in rng.choice(n, size=2, replace=False) + 1:
                k = int(k)
                f = _clean(spec.vectors[:, k - 1])
                m = strong_domains(g, f)[0]
                rec = check_theorem41(g, 2.0, k, float(spec.values[k - 1]), m)
                assert rec["pass"], rec
                assert rec["lower_slack"] >= -1e-9
                assert rec["upper_slack"] >= -1e-9
                checked[2.0] += 1
            ols = one_lap_enumerate(g)
            witnesses = [(1, ols.lambda_1)]
            if ols.lambda_2 is not None:
                witnesses.append((2, ols.lambda_2))
            for k, lam in witnesses:
                point = next((pr for pr in ols.pairs if pr.lam == lam), None)
                if point is None:
                    continue
                m = strong_domains(g, np.asarray(point.f, dtype=float))[0]
                rec = check_theorem41(g, 1.0, k, float(lam), m)
                assert rec["pass"], rec
                checked[1.0] += 1
        assert checked[2.0] == 40 and checked[1.0] >= 20

    def test_bottom_of_one_laplacian_equals_h1(self):
        rng = np.random.default_rng(75)
        for trial in range(50):
            n = int(rng.integers(4, 9))
            g = random_signed_graph(n, 0.6, "uniform",
                                    seed=int(rng.integers(0, 2**31)),
                                    connected=True)
            assert one_lap_enumerate(g).lambda_1 == cheeger_k(g, 1).value


class TestAntibalancedPositivity:
    def test_extremal_eigenfunction_positive_after_switching(self):
        rng = np.random.default_rng(77)
        for trial in range(50):
            n = int(rng.integers(4, 8))
            g = random_signed_graph(n, 0.7, "antibalanced",
                                    seed=int(rng.integers(0, 2**31)),
                                    connected=True)
            tau = np.array(balance_state(g).antibalancing_tau)
            for p in (1.5, 2.0, 3.0):
                ext = extremal_p(g, p, seed=int(rng.integers(0, 2**31)))
                assert ext.converged_max
                assert ext.residual_max <= 1e-8
                fmax = ext.f_max / np.max(np.abs(ext.f_max))
                switched = tau * fmax
                ref = np.sign(switched[np.argmax(np.abs(switched))])
                assert np.min(ref * switched) > 1e-8
                if p == 2.0:
                    vals = spectrum_p2(g).values
                    assert vals[-1] - vals[-2] > 0
                    assert abs(ext.lambda_max - vals[-1]) <= 1e-7


def _with_twin(rng, base):
    """Attach a twin of a random vertex: same neighbors, weights, signs,
    measure and potential. The difference of the two indicators is then an
    exact eigenpair with eigenvalue (kappa + degree) / mu, vanishing
    everywhere else."""
    n = base.n
    u = int(rng.integers(0, n))
    edges = list(base.edges)
    for a, b, w, s in base.edges:
        if a == u:
            edges.append((b, n, w, s))
        elif b == u:
            edges.append((a, n, w, s))
    g = SignedGraph(ids=base.ids + ("tw",), mu=base.mu + (base.mu[u],),
                    kappa=base.kappa + (base.kappa[u],),
                    edges=tuple(sorted(edges)))
    deg = sum(w for a, b, w, _ in g.edges if u in (a, b))
    lam = (g.kappa[u] + deg) / g.mu[u]
    f = np.zeros(n + 1)
    f[u], f[n] = 1.0, -1.0
    return g, u, lam, f


class TestSurgeryRecertification:
    def test_edge_removals(self):
        rng = np.random.default_rng(79)
        done = 0
        while done < 100:
            g = random_graph(rng, int(rng.integers(3, 9)))
            if not g.edges:
                continue
            spec = spectrum_p2(g)
            k = int(rng.integers(0, g.n))
            lam, f = float(spec.values[k]), spec.vectors[:, k]
            floor = 1e-2 * np.max(np.abs(f))
            edges = [(u, v) for u, v, _, _ in g.edges
                     if abs(f[u]) > floor and abs(f[v]) > floor]
            if not edges:
                continue
            edge = edges[int(rng.integers(0, len(edges)))]
            res = remove_edge(g, 2.0, f, edge)
            cert = check_eigenpair(res.graph, EigenPair(lam, res.f, 2.0), tol=1e-9)
            assert cert.verdict, cert.max_residual
            done += 1

    def test_node_removals(self):
        rng = np.random.default_rng(81)
        done = 0
        while done < 100:
            base = random_graph(rng, int(rng.integers(3, 8)))
            g, u, lam, f = _with_twin(rng, base)
            others = [x for x in range(g.n) if x != u and f[x] == 0.0]
            x0 = others[int(rng.integers(0, len(others)))]
            res = remove_node(g, x0, f)
            cert = check_eigenpair(res.graph, EigenPair(lam, res.f, 2.0), tol=1e-9)
            assert cert.verdict, cert.max_residual
            done += 1


class TestInequalityFuzz:
    N = 10**5

    def test_two_point_inequality(self):
        rng = np.random.default_rng(83)
        n = self.N
        a, b, t, s = (rng.uniform(-3, 3, n) for _ in range(4))
        p = rng.uniform(1.0, 4.0, n)
        p[: n // 10] = 1.0
        p[n // 10: n // 5] = 2.0
        lhs = np.abs(t * a + s * b) ** p
        rhs = (np.abs(t) ** p * a + np.abs(s) ** p * b) * _phi(a + b, p)
        tol = 1e-9 * (1.0 + np.abs(lhs) + np.abs(rhs))
        ge = a * b <= 0
        le = a * b >= 0
        assert np.all(lhs[ge] >= rhs[ge] - tol[ge])
        assert np.all(lhs[le] <= rhs[le] + tol[le])

    def test_two_point_inequality_p1_interval_form(self):
        rng = np.random.default_rng(85)
        n = self.N
        a, b, t, s = (rng.uniform(-3, 3, n) for _ in range(4))
        lhs = np.abs(t * a + s * b)
        base = np.abs(t) * a + np.abs(s) * b
        tol = 1e-9 * (1.0 + np.abs(lhs) + np.abs(base))
        ge = a * b <= 0
        le = a * b >= 0
        z = np.sign(a + b)
        assert np.all(lhs[ge] >= (base * z)[ge] - tol[ge])
        assert np.all(lhs[le] <= (base * z)[le] + tol[le])
        # where a + b = 0 the sign set is the whole interval [-1, 1]: the
        # lower branch must hold for every selection
        b2 = -a
        lhs2 = np.abs(t * a + s * b2)
        base2 = np.abs(t) * a + np.abs(s) * b2
        for z_sel in (-1.0, 0.0, 1.0):
            assert np.all(lhs2 >= base2 * z_sel - 1e-9 * (1 + np.abs(base2)))

    def test_two_point_equality_cases(self):
        rng = np.random.default_rng(87)
        n = 10**4
        a, b, t = (rng.uniform(-3, 3, n) for _ in range(3))
        p = rng.uniform(1.0, 4.0, n)
        # t == s
        lhs = np.abs(t * a + t * b) ** p
        rhs = (np.abs(t) ** p * a + np.abs(t) ** p * b) * _phi(a + b, p)
        assert np.max(np.abs(lhs - rhs) / (1.0 + lhs)) < 1e-12
        # b == 0
        lhs0 = np.abs(t * a) ** p
        rhs0 = np.abs(t) ** p * a * _phi(a, p)
        assert np.max(np.abs(lhs0 - rhs0) / (1.0 + lhs0)) < 1e-12

    def test_difference_convexity_inequality(self):
        rng = np.random.default_rng(89)
        n = self.N
        a, b = rng.uniform(-3, 3, n), rng.uniform(-3, 3, n)
        sig = rng.choice((-1, 1), n)
        p = rng.uniform(1.0, 4.0, n)
        lhs = np.abs(a - sig * b) ** p
        rhs = 2.0 ** (p - 1) * np.abs(_phi(a, p) * np.abs(a)
                                      - sig * _phi(b, p) * np.abs(b))
        assert np.all(lhs <= rhs + 1e-9 * (1.0 + lhs + rhs))
        # equality when b = -sigma * a
        lhs_eq = np.abs(a - sig * (-sig * a)) ** p
        rhs_eq = 2.0 ** (p - 1) * np.abs(
            _phi(a, p) * np.abs(a) - sig * _phi(-sig * a, p) * np.abs(a)
        )
        assert np.max(np.abs(lhs_eq - rhs_eq) / (1.0 + lhs_eq)) < 1e-12

    def test_ratio_comparison_sign(self):
        rng = np.random.default_rng(91)
        n = self.N
        a1, a2, b1, b2 = (rng.uniform(-3, 3, n) for _ in range(4))
        p = rng.uniform(1.0, 4.0, n)
        ok = (np.abs(a1) > 1e-3) & (np.abs(a2) > 1e-3) & (np.abs(a1 + a2) > 1e-3)
        q = (np.abs(b1) ** p / _phi(a1, p)
             + np.abs(b2) ** p / _phi(a2, p)) * _phi(a1 + a2, p) \
            - np.abs(b1 + b2) ** p
        tol = 1e-9 * (1.0 + np.abs(q))
        same = ok & (a1 * a2 > 0)
        opposite = ok & (a1 * a2 < 0)
        assert same.sum() > n // 4 and opposite.sum() > n // 4
        assert np.all(q[same] >= -tol[same])
        assert np.all(q[opposite] <= tol[opposite])
        # equality on proportional pairs b = c * a
        c = rng.uniform(-2, 2, 10**4)
        aa, bb = a1[: 10**4], a2[: 10**4]
        pp = p[: 10**4]
        qe = (np.abs(c * aa) ** pp / _phi(aa, pp)
              + np.abs(c * bb) ** pp / _phi(bb, pp)) * _phi(aa + bb, pp) \
            - np.abs(c * (aa + bb)) ** pp
        assert np.max(np.abs(qe) / (1.0 + np.abs(c * (aa + bb)) ** pp)) < 1e-12


class TestOracleEquivalence:
    def test_eigensolver_vs_closed_form_roots(self):
        rng = np.random.default_rng(93)
        for n, closed in ((1, None), (2, sym2_eigs), (3, sym3_eigs)):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for states in product((0, 1, -1), repeat=len(pairs)):
                w = rng.uniform(0.5, 2.0, size=max(len(pairs), 1))
                kappa = rng.uniform(-1.0, 1.0, size=n)
                mu = rng.uniform(0.5, 2.0, size=n)
                edges = tuple(
                    (u, v, float(w[i]), state)
                    for i, ((u, v), state) in enumerate(zip(pairs, states))
                    if state != 0
                )
                g = SignedGraph(ids=tuple(str(i) for i in range(n)),
                                mu=tuple(map(float, mu)),
                                kappa=tuple(map(float, kappa)),
                                edges=edges)
                got = spectrum_p2(g).values
                dinv = 1.0 / np.sqrt(mu)
                m = dinv[:, None] * form_matrix(g) * dinv[None, :]
                if n == 1:
                    want = np.array([m[0, 0]])
                else:
                    want = closed(0.5 * (m + m.T))
                assert np.max(np.abs(got - want)) <= 1e-10

    def test_domain_counts_all_unsigned_graphs_up_to_five(self):
        # per graph, every pattern at once: one int8 block through the block
        # function behind the per-function API, against the closures run
        # on the stack of patterns
        for n in (2, 3, 4, 5):
            t = np.array(list(nonzero_patterns(n)), np.int8).T
            for g in all_unsigned_graphs(n):
                block = nodal._block(g, t)
                assert block.strong[0].tolist() == strong_count_oracle(g, t).tolist()
                assert block.weak[0].tolist() == weak_count_oracle(g, t).tolist()

    def test_domain_counts_signed_exhaustive_and_random(self):
        for n in (2, 3):
            patterns = list(nonzero_patterns(n))
            for g in all_signed_graphs(n):
                for f in patterns:
                    assert strong_domains(g, f)[0] == strong_count_oracle(g, f)
                    assert weak_domains(g, f)[0] == weak_count_oracle(g, f)
        rng = np.random.default_rng(95)
        for _ in range(300):
            g = random_graph(rng, int(rng.integers(4, 6)))
            f = np.array(rng.choice((-1.0, 0.0, 1.0), size=g.n))
            if not np.any(f):
                continue
            assert strong_domains(g, f)[0] == strong_count_oracle(g, f)
            assert weak_domains(g, f)[0] == weak_count_oracle(g, f)
