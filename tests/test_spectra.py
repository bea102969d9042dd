from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgspec import spectra
from sgspec.graph import GraphError, SignedGraph, switch
from sgspec.harness import MODELS, random_signed_graph
from sgspec.operators import check_certificate_1lap, check_eigenpair_1lap
from sgspec.spectra import (
    extremal_p,
    form_matrix,
    one_lap_enumerate,
    smallest_positive_1lap,
    spectrum_p2,
    upper_bound_lambda_k,
)

from oracles import extremal_p_sequential, sym2_eigs, sym3_eigs
from test_graph import complete, path, random_graph, triangle

F = Fraction


class TestSpectrumP2:
    def test_p2_plus_edge(self):
        vals = spectrum_p2(path(2)).values
        assert np.allclose(vals, [0.0, 2.0], atol=1e-12)

    def test_p3_path(self):
        vals = spectrum_p2(path(3)).values
        assert np.allclose(vals, [0.0, 1.0, 3.0], atol=1e-12)

    def test_k5_normalized(self):
        spec = spectrum_p2(complete(5))
        assert np.allclose(spec.values, [0.0, 1.25, 1.25, 1.25, 1.25], atol=1e-12)
        assert [len(grp) for grp in spec.groups] == [1, 4]
        assert spec.multiplicity(2) == 4

    def test_empty_graph_has_no_groups(self):
        spec = spectrum_p2(SignedGraph((), (), (), ()))
        assert spec.values.shape == (0,)
        assert spec.groups == ()

    def test_mu_orthonormal_vectors(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(2, 8)))
            spec = spectrum_p2(g)
            gram = spec.vectors.T @ np.diag(g.mu_array()) @ spec.vectors
            assert np.allclose(gram, np.eye(g.n), atol=1e-9)

    def test_pairs_satisfy_eigen_equation(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(2, 8)))
            spec = spectrum_p2(g)
            lmat = form_matrix(g)
            for k in range(g.n):
                lhs = lmat @ spec.vectors[:, k]
                rhs = spec.values[k] * g.mu_array() * spec.vectors[:, k]
                assert np.allclose(lhs, rhs, atol=1e-8)

    @given(st.integers(0, 2**10 - 1), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_switching_invariance(self, mask, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 5)
        tau = [1 if mask >> i & 1 else -1 for i in range(5)]
        assert np.allclose(
            spectrum_p2(switch(g, tau)).values, spectrum_p2(g).values, atol=1e-9
        )

    def test_disjoint_union(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g1 = random_graph(rng, 3)
            g2 = random_graph(rng, 4)
            union = SignedGraph(
                ids=tuple(f"a{i}" for i in range(3)) + tuple(f"b{i}" for i in range(4)),
                mu=g1.mu + g2.mu,
                kappa=g1.kappa + g2.kappa,
                edges=g1.edges + tuple((u + 3, v + 3, w, s) for u, v, w, s in g2.edges),
            )
            expected = np.sort(np.concatenate([spectrum_p2(g1).values,
                                               spectrum_p2(g2).values]))
            assert np.allclose(spectrum_p2(union).values, expected, atol=1e-9)

    def test_eigh_vs_closed_form_roots(self):
        # all 2- and 3-vertex sign/edge patterns with a few weight choices
        rng = np.random.default_rng(8)
        for n, closed in ((2, sym2_eigs), (3, sym3_eigs)):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for states in product((0, 1, -1), repeat=len(pairs)):
                w = rng.uniform(0.5, 2.0, size=len(pairs))
                kappa = rng.uniform(-1.0, 1.0, size=n)
                edges = tuple(
                    (u, v, float(w[k]), st_)
                    for k, ((u, v), st_) in enumerate(zip(pairs, states))
                    if st_ != 0
                )
                g = SignedGraph(
                    ids=tuple(str(i) for i in range(n)),
                    mu=tuple(1.0 for _ in range(n)),
                    kappa=tuple(float(x) for x in kappa),
                    edges=edges,
                )
                got = spectrum_p2(g).values
                want = closed(form_matrix(g))
                assert np.max(np.abs(got - want)) <= 1e-10


class TestExtremalP:
    def test_p3_minus_edge(self):
        g = SignedGraph.build(["a", "b"], [("a", "b", 1.0, -1)])
        res = extremal_p(g, 3.0, restarts=4)
        assert res.converged_min and res.converged_max
        assert res.lambda_min == pytest.approx(0.0, abs=1e-9)
        assert res.lambda_max == pytest.approx(4.0, abs=1e-8)
        fmax = res.f_max / res.f_max[0]
        assert np.allclose(fmax, [1.0, 1.0], atol=1e-7)

    def test_p2_matches_exact_spectrum(self):
        rng = np.random.default_rng(10)
        for _ in range(6):
            g = random_graph(rng, int(rng.integers(3, 8)))
            spec = spectrum_p2(g)
            res = extremal_p(g, 2.0, restarts=3, seed=int(rng.integers(0, 2**31)))
            assert res.lambda_min == pytest.approx(spec.values[0], abs=1e-6)
            assert res.lambda_max == pytest.approx(spec.values[-1], abs=1e-6)

    def test_extremes_bracket_random_probes(self):
        from sgspec.operators import rayleigh

        rng = np.random.default_rng(12)
        g = random_graph(rng, 6)
        res = extremal_p(g, 2.5, restarts=4)
        for _ in range(100):
            f = rng.standard_normal(6)
            r = rayleigh(g, 2.5, f)
            assert res.lambda_min - 1e-8 <= r <= res.lambda_max + 1e-8

    def test_p_le_one_rejected(self):
        with pytest.raises(GraphError):
            extremal_p(path(2), 1.0)

    @pytest.mark.parametrize("kwargs", [
        {"p": float("inf")}, {"p": float("nan")}, {"p": 2.0, "restarts": -1},
        *({"p": 1.5, "step": v} for v in (0.0, -0.1, float("nan"), float("inf"))),
        *({"p": 1.5, "tol": v} for v in (0.0, -1e-9, float("nan"), float("inf"))),
        {"p": 1.5, "max_iter": 0}, {"p": 1.5, "max_iter": -3}])
    def test_bad_p_or_restarts_rejected(self, kwargs):
        with pytest.raises(GraphError):
            extremal_p(path(3), **kwargs)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            extremal_p(SignedGraph((), (), (), ()), 2.0)

    @pytest.mark.parametrize("model", MODELS)
    def test_matches_sequential_oracle(self, model):
        rng = np.random.default_rng(sum(map(ord, model)))
        for p in (1.5, 2.0, 3.0):
            g = random_signed_graph(int(rng.integers(3, 9)), 0.7, model,
                                    seed=int(rng.integers(0, 2**31)), connected=True)
            for restarts in (0, 8):
                seed = int(rng.integers(0, 2**31))
                got = extremal_p(g, p, restarts=restarts, seed=seed)
                want = extremal_p_sequential(g, p, restarts=restarts, seed=seed)
                for a, b in ((got.lambda_min, want.lambda_min), (got.lambda_max, want.lambda_max)):
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
                assert (got.converged_min, got.converged_max) == (want.converged_min,
                                                                 want.converged_max)
                assert [t["which"] for t in got.trace] == [t["which"] for t in want.trace]
                assert len(got.trace) == 2 * (restarts + 1)

    def test_trace_counts_steps_per_start(self):
        res = extremal_p(random_signed_graph(6, 0.7, "uniform", seed=3, connected=True), 3.0,
                         restarts=3, seed=5)
        assert [t["which"] for t in res.trace] == ["min"] * 4 + ["max"] * 4
        for t in res.trace:
            assert type(t["gradient_steps"]) is int and type(t["newton_steps"]) is int
            assert 0 <= t["gradient_steps"] <= 2000 and 0 <= t["newton_steps"] <= 50
        assert res.lockstep_steps == max(t["gradient_steps"] for t in res.trace) > 0

    def test_singular_newton_column_resumes(self, monkeypatch):
        g = random_signed_graph(6, 0.7, "antibalanced", seed=4, connected=True)
        clean = extremal_p(g, 3.0, restarts=2, seed=1)
        assert all(t["newton_steps"] > 0 and not t["resumed"] for t in clean.trace)
        solve, singles = np.linalg.solve, []

        def solve_with_first_singular(a, b):
            if a.ndim == 3:
                raise np.linalg.LinAlgError("a singular matrix in the stack")
            singles.append(a)
            if len(singles) == 1:  # column 0 in the first Newton step
                raise np.linalg.LinAlgError("singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve_with_first_singular)
        res = extremal_p(g, 3.0, restarts=2, seed=1)
        got, want = res.trace[0], clean.trace[0]
        assert got["resumed"] and got["residual"] <= 1e-9
        assert got["gradient_steps"] > want["gradient_steps"]
        assert abs(got["lambda"] - want["lambda"]) <= 1e-12 * abs(want["lambda"])
        assert res.trace[1:] == clean.trace[1:]
        assert res.converged_min and res.converged_max

    def test_resumed_column_equals_run_without_handoff(self, monkeypatch):
        g = random_signed_graph(7, 0.6, "uniform", seed=11, connected=True)
        newton, col = spectra._lockstep_newton, 5  # a random max start
        polished = []  # (f, lam) out of every Newton call

        def newton_failing_first_call(g, p, f, lam):
            out = newton(g, p, f, lam)
            polished.append(out[:2])
            if len(polished) == 2:  # the hand-off run's first call: leave col uncertified
                out[2][col], out[3][col] = np.inf, 0
            return out

        monkeypatch.setattr(spectra, "_lockstep_newton", newton_failing_first_call)
        monkeypatch.setattr(spectra, "HANDOFF", 0.0)
        plain = extremal_p(g, 1.5, restarts=3, seed=2)
        (f_plain, lam_plain), = polished
        monkeypatch.setattr(spectra, "HANDOFF", 1e-4)
        res = extremal_p(g, 1.5, restarts=3, seed=2)
        assert [f.shape[1] for f, _ in polished] == [8, 8, 1]
        assert [t["resumed"] for t in res.trace] == [j == col for j in range(8)]
        got, want = res.trace[col], plain.trace[col]
        for key in ("lambda", "residual", "gradient_steps"):
            assert got[key] == want[key]
        f_resumed, lam_resumed = polished[2]
        assert np.array_equal(f_resumed[:, 0], f_plain[:, col])
        assert lam_resumed[0] == lam_plain[col]
        assert got["residual"] <= 1e-9 and res.converged_min and res.converged_max

    def test_newton_stops_at_the_rounding_floor(self):
        # lambda_min = 0: Newton used to run every random min start to the
        # 50-step cap with residuals near 1e-27
        g = random_signed_graph(4, 0.7, "antibalanced", seed=0, connected=True)
        res = extremal_p(g, 3.0)
        assert all(t["newton_steps"] < 50 for t in res.trace)
        assert abs(res.lambda_min) <= 1e-12 and res.converged_min and res.converged_max

    @pytest.mark.parametrize("model", MODELS)
    def test_handoff_matches_full_gradient(self, model, monkeypatch):
        rng = np.random.default_rng(sum(map(ord, model)) + 9)
        cases = [(random_signed_graph(int(rng.integers(3, 9)), 0.6, model,
                                      seed=int(rng.integers(0, 2**31)), connected=True),
                  p, int(rng.integers(0, 2**31))) for p in (1.3, 1.8, 2.5, 4.0)]
        runs = []
        for handoff in (spectra.HANDOFF, 0.0):
            monkeypatch.setattr(spectra, "HANDOFF", handoff)
            runs.append([extremal_p(g, p, restarts=2, seed=seed) for g, p, seed in cases])
        for got, want in zip(*runs):
            for a, b in ((got.lambda_min, want.lambda_min), (got.lambda_max, want.lambda_max)):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
            assert (got.converged_min, got.converged_max) == (want.converged_min,
                                                             want.converged_max)


class TestUpperBound:
    def test_k5_p1_k2(self):
        g = complete(5)
        assert upper_bound_lambda_k(g, 1.0, 2) == pytest.approx(0.75)

    def test_k5_p2_k1(self):
        assert upper_bound_lambda_k(complete(5), 2.0, 1) == pytest.approx(0.0)

    def test_p3_p2_k2(self):
        g = path(3)
        bound = upper_bound_lambda_k(g, 2.0, 2)
        assert bound + 1e-9 >= spectrum_p2(g).values[1]

    def test_kappa_required_zero(self):
        g = SignedGraph.build(["a", "b"], [("a", "b", 1.0, 1)], kappa=[1.0, 0.0])
        with pytest.raises(GraphError):
            upper_bound_lambda_k(g, 2.0, 1)


def repro_graph():
    """Two support vertices whose fluxes a+b+c and c+b+a round apart in
    floats; the pattern (1, 1, 0, 0, 0) is an exact eigenpair."""
    k = 149451.3924888155
    a, b, c = 0.1 * k, 0.2 * k, 0.3 * k
    ids = ("x", "y", "z1", "z2", "z3")
    edges = [("x", "z1", a), ("x", "z2", b), ("x", "z3", c),
             ("y", "z1", c), ("y", "z2", b), ("y", "z3", a)]
    g = SignedGraph.build(ids, [(p, q, w, 1) for p, q, w in edges],
                          mu={"x": 1.0, "y": 1.0, "z1": 1e9, "z2": 1e9, "z3": 1e9})
    return g, F(a) + F(b) + F(c)


class TestOneLapEnumerate:
    def test_screen_keeps_pattern_with_rounding_apart_fluxes(self):
        g, lam = repro_graph()
        pattern = (1, 1, 0, 0, 0)
        assert check_eigenpair_1lap(g, lam, list(pattern)).verdict
        ols = one_lap_enumerate(g)
        assert any(pr.f == pattern and pr.lam == pr.lam_hi == lam for pr in ols.pairs)

    def test_p2_plus_edge(self):
        ols = one_lap_enumerate(path(2))
        found = {(pr.lam, pr.f) for pr in ols.pairs if pr.is_point}
        assert (F(0), (1, 1)) in found
        assert (F(1), (1, -1)) in found
        assert ols.lambda_1 == 0
        assert ols.lambda_2 == 1  # balanced, so the flag is set

    def test_k5_eigenvalues(self):
        ols = one_lap_enumerate(complete(5))
        for v in (F(0), F(3, 4), F(1)):
            assert v in ols.values
        assert ols.lambda_1 == 0
        assert ols.smallest_positive == F(3, 4)

    def test_unbalanced_triangle(self):
        g = triangle((-1, 1, 1))
        g = SignedGraph(ids=g.ids, mu=(2.0, 2.0, 2.0), kappa=g.kappa, edges=g.edges)
        ols = one_lap_enumerate(g)
        assert ols.lambda_1 == F(1, 3)
        assert ols.lambda_2 is None  # unbalanced: no flag
        assert any(pr.lam == F(1, 3) for pr in ols.pairs)

    def test_every_pair_reverifies(self):
        rng = np.random.default_rng(14)
        for _ in range(6):
            g = random_graph(rng, 5)
            ols = one_lap_enumerate(g)
            for pr in ols.pairs:
                if pr.is_point:
                    assert check_eigenpair_1lap(g, pr.lam, list(map(float, pr.f))).verdict

    def test_every_pattern_keeps_a_certificate_that_checks(self):
        rng = np.random.default_rng(14)
        for _ in range(6):
            g = random_graph(rng, 5)
            ols = one_lap_enumerate(g)
            patterns = [pr.f for pr in ols.pairs] + [f for f, _ in ols.rejections]
            assert sorted(patterns) == sorted(
                p for p in product((0, 1, -1), repeat=g.n) if next((t for t in p if t), 0) == 1)
            assert len(patterns) == ols.patterns_scanned
            for pr in ols.pairs:
                assert pr.witness.lam == pr.lam
                assert check_certificate_1lap(g, pr.f, pr.witness)
            assert all(check_certificate_1lap(g, f, cert) for f, cert in ols.rejections)

    def test_cap_enforced(self):
        g = SignedGraph.build([str(i) for i in range(13)], [])
        with pytest.raises(GraphError, match="capped"):
            one_lap_enumerate(g)


class TestSmallestPositive:
    def test_k5(self):
        assert smallest_positive_1lap(complete(5)) == F(3, 4)

    def test_unbalanced_triangle(self):
        g = triangle((-1, 1, 1))
        g = SignedGraph(ids=g.ids, mu=(2.0, 2.0, 2.0), kappa=g.kappa, edges=g.edges)
        assert smallest_positive_1lap(g) == F(1, 3)

    def test_disjoint_union(self):
        k5 = complete(5)
        tri = triangle((-1, 1, 1))
        union = SignedGraph(
            ids=k5.ids + tuple("t" + i for i in tri.ids),
            mu=k5.mu + (2.0, 2.0, 2.0),
            kappa=k5.kappa + tri.kappa,
            edges=k5.edges + tuple((u + 5, v + 5, w, s) for u, v, w, s in tri.edges),
        )
        assert smallest_positive_1lap(union) == F(1, 3)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(16)
        checked = 0
        for _ in range(12):
            g = random_graph(rng, int(rng.integers(2, 6)))
            ols = one_lap_enumerate(g)
            if ols.smallest_positive is None:
                continue
            assert smallest_positive_1lap(g) == ols.smallest_positive
            checked += 1
        assert checked >= 6
