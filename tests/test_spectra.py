import json
import math
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgspec import spectra
from sgspec.graph import GraphError, SignedGraph, parse_graph, switch, with_degree_measure
from sgspec.harness import MODELS, random_signed_graph
from sgspec.operators import _pattern_lambda, check_certificates_1lap
from sgspec.spectra import (
    extremal_p,
    form_matrix,
    one_lap_enumerate,
    smallest_positive_1lap,
    spectrum_p2,
    upper_bound_lambda_k,
)

import oracles
from oracles import (
    check_eigenpair_1lap_lp, extremal_p_sequential, lockstep_gradient_reference,
    pin_stage_reference, prefilter_lambda_box, sym2_eigs, sym3_eigs,
)
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
        {"p": 2.0, "seed": -1}, {"p": 2.0, "seed": 1.5}, {"p": 2.0, "seed": True},
        {"p": 2.0, "restarts": 2.5}, {"p": 2.0, "restarts": "2"}, {"p": 2.0, "restarts": True}])
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

    @pytest.mark.parametrize("model", ("uniform", "balanced", "antibalanced"))
    def test_max_side_alone_equals_extremal_p_bitwise(self, model):
        # restarts >= 1: at 0 the one max column sums its BB products in
        # another order (see spectra._extremes)
        k = MODELS.index(model)
        for i in range(8):
            g = random_signed_graph(4 + (i + 2 * k) % 7, 0.6, model, seed=10 * k + i,
                                    mu_mode=("unit", "degree")[(i + k) % 2], connected=True)
            p, restarts = (1.5, 2.0, 3.0)[(i + k) % 3], i + 1
            full = extremal_p(g, p, restarts=restarts, seed=i)
            alone = spectra._extremes(g, p, restarts, i, ("max",))
            assert (alone["lambda_max"], alone["residual_max"], alone["f_max"].tobytes(),
                    alone["converged_max"], alone["trace"]) == (
                full.lambda_max, full.residual_max, full.f_max.tobytes(), full.converged_max,
                full.trace[restarts + 1:]), (g.n, p, restarts)

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


def _bench_ref(workload):
    """The reference file of a benchmark workload, read only."""
    ref = Path(__file__).resolve().parents[1] / "bench" / "refs" / f"{workload}.json"
    return json.loads(ref.read_text())


def _bench_entries():
    """The entries of the ``extremal-p`` benchmark pool, read only: id, model,
    graph and the recorded lambda pair per p."""
    return _bench_ref("extremal-p")["graphs"]


def _bench_pool():
    """The graphs of the ``extremal-p`` benchmark pool."""
    return [parse_graph(json.dumps(e["graph"])) for e in _bench_entries()]


def _fused_corpus(group):
    """(graph, p, restarts, seed) cases: n from 3 to 10, the five signature
    models, unit and degree mu, p in {1.3, 1.5, 2, 3, 4}, restarts 0 and 8;
    a graph with a nonzero potential; the benchmark pool."""
    ps = (1.3, 1.5, 2.0, 3.0, 4.0)
    if group == "potential":
        g = random_signed_graph(7, 0.6, "uniform", seed=5, connected=True)
        g = SignedGraph(g.ids, g.mu, (0.5, -0.3, 0.0, 1.2, -0.0, 0.25, -1.0), g.edges)
        return [(g, p, restarts, 3) for p in ps for restarts in (0, 8)]
    if group == "pool":
        return [(g, p, 0, 0) for g in _bench_pool() for p in (1.5, 3.0)]
    k = MODELS.index(group)
    return [(random_signed_graph(3 + (i + k) % 8, 0.6, group, seed=100 * k + i,
                                 mu_mode=("unit", "degree")[i % 2], connected=True),
             ps[(i + k) % 5], (0, 8)[i // 2 % 2], i) for i in range(10)]


class TestFusedGradient:
    @pytest.mark.parametrize("group", (*MODELS, "potential", "pool"))
    def test_equals_the_reference_loop_bitwise(self, group, monkeypatch):
        def key(res):
            return (res.p, res.lambda_min, res.residual_min, res.lambda_max, res.residual_max,
                    res.converged_min, res.converged_max, res.trace, res.lockstep_steps,
                    res.f_min.tobytes(), res.f_max.tobytes())

        cases = _fused_corpus(group)
        fused = [key(extremal_p(g, p, restarts=r, seed=s)) for g, p, r, s in cases]
        monkeypatch.setattr(spectra, "_lockstep_gradient", lockstep_gradient_reference)
        for (g, p, r, s), got in zip(cases, fused):
            assert got == key(extremal_p(g, p, restarts=r, seed=s)), (g.n, p, r, s)


class TestBarzilaiBorweinStep:
    def test_pool_equals_its_references_in_fewer_steps(self):
        # the benchmark round is p = 3 on all twelve graphs and p = 1.5 on the
        # first three of each model; under the 1.2x-growth rule its 18 solves
        # took 2,361 lock-step iterations. Under BB they take about 1,030, but
        # the count follows the last bits of the BB dot products: scaling them
        # by a few ulps spread it from 949 to 1,185, and one start elsewhere
        # in the pool moved by 473 steps. The bound keeps 600 over the spread.
        steps = 0
        for e in _bench_entries():
            g = parse_graph(json.dumps(e["graph"]))
            for p in ("1.5", "3"):
                res = extremal_p(g, float(p), restarts=0)
                for got, want in zip((res.lambda_min, res.lambda_max), e["lambda"][p]):
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (e["id"], p)
                assert res.converged_min and res.converged_max, (e["id"], p)
                if p == "3" or int(e["id"][1:]) < 3:
                    steps += res.lockstep_steps
        assert steps <= 1800


def _start(g, p):
    """The state ``_extremes`` hands the gradient at restarts 0: the p = 2
    extreme eigenvectors, the minimum's first."""
    vecs = spectrum_p2(g).vectors
    f0 = spectra._normalize_p(g, p, np.column_stack([vecs[:, 0], vecs[:, -1]]))
    return (g, p, f0, spectra.rayleigh(g, p, f0), np.full(2, spectra.STEP),
            np.zeros(2, dtype=int), np.array([1.0, -1.0]), spectra.MAX_ITER, spectra.HANDOFF)


def _same_state(a, b):
    return all(np.shape(x) == np.shape(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()
               for x, y in zip(a, b))


class TestGradientReuse:
    def test_one_gradient_per_step_that_moved(self, monkeypatch):
        # the loop takes the gradient once, then again only after a step in
        # which some column accepted; the reference loop takes it every step,
        # and a step moved exactly when the iterate it is handed changes
        calls, iterates = [], []
        kernel, laplacian = spectra._eigen_terms, oracles.apply_p_laplacian
        monkeypatch.setattr(spectra, "_eigen_terms",
                            lambda *a: calls.append(1) or kernel(*a))
        monkeypatch.setattr(oracles, "apply_p_laplacian",
                            lambda g, p, f: iterates.append(f.tobytes()) or laplacian(g, p, f))
        kept = 0
        for g in _bench_pool():
            calls.clear()
            iterates.clear()
            got = spectra._lockstep_gradient(*_start(g, 1.5))
            assert _same_state(got, lockstep_gradient_reference(*_start(g, 1.5)))
            moved = sum(a != b for a, b in zip(iterates, iterates[1:]))
            assert len(calls) == 1 + moved
            kept += len(iterates) - len(calls)
        assert kept > 0  # some step moved no column, so the reuse ran

    def test_zero_trial_column_equals_the_reference(self):
        # column 0's trial f - eta grad is exactly zero: f stands in and the
        # trial is rejected, as is column 1's; both halve until they stall
        g = SignedGraph.build(["a", "b"], [("a", "b", 1.0, 1)], kappa=[1.0, 1.0])

        def state():
            return (g, 2.0, np.ones((2, 2)), np.array([0.5, 0.5]), np.array([1.0, 0.25]),
                    np.zeros(2, dtype=int), np.array([1.0, 1.0]), 2000, 1e-4)

        got = spectra._lockstep_gradient(*state())
        assert _same_state(got, lockstep_gradient_reference(*state()))
        assert got[3].tolist() == [50, 48] and not got[4].any()

    def test_trial_whose_scale_underflows_raises(self):
        # grad = 32 (1 - r) = 1, so the trial is 2^-50, nonzero, and its
        # 32nd power underflows: the scale is zero, as in the reference
        g = SignedGraph.build(["a"], [], kappa=[1.0])
        for loop in (spectra._lockstep_gradient, lockstep_gradient_reference):
            with pytest.raises(GraphError, match="zero function"):
                loop(g, 32.0, np.ones((1, 1)), np.array([0.96875]), np.array([1 - 2.0**-50]),
                     np.zeros(1, dtype=int), np.array([1.0]), 2000, 0.0)


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
        assert check_eigenpair_1lap_lp(g, lam, list(pattern))
        ols = one_lap_enumerate(g)
        assert any(pr.f == pattern and pr.lam == lam for pr in ols.pairs)

    def test_p2_plus_edge(self):
        ols = one_lap_enumerate(path(2))
        found = {(pr.lam, pr.f) for pr in ols.pairs}
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
                assert check_eigenpair_1lap_lp(g, pr.lam, list(map(float, pr.f)))

    def test_every_pattern_keeps_a_certificate_that_checks(self):
        rng = np.random.default_rng(14)
        kinds = set()
        for _ in range(6):
            g = random_graph(rng, 5)
            ols = one_lap_enumerate(g)
            kinds.update(kind for kind, t, *_ in ols.certificates if t.shape[1])
            patterns = [f for _, t, *_ in ols.certificates for f in zip(*t.tolist())]
            assert sorted(patterns) == sorted(
                p for p in product((0, 1, -1), repeat=g.n) if next((t for t in p if t), 0) == 1)
            assert len(patterns) == ols.patterns_scanned
            # the pairs are the witnessed (lambda, pattern) pairs, and a
            # witness holds Python ints alone
            witnessed = []
            for kind, t, *certs in ols.certificates:
                assert check_certificates_1lap(g, kind, t, *certs).all()
                if kind == "witness":
                    assert all(a.dtype == object and all(type(z) is int for z in a.flat)
                               for a in certs)
                    witnessed += zip(map(F, certs[0], certs[1]), zip(*t.tolist()))
            assert sorted(witnessed) == [(pr.lam, pr.f) for pr in ols.pairs]
        assert kinds == {"cut", "witness"}

    def test_exact_p1_pool_equals_its_references(self):
        # the 48 graphs of the exact-p1 benchmark: every eigenvalue and every
        # (lambda, pattern) pair as recorded, in the reference's vertex order
        entries = _bench_ref("exact-p1")["onelap"]
        assert len(entries) == 48
        for e in entries:
            ols = one_lap_enumerate(parse_graph(json.dumps(e["graph"])))
            want = e["onelap"]
            assert [str(v) for v in ols.values] == want["eigenvalues"], e["id"]
            for key in ("lambda_1", "lambda_2", "smallest_positive"):
                got = getattr(ols, key)
                assert want[key] == (None if got is None else str(got)), (e["id"], key)
            assert sorted([str(pr.lam), str(pr.lam), list(pr.f)] for pr in ols.pairs
                          ) == want["pairs"], e["id"]

    def test_cap_enforced(self):
        g = SignedGraph.build([str(i) for i in range(13)], [])
        with pytest.raises(GraphError, match="capped"):
            one_lap_enumerate(g)


def _enumerate_per_pattern(g):
    """The enumeration as one loop over the patterns in lead-first order, each
    through the exact screen, the pin stage's reference, then
    ``_pattern_lambda``: the reference for the block scan and the pin stage.
    Returns the pairs as (lambda, pattern), the values, the two counts and
    each rejected pattern's pi."""
    pairs, scanned, solved, cuts = [], 0, 0, {}
    patterns = ((0,) * lead + (1,) + tail for lead in range(g.n)
                for tail in product((0, 1, -1), repeat=g.n - lead - 1))
    for pattern in patterns:
        scanned += 1
        cert = prefilter_lambda_box(g, pattern)
        if cert is None:
            solved += 1
            cert = pin_stage_reference(g, pattern) or _pattern_lambda(g, pattern)
        if cert[0] == "witness":
            pairs.append((F(cert[1], cert[2]), pattern))
        else:
            cuts[pattern] = tuple(np.asarray(cert[1]).tolist())
    return sorted(pairs), sorted({lam for lam, _ in pairs}), scanned, solved, cuts


def _screen_corpus():
    """Graphs on which a float screen's bounds round, overflow or underflow:
    weights at and next to 1, decimal weights that do not add exactly,
    weights and mu near the ends of the float range, nonzero kappa, degree
    mu, the benchmark's repro graph, two graphs built to defeat a float
    screen without a finiteness guard or without an absolute margin term,
    and two whose bounds put the exact rank key at its bound."""
    rng = np.random.default_rng(2024)
    families = [
        ((1.0, 1 + 2.0**-52, 1 - 2.0**-52), (1.0,), (0.0,)),
        ((0.1, 0.2, 0.3), (1.0, 1e9, 1e-9), (0.0, 0.1)),
        ((1.0, 0.1, 0.2, 0.3, 1e300, 1e-300, 2.0**-1070), (1.0, 1e9, 1e-9, 1e300, 1e-300),
         (0.0, 0.5, -0.3)),
        ((1e300, 2.0**-1070, 1.0), (1e300, 1e-300), (0.0, 1e-300, -2.0)),
        ((1.0, 2.0, 3.0), (1.0, 2.0), (0.0, 1.0, -1.0, 3.0)),
    ]
    for i in range(80):
        weights, mus, kappas = families[i % len(families)]
        n = int(rng.integers(3, 8))
        edges = [(str(u), str(v), float(rng.choice(weights)), int(rng.choice((-1, 1))))
                 for u in range(n) for v in range(u + 1, n) if rng.random() < 0.7]
        g = SignedGraph.build([str(x) for x in range(n)], edges,
                              mu=[float(rng.choice(mus)) for _ in range(n)],
                              kappa=[float(rng.choice(kappas)) for _ in range(n)])
        yield g
        if np.isfinite(g.weighted_degrees()).all():
            yield with_degree_measure(g)
    yield repro_graph()[0]
    # At (x, z, w, y) = (1, 1, 0, 1), 2 w_xz overflows, so the float a_lo of
    # x is -inf while exactly lo_x / mu_x = -1e8 > hi_y / mu_y: only the
    # finiteness guard keeps the pattern from passing in the block.
    yield SignedGraph.build("xzwy", [("x", "z", 1e308, 1), ("y", "w", 1.0, 1)],
                            mu=[1e300, 1e300, 1.0, 1.0], kappa=[0.0, 0.0, 0.0, -1e9])
    # At the same pattern every bound of x, z and y underflows to 0, and so
    # does every margin but for its absolute term, while exactly
    # lo_x / mu_x > 0 = hi_y / mu_y: only that term keeps the pattern from
    # passing in the block.
    tiny = 2.0**-1070
    yield SignedGraph.build("xzwy", [("x", "z", tiny, 1), ("x", "w", 2 * tiny, 1),
                                     ("y", "w", tiny, 1)],
                            mu=[1e300, 1e300, 1.0, 1e300], kappa=[0.0, 0.0, 0.0, -tiny])
    # mu = B and B - 1 with B = 2^40 the largest denominator, so the rank key
    # is floor(v B^2). Where f_z = 0, the bounds (kappa + 1) / mu of x and y
    # are equal in the first graph; in the second they are 1 / B and
    # 1 / (B - 1), which differ by 1 / (B (B - 1)), just above 1 / B^2, and
    # which floor(v B) would tie.
    big = 2.0**40
    for kappa in ([big - 1, big - 2], [0.0, 0.0]):
        yield SignedGraph.build("xyz", [("x", "z", 1.0, 1), ("y", "z", 1.0, 1)],
                                mu=[big, big - 1, 1.0], kappa=[*kappa, 0.0])


class TestBlockScreen:
    def test_agrees_with_the_exact_screen(self):
        # every column's block decision and pi are the per-pattern screen's,
        # and every block rejection is a cut that checks
        outcomes = Counter()
        for g in _screen_corpus():
            for t, rejected, pi in spectra._screened_blocks(g):
                for f, rej, col in zip(zip(*t.tolist()), rejected.tolist(), pi.T.tolist()):
                    ref = prefilter_lambda_box(g, f)
                    assert rej == (ref is not None), (g, f)
                    assert tuple(col) == (ref[1] if rej else (0,) * g.n), (g, f)
                    outcomes["rejected" if rej else "passed"] += 1
                assert check_certificates_1lap(g, "cut", t[:, rejected], pi[:, rejected]).all(), g
        assert sum(outcomes.values()) >= 20000
        assert min(outcomes.values()) >= 100, outcomes

    def test_equals_the_per_pattern_loop(self):
        rng = np.random.default_rng(7)
        graphs = []
        for n in range(1, 10):
            g = random_signed_graph(n, 0.5, seed=n, connected=True)
            graphs += [g, with_degree_measure(g)] if n < 9 else [g]
            if n <= 7:
                graphs.append(random_graph(rng, n))
        for g in graphs:
            ols = one_lap_enumerate(g)
            pairs, values, scanned, solved, cuts = _enumerate_per_pattern(g)
            assert sorted((pr.lam, pr.f) for pr in ols.pairs) == pairs
            assert list(ols.values) == values
            assert (ols.patterns_scanned, ols.patterns_solved) == (scanned, solved)
            certified = Counter()
            for kind, t, *certs in ols.certificates:
                certified[kind] += t.shape[1]
                if kind == "cut":
                    assert all(cuts[f] == pi for f, pi in zip(zip(*t.tolist()), zip(*certs[0].tolist())))
            assert certified == {"cut": len(cuts), "witness": len(pairs)}
            assert certified.total() == scanned

    def test_empty_graph_refused_before_the_scan(self, monkeypatch):
        monkeypatch.setattr(spectra._cheeger, "_labelings", lambda n: pytest.fail("scanned"))
        with pytest.raises(GraphError, match="one_lap_enumerate needs at least one vertex"):
            one_lap_enumerate(SignedGraph.build([], []))


def products_take_python_ints(g) -> bool:
    """Whether the pin stage and the block checkers compare products in
    Python ints (dtype object) on g: A, B or A B reaches 2**62, with
    A = sum |kappa| + 2 sum w and B = sum mu, mu over its gcd and kappa and
    w over theirs."""
    mu, kappa, edges = g.scaled_ints
    w = [e[2] for e in edges]
    span = (sum(map(abs, kappa)) + 2 * sum(w)) // (math.gcd(*kappa, *w) or 1)
    total = sum(mu) // math.gcd(*mu)
    return max(span, total, span * total) >= 2**62


def _staged(g):
    """Yields ``(t, (rejected, pi))`` for the screen's survivors t of each
    block, as ``one_lap_enumerate`` runs the pin stage."""
    decide = spectra._pin_stage(g)
    for t, rejected, _ in spectra._screened_blocks(g):
        yield t[:, ~rejected], decide(t[:, ~rejected])


class TestPinStage:
    @staticmethod
    def _corpus():
        # the screen corpus (with its mu = 2**40 graphs), degree-mu graphs,
        # whose products need 100 bits and more, and an edgeless graph whose
        # sums of mu need Python ints while its fluxes are all 0
        yield from _screen_corpus()
        yield SignedGraph.build("ab", [], mu=[1.0, 2.0**70])
        for n in range(3, 8):
            yield with_degree_measure(random_signed_graph(n, 0.7, seed=n, connected=True))

    def test_agrees_with_the_per_pattern_decider(self):
        # exactly the reference's rejections and pi, by graph._labels: a
        # cut of capacity 0 where a component's pin differs from the
        # support's, on the least-labelled such component, else one at the
        # least zero vertex over its slack; no rejection of a pair, and
        # every rejection checks on its block
        seen = Counter()
        for g in self._corpus():
            seen["object" if products_take_python_ints(g) else "int64"] += 1
            for t, (rejected, pi) in _staged(g):
                for j, f in enumerate(zip(*t.tolist())):
                    ref = pin_stage_reference(g, f)
                    assert rejected[j] == (ref is not None), (g, f)
                    assert tuple(pi[:, j].tolist()) == (ref[1] if ref else (0,) * g.n), (g, f)
                    if ref is None:
                        seen["kept"] += 1
                    else:
                        assert _pattern_lambda(g, f)[0] != "witness", (g, f)
                        seen["support" if (pi[:, j] * t[:, j]).any() else "zero"] += 1
                assert check_certificates_1lap(g, "cut", t[:, rejected], pi[:, rejected]).all(), g
                # a zero vertex's cut is pi = -sgn(c_y) at y alone
                zero = rejected & ~(pi * t).any(axis=0)
                assert (abs(pi[:, zero]).sum(axis=0) == 1).all()
        assert min(seen.values()) >= 20, seen

    def test_block_checkers_agree_with_the_one_column_check(self):
        # on the stage's blocks and on forgeries of them (pi = sgn on the
        # whole support, pi negated), column by column: a column's verdict
        # in its block is its verdict on a block of one column
        outcomes = Counter()
        for g in list(self._corpus())[::6]:
            for t, (_, pi) in _staged(g):
                for name, certs in (("staged", pi), ("support", t), ("negated", -pi)):
                    block = check_certificates_1lap(g, "cut", t, certs)
                    for j in range(t.shape[1]):
                        one = check_certificates_1lap(g, "cut", t[:, j:j + 1], certs[:, j:j + 1])
                        assert one.tolist() == [block[j]], (g, t[:, j], certs[:, j])
                        outcomes[name, bool(block[j])] += 1
        # the staged cuts check, the forgeries never do
        assert set(outcomes) == {("staged", True), ("staged", False), ("support", False),
                                 ("negated", False)}
        assert min(outcomes.values()) >= 20, outcomes

    def test_reduced_ints_is_one_read_only_view(self):
        # scaled_ints over the gcds, built once, read-only, and in Python
        # ints exactly where products_take_python_ints says so
        for g in list(self._corpus())[::3]:
            mu, kappa, w, wide = g.reduced_ints
            assert g.reduced_ints is g.reduced_ints
            assert not any(a.flags.writeable for a in (mu, kappa, w))
            assert (wide is object) == products_take_python_ints(g), g
            smu, skappa, edges = g.scaled_ints
            sw = [e[2] for e in edges]
            dk = math.gcd(*skappa, *sw) or 1
            assert mu.tolist() == [m // math.gcd(*smu) for m in smu]
            assert (kappa.tolist(), w.tolist()) == ([k // dk for k in skappa], [x // dk for x in sw])
            assert mu.dtype == kappa.dtype == w.dtype

    def test_an_empty_block(self):
        rejected, pi = spectra._pin_stage(path(3))(np.zeros((3, 0), np.int8))
        assert rejected.shape == (0,) and pi.shape == (3, 0)


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
