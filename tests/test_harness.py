import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sgspec.cheeger
import sgspec.harness
from sgspec.graph import (BalanceState, GraphError, ParseError, balance_state, components,
                          serialize_graph)
from sgspec.harness import (
    ALL_CHECKS,
    SuiteConfig,
    example_3_1_check,
    import_symmetric_matrix,
    random_signed_graph,
    run_suite,
)
from sgspec.spectra import form_matrix

from oracles import random_signed_graph_reference
from test_graph import random_graph


class TestRandomGraph:
    def test_deterministic(self):
        a = random_signed_graph(6, seed=7)
        b = random_signed_graph(6, seed=7)
        assert a == b
        assert a != random_signed_graph(6, seed=8)

    @pytest.mark.parametrize("model", sgspec.harness.MODELS)
    def test_draws_equal_the_choice_reference(self, model):
        # the sign draw (-1, 1)[rng.integers(0, 2)] takes the same stream as
        # rng.choice((-1, 1)), so every graph is unchanged, byte for byte
        for n in (1, 2, 5, 9):
            for density in (0.3, 0.6, 1.0):
                for seed in (0, 3, 11):
                    for mu_mode in ("unit", "degree"):
                        for connected in (False, True):
                            args = (n, density, model, seed, mu_mode, connected)
                            assert (serialize_graph(random_signed_graph(*args))
                                    == serialize_graph(random_signed_graph_reference(*args)))

    def test_balanced_model(self):
        for seed in range(10):
            g = random_signed_graph(6, model="balanced", seed=seed, connected=True)
            assert balance_state(g).state in (BalanceState.BALANCED, BalanceState.BOTH)

    def test_antibalanced_model(self):
        for seed in range(10):
            g = random_signed_graph(6, model="antibalanced", seed=seed, connected=True)
            assert balance_state(g).state in (BalanceState.ANTIBALANCED,
                                              BalanceState.BOTH)

    def test_all_negative_model(self):
        g = random_signed_graph(5, density=1.0, model="all-negative", seed=1)
        assert all(s == -1 for _, _, _, s in g.edges)

    def test_degree_measure(self):
        g = random_signed_graph(6, density=1.0, model="uniform", seed=3,
                                mu_mode="degree")
        deg = np.zeros(6)
        for u, v, w, _ in g.edges:
            deg[u] += w
            deg[v] += w
        assert np.allclose(g.mu_array(), deg)

    def test_connected_flag(self):
        for seed in range(10):
            g = random_signed_graph(7, density=0.3, seed=seed, connected=True)
            assert len(components(g)) == 1

    def test_invalid_args(self):
        with pytest.raises(GraphError):
            random_signed_graph(0)
        with pytest.raises(GraphError):
            random_signed_graph(4, density=0.0)
        with pytest.raises(GraphError):
            random_signed_graph(4, model="weird")
        with pytest.raises(GraphError):
            random_signed_graph(4, mu_mode="volume")
        # one check per parameter: n a positive int, density a real in (0, 1]
        for n in (5.5, "5", True):
            with pytest.raises(GraphError, match="n must be"):
                random_signed_graph(n)
        for density in ("x", True, float("nan")):
            with pytest.raises(GraphError, match="density must be"):
                random_signed_graph(4, density=density)
        for kwargs in ({"model": ["uniform"]}, {"mu_mode": None}):
            with pytest.raises(GraphError, match="unknown"):
                random_signed_graph(4, **kwargs)
        for seed in (-1, 1.5, True, "3", None):
            with pytest.raises(GraphError, match="seed"):
                random_signed_graph(4, seed=seed)


class TestImportSymmetricMatrix:
    def test_ones_offdiag_integer_diagonal(self):
        n = 7
        a = np.ones((n, n))
        np.fill_diagonal(a, np.arange(1, n + 1))
        g, rec = import_symmetric_matrix(a)
        assert all(s == -1 and w == 1.0 for _, _, w, s in g.edges)
        assert len(g.edges) == n * (n - 1) // 2
        assert g.kappa == tuple(float(i - 6) for i in range(1, n + 1))
        assert rec["diagonal_shift"]["v1"] == -6.0

    def test_diagonal_matrix_is_edgeless(self):
        g, _ = import_symmetric_matrix(np.diag([1.0, -2.0, 3.0]))
        assert g.edges == ()
        assert g.kappa == (1.0, -2.0, 3.0)

    def test_single_edge_laplacian_roundtrip(self):
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        g, _ = import_symmetric_matrix(m)
        assert g.edges == ((0, 1, 1.0, 1),)
        assert g.kappa == (0.0, 0.0)
        assert np.array_equal(form_matrix(g), m)

    def test_form_matrix_roundtrip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 8)))
            m = form_matrix(g)
            g2, _ = import_symmetric_matrix(m)
            assert np.allclose(form_matrix(g2), m, atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(GraphError, match="symmetric"):
            import_symmetric_matrix([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(GraphError, match="square"):
            import_symmetric_matrix(np.zeros((2, 3)))


class TestDegenerateMatrixExample:
    def test_check_passes(self):
        rec = example_3_1_check()
        assert rec["pass"]
        assert rec["weak_counts"] == [1]
        assert rec["control_weak_counts"] == [2]
        assert not rec["degenerate"]


class TestSuiteConfig:
    def test_validation(self):
        with pytest.raises(GraphError):
            SuiteConfig(n_min=2)
        with pytest.raises(GraphError):
            SuiteConfig(n_min=6, n_max=5)
        with pytest.raises(GraphError):
            SuiteConfig(checks=("nodal-bounds", "nope"))
        with pytest.raises(GraphError):
            SuiteConfig(models=("weird",))
        with pytest.raises(GraphError):
            SuiteConfig(density=1.5)
        # an infinite tol passes every tolerance check vacuously; graph._tol
        # is the one check of a tol, as in check_eigenpair
        for bad in ({"tol": float("inf")}, {"tol": float("nan")}, {"tol": True},
                    {"tol": "1e-9"}, {"tol": -1e-9}, {"density": True},
                    {"density": float("nan")}):
            with pytest.raises(GraphError, match="finite real number"):
                SuiteConfig(**bad)

    def test_seed_has_the_one_seed_rule(self):
        # graph._seed decides, as for random_signed_graph: a numpy integer
        # seed runs and reports as the Python int it equals
        for bad in (True, -1, 1.5, "3", None):
            with pytest.raises(GraphError, match="seed"):
                SuiteConfig(seed=bad)
        cfg = SuiteConfig(seed=np.int64(3), trials=1, n_max=4, checks=("count-identity",))
        assert type(cfg.seed) is int
        same = SuiteConfig(seed=3, trials=1, n_max=4, checks=("count-identity",))
        assert run_suite(cfg).to_json() == run_suite(same).to_json()

    @pytest.mark.parametrize("key", ("trials", "n_min", "n_max"))
    def test_counts_have_the_seed_rule(self, key):
        # every count goes through graph._seed and reports as a Python int
        cfg = SuiteConfig(**{key: np.int64(5)})
        assert getattr(cfg, key) == 5 and type(getattr(cfg, key)) is int
        for bad in (True, False, 5.0, -5, "5", None):
            with pytest.raises(GraphError, match=f"{key} must be a non-negative int"):
                SuiteConfig(**{key: bad})
            with pytest.raises(ParseError, match=f"invalid suite config: {key}"):
                SuiteConfig.from_json(json.dumps({key: bad}))

    def test_from_json(self):
        cfg = SuiteConfig.from_json(json.dumps(
            {"seed": 3, "trials": 7, "checks": ["count-identity"],
             "p_list": [2.0, 3.0]}
        ))
        assert cfg.seed == 3 and cfg.trials == 7
        assert cfg.checks == ("count-identity",)
        assert cfg.p_list == (2.0, 3.0)
        # defaults survive
        assert cfg.n_min == 4 and cfg.n_max == 8


class TestRunSuite:
    def test_small_suite_all_pass(self):
        cfg = SuiteConfig(seed=1, trials=12, n_min=4, n_max=6,
                          models=("uniform", "balanced"))
        rep = run_suite(cfg)
        assert rep.ok, rep.failures
        for name in ALL_CHECKS:
            assert rep.aggregates[name]["failed"] == 0
        # every check either ran or was skipped with a stated reason
        for a in rep.aggregates.values():
            assert a["checked"] + a["skipped"] > 0

    def test_report_json_deterministic(self):
        cfg = SuiteConfig(seed=5, trials=6, checks=("count-identity", "onelap-h1"))
        assert run_suite(cfg).to_json() == run_suite(cfg).to_json()
        doc = json.loads(run_suite(cfg).to_json())
        assert doc["ok"]
        assert doc["config"]["seed"] == 5

    def test_skip_reasons_recorded(self):
        cfg = SuiteConfig(seed=2, trials=4, p_list=(3.0,),
                          checks=("nodal-bounds", "perron-frobenius"))
        rep = run_suite(cfg)
        agg = rep.aggregates["nodal-bounds"]
        assert agg["skipped"] == 4 and agg["checked"] == 0
        assert rep.aggregates["perron-frobenius"]["checked"] == 4

    def test_p1_records_skips(self):
        # p = 1 used to record nothing for these two checks: a vacuous pass
        rep = run_suite(SuiteConfig(trials=3, p_list=(1.0,),
                                    checks=("nodal-bounds", "cheeger-bounds")))
        for a in rep.aggregates.values():
            assert (a["checked"], a["skipped"]) == (0, 3)
            assert a["skip_reasons"] == {"interior eigenvalues uncertified for p=1.0": 3}

    def test_limits_come_from_the_caps(self, monkeypatch):
        # n = 9: onelap-h1 runs, within ONE_LAP_CAP, and cheeger-bounds
        # records a verdict exactly where k and m = S(f) are within the
        # exact Cheeger caps (k = 1 and 2 at n = 9), else a skip
        calls, real = [], sgspec.cheeger.check_theorem41

        def spy(g, p, k, lambda_k, m):
            calls.append((g.n, k, m))
            return real(g, p, k, lambda_k, m)

        monkeypatch.setattr(sgspec.cheeger, "check_theorem41", spy)
        rep = run_suite(SuiteConfig(seed=3, trials=4, n_min=9, n_max=9,
                                    checks=("cheeger-bounds", "onelap-h1")))
        assert rep.aggregates["onelap-h1"]["passed"] == 4
        agg = rep.aggregates["cheeger-bounds"]
        assert agg["checked"] == agg["passed"] == len(calls) and 1 <= len(calls) < 4
        assert agg["skip_reasons"] == {"n over exact Cheeger cap": 4 - len(calls)}
        assert all(n == 9 and sgspec.cheeger._refusal(n, k) is None
                   and sgspec.cheeger._refusal(n, m) is None for n, k, m in calls)

    def test_onelap_h1_enumerates_up_to_h1(self, monkeypatch):
        # the check bounds the enumeration at h_1 exactly, and its verdict
        # moves with the bound: at h_1 less the least gap of the spectrum
        # lambda_1 is not found (a failing bundle records it as null), and
        # against h_2 in place of h_1 the check fails as well
        cfg = SuiteConfig(seed=5, trials=6, n_max=7, models=("uniform", "balanced"),
                          mu_mode="degree", checks=("onelap-h1",))
        real, real_h, bounds = sgspec.harness.one_lap_enumerate, sgspec.cheeger.cheeger_k, []

        def spy(g, at_most=None):
            bounds.append((at_most, real_h(g, 1).value))
            ols = real(g, at_most=at_most)
            assert ols.pairs == tuple(pr for pr in real(g).pairs if pr.lam <= at_most)
            return ols

        monkeypatch.setattr(sgspec.harness, "one_lap_enumerate", spy)
        assert run_suite(cfg).aggregates["onelap-h1"]["passed"] == 6
        assert len(bounds) == 6 and all(b == h for b, h in bounds)

        def lowered(g, at_most=None):
            values = real(g).values
            return real(g, at_most=at_most - min(b - a for a, b in zip(values, values[1:])))

        monkeypatch.setattr(sgspec.harness, "one_lap_enumerate", lowered)
        rep = run_suite(cfg)
        assert rep.aggregates["onelap-h1"]["failed"] == 6
        failures = json.loads(rep.to_json())["failures"]
        assert len(failures) == 6 and all(f["lambda_1"] is None for f in failures)
        assert '"lambda_1": null' in rep.to_json()

        monkeypatch.setattr(sgspec.harness, "one_lap_enumerate", real)
        monkeypatch.setattr(sgspec.cheeger, "cheeger_k", lambda g, k: real_h(g, 2 if k == 1 else k))
        rep = run_suite(cfg)
        assert rep.aggregates["onelap-h1"]["failed"] == 6
        assert all(f["lambda_1"] != f["h_1"] for f in rep.failures)

    def test_zero_count_function_is_skipped(self):
        # trial 6 draws an all-zero function, which used to drop the trial
        rep = run_suite(SuiteConfig(seed=1, trials=50, n_min=4, n_max=4,
                                    checks=("count-identity",)))
        assert rep.aggregates["count-identity"] == {
            "checked": 49, "passed": 49, "failed": 0, "skipped": 1,
            "skip_reasons": {"drawn function is zero": 1}}


CHEAP_CHECKS = tuple(c for c in ALL_CHECKS if c != "perron-frobenius")


_P3_SKIP = {"interior eigenvalues uncertified for p=3.0": 6}
PINNED_AGGREGATES = {
    "nodal-bounds": {"checked": 30, "passed": 30, "failed": 0, "skipped": 6,
                     "skip_reasons": _P3_SKIP},
    "interlacing-edge": {"checked": 6, "passed": 6, "failed": 0, "skipped": 0,
                         "skip_reasons": {}},
    "interlacing-node": {"checked": 6, "passed": 6, "failed": 0, "skipped": 0,
                         "skip_reasons": {}},
    "count-identity": {"checked": 6, "passed": 6, "failed": 0, "skipped": 0,
                       "skip_reasons": {}},
    "surgery-preservation": {"checked": 6, "passed": 6, "failed": 0, "skipped": 0,
                             "skip_reasons": {}},
    "perron-frobenius": {"checked": 12, "passed": 12, "failed": 0, "skipped": 0,
                         "skip_reasons": {}},
    "cheeger-bounds": {"checked": 6, "passed": 6, "failed": 0, "skipped": 6,
                       "skip_reasons": _P3_SKIP},
    "onelap-h1": {"checked": 6, "passed": 6, "failed": 0, "skipped": 0, "skip_reasons": {}},
    "weak-balanced-two": {"checked": 6, "passed": 6, "failed": 0, "skipped": 0,
                          "skip_reasons": {}},
}
PINNED_DRAWS = [
    # trial 0
    ("graph", 6, "uniform", 183930185), ("count", 3), ("interlace", (0, 2)), ("interlace", 3),
    ("surgery", (0, 2)), ("graph", 6, "antibalanced", 371155109), ("extremal", 2.0, 1584494583),
    ("extremal", 3.0, 1625089671), ("cheeger", 6), ("graph", 6, "balanced", 1688352592),
    # trial 1
    ("graph", 6, "balanced", 543856843), ("count", 4), ("interlace", (0, 4)), ("interlace", 3),
    ("surgery", (0, 4)), ("graph", 6, "antibalanced", 1185222631), ("extremal", 2.0, 588994554),
    ("extremal", 3.0, 1248431236), ("cheeger", 5), ("graph", 6, "balanced", 1892879598),
    # trial 2
    ("graph", 6, "uniform", 54847055), ("count", 1), ("interlace", (0, 1)), ("interlace", 4),
    ("surgery", (0, 1)), ("graph", 6, "antibalanced", 164051112), ("extremal", 2.0, 1647019342),
    ("extremal", 3.0, 1466401919), ("cheeger", 1), ("graph", 6, "balanced", 1800229460),
    # trial 3
    ("graph", 4, "balanced", 220760492), ("count", 1), ("interlace", (0, 2)), ("interlace", 3),
    ("surgery", (0, 2)), ("graph", 4, "antibalanced", 405692993), ("extremal", 2.0, 343014290),
    ("extremal", 3.0, 1252158849), ("cheeger", 2), ("graph", 4, "balanced", 82170596),
    # trial 4
    ("graph", 4, "uniform", 1929272336), ("count", 3), ("interlace", (0, 3)), ("interlace", 1),
    ("surgery", (0, 3)), ("graph", 4, "antibalanced", 162628381), ("extremal", 2.0, 1461222060),
    ("extremal", 3.0, 625091484), ("cheeger", 2), ("graph", 4, "balanced", 190909109),
    # trial 5
    ("graph", 4, "balanced", 293503925), ("count", 1), ("interlace", (0, 1)), ("interlace", 3),
    ("surgery", (0, 1)), ("graph", 4, "antibalanced", 1697762437), ("extremal", 2.0, 1318449709),
    ("extremal", 3.0, 1233817519), ("cheeger", 2), ("graph", 4, "balanced", 400118259),
]


class TestCheckTable:
    @given(seed=st.integers(0, 200), n_max=st.sampled_from((4, 5)), trials=st.integers(1, 3),
           checks=st.sets(st.sampled_from(CHEAP_CHECKS), min_size=1),
           p_list=st.sets(st.sampled_from((1.0, 2.0, 3.0)), min_size=1))
    @settings(max_examples=30, deadline=None)
    @example(seed=65, n_max=5, trials=1, checks={"count-identity"}, p_list={2.0})
    def test_every_check_records_every_trial(self, seed, n_max, trials, checks, p_list):
        cfg = SuiteConfig(seed=seed, trials=trials, n_min=4, n_max=n_max,
                          models=("uniform", "balanced"), p_list=tuple(sorted(p_list)),
                          checks=tuple(sorted(checks)))
        for name, a in run_suite(cfg).aggregates.items():
            assert a["checked"] + a["skipped"] >= trials, (name, a)

    def test_pinned_aggregates_and_draws(self, monkeypatch):
        """Aggregates and the draws of every check, recorded with the former
        if-chain driver. The aggregates alone do not see a check that runs
        out of order; the draws it shifts do."""
        draws = []

        def spy(module, name, entry):
            real = getattr(module, name)

            def call(*args, **kwargs):
                draws.append(entry(*args, **kwargs))
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, call)

        h = sgspec.harness
        spy(h, "random_signed_graph", lambda n, d, model, seed, **_: ("graph", n, model, seed))
        spy(h, "nodal_quantities", lambda g, f: ("count", int(np.count_nonzero(f))))
        spy(h, "interlacing_check_p2",
            lambda g, steps, tol: ("interlace", steps[0].get("node", steps[0].get("edge"))))
        spy(h, "remove_edge", lambda g, p, f, e: ("surgery", tuple(e)))
        spy(h, "_extremes", lambda g, p, restarts, seed, sides: ("extremal", p, seed))
        spy(sgspec.cheeger, "check_theorem41", lambda g, p, k, lam, m: ("cheeger", k))
        checks = ("nodal-bounds", "interlacing-edge", "interlacing-node", "count-identity",
                  "surgery-preservation", "perron-frobenius", "cheeger-bounds", "onelap-h1",
                  "weak-balanced-two")
        rep = run_suite(SuiteConfig(seed=3, trials=6, n_min=4, n_max=6,
                                    models=("uniform", "balanced"), p_list=(2.0, 3.0),
                                    checks=checks))
        assert rep.aggregates == PINNED_AGGREGATES
        assert draws == PINNED_DRAWS


BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_perron_frobenius_keeps_the_benchmark_verdicts(monkeypatch):
    """Each ``verify-suite`` benchmark config, run on perron-frobenius alone
    as the benchmark runs it, gives the aggregates recorded in its pool;
    ``bench/workloads.py`` and the pool are read, never written."""
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its sibling inputs
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    pool = json.loads((BENCH / "refs" / "verify-suite.json").read_text())["configs"]
    assert len(pool) == 8
    for e in pool:
        cfg = workloads.verify_config(e["n"], e["k"], "perron-frobenius")
        rep = run_suite(SuiteConfig.from_json(json.dumps(cfg)))
        assert rep.aggregates == {"perron-frobenius": e["aggregates"]["perron-frobenius"]}, e["n"]
