import json

import numpy as np
import pytest

from sgspec.graph import BalanceState, GraphError, balance_state, components
from sgspec.harness import (
    ALL_CHECKS,
    SuiteConfig,
    example_3_1_check,
    import_symmetric_matrix,
    random_signed_graph,
    run_suite,
)
from sgspec.spectra import form_matrix

from test_graph import random_graph


class TestRandomGraph:
    def test_deterministic(self):
        a = random_signed_graph(6, seed=7)
        b = random_signed_graph(6, seed=7)
        assert a == b
        assert a != random_signed_graph(6, seed=8)

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
