import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgspec import cheeger as cheeger_mod
from sgspec.cheeger import DEFAULT_CAPS, beta, cheeger_k, check_theorem41
from sgspec.cheeger import _cheeger_k_heuristic, _frustration_local_search, frustration_index
from sgspec.graph import GraphError, SignedGraph, balance_state, components, parse_graph, switch
from sgspec.graph import BalanceState, induced_subgraph, with_degree_measure
from sgspec.harness import MODELS, random_signed_graph
from sgspec.operators import rayleigh

from oracles import cheeger_h1_oracle, cheeger_k_oracle, cheeger_k_sequential
from test_graph import complete, path, random_graph, triangle
from test_spectra import _bench_ref, repro_graph

F = Fraction


def unbalanced_triangle():
    g = triangle((-1, 1, 1))
    return SignedGraph(ids=g.ids, mu=(2.0, 2.0, 2.0), kappa=g.kappa, edges=g.edges)


def random_zero_kappa(rng, n, density=0.7):
    g = random_graph(rng, n, density)
    return SignedGraph(ids=g.ids, mu=g.mu, kappa=tuple(0.0 for _ in range(n)),
                       edges=g.edges)


class TestBeta:
    def test_k5_boundary_only(self):
        assert beta(complete(5), [0, 1], []) == F(3, 4)

    def test_full_set_all_positive(self):
        assert beta(complete(4), [0, 1, 2, 3], []) == 0

    def test_internal_negative_edge_double_counted(self):
        g = unbalanced_triangle()
        # both endpoints of the negative edge on one side: 2w in the numerator
        assert beta(g, [0, 1, 2], []) == F(2, 6)

    def test_overlap_rejected(self):
        with pytest.raises(GraphError):
            beta(complete(3), [0, 1], [1])
        with pytest.raises(GraphError):
            beta(complete(3), [], [])

    def test_kappa_rejected(self):
        g = SignedGraph.build("ab", [("a", "b", 1, 1)], kappa=[1.0, 0.0])
        with pytest.raises(GraphError):
            beta(g, [0], [1])

    @pytest.mark.parametrize("v1, v2", [([-1], [0]), ([0], [-3]), ([3], []), ([0], [7]),
                                        ([1.0], []), (["a"], []), ([True], [0])])
    def test_bad_vertex_index_rejected(self, v1, v2):
        # -1 used to wrap to vertex n - 1 and 3 to raise a bare IndexError
        with pytest.raises(GraphError, match="vertex indices"):
            beta(complete(3), v1, v2)

    def test_numpy_int_indices_accepted(self):
        assert beta(complete(3), np.array([0, 1]), [np.int64(2)]) == beta(complete(3), [0, 1], [2])

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_equals_one_rayleigh_of_indicator_difference(self, seed):
        rng = np.random.default_rng(seed)
        g = random_zero_kappa(rng, int(rng.integers(2, 8)))
        labels = rng.integers(0, 3, size=g.n)  # 0 unused, 1 in V1, 2 in V2
        if not np.any(labels):
            labels[0] = 1
        v1 = [i for i in range(g.n) if labels[i] == 1]
        v2 = [i for i in range(g.n) if labels[i] == 2]
        f = np.where(labels == 1, 1.0, 0.0) - np.where(labels == 2, 1.0, 0.0)
        assert float(beta(g, v1, v2)) == pytest.approx(rayleigh(g, 1.0, f))


class TestFrustration:
    def test_balanced_zero_with_witness(self):
        rng = np.random.default_rng(31)
        g = random_zero_kappa(rng, 6)
        bal = balance_state(g)
        if bal.balancing_tau is None:
            tau = [int(t) for t in rng.choice((-1, 1), size=6)]
            g = switch(SignedGraph(ids=g.ids, mu=g.mu, kappa=g.kappa,
                                   edges=tuple((u, v, w, 1) for u, v, w, _ in g.edges)),
                       tau)
        val, tau, exact = frustration_index(g, range(6))
        assert val == 0 and exact
        # witness actually removes all violations
        for u, v, w, s in g.edges:
            assert tau[u] * s * tau[v] == 1

    def test_unbalanced_triangle(self):
        val, _, exact = frustration_index(triangle((-1, 1, 1)), [0, 1, 2])
        assert val == 2 and exact

    def test_k5_positive(self):
        assert frustration_index(complete(5), range(5))[0] == 0

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            frustration_index(complete(3), [])

    @pytest.mark.parametrize("omega", [[-1], [0, -2], [3], [0, 9], [0.0], ["0"], [False]])
    def test_bad_vertex_index_rejected(self, omega):
        # [-1] used to score vertex n - 1 and return tau keyed by -1
        with pytest.raises(GraphError, match="vertex indices"):
            frustration_index(complete(3), omega)

    def test_numpy_int_indices_accepted(self):
        g = triangle((-1, 1, 1))
        assert frustration_index(g, np.arange(3)) == frustration_index(g, [0, 1, 2])

    def test_heuristic_flagged(self):
        rng = np.random.default_rng(33)
        g = random_zero_kappa(rng, 26, density=0.2)
        with pytest.raises(GraphError, match="capped"):
            frustration_index(g, range(26))
        value, tau, exact = frustration_index(g, range(26), heuristic=True)
        assert not exact
        assert value == violated_twice(g, tau) > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_local_search_is_a_valid_bound(self, monkeypatch, seed):
        # within the cap, the local search's labeling against the exact index
        rng = np.random.default_rng(seed)
        g = random_zero_kappa(rng, int(rng.integers(4, 11)), density=0.6)
        omega = sorted({0, *(x for x in range(g.n) if rng.random() < 0.8)})
        exact_value, _, exact = frustration_index(g, omega)
        tau = _frustration_local_search(g, np.array(omega))
        assert exact and len(tau) == len(omega) and set(tau.tolist()) <= {-1, 1}
        monkeypatch.setattr(cheeger_mod, "FRUSTRATION_ENUM_CAP", 0)
        value, found, flagged = frustration_index(g, omega, heuristic=True)
        assert not flagged and found == dict(zip(omega, tau.tolist()))
        assert value == violated_twice(g, found) >= exact_value

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_beta_identity_on_full_bipartitions(self, seed):
        # min over bipartitions of Omega of beta == (iota + boundary) / vol
        rng = np.random.default_rng(seed)
        g = random_zero_kappa(rng, int(rng.integers(2, 7)))
        omega = [i for i in range(g.n) if rng.random() < 0.7] or [0]
        iota, _, _ = frustration_index(g, omega)
        bound = sum(F(w) for u, v, w, _ in g.edges if (u in omega) != (v in omega))
        vol = sum(F(g.mu[i]) for i in omega)
        best = min(
            beta(g, [x for x in omega if mask >> omega.index(x) & 1],
                 [x for x in omega if not mask >> omega.index(x) & 1])
            for mask in range(1 << len(omega))
        )
        assert best == (iota + bound) / vol


def violated_twice(g, tau):
    """Twice the weight of the edges inside tau's domain that tau leaves
    violated (tau_u sigma tau_v = -1), in Fractions."""
    return sum(2 * F(w) for u, v, w, s in g.edges
               if u in tau and v in tau and tau[u] * s * tau[v] < 0)


def assert_valid_family(g, res, k):
    """res names k disjoint nonempty groups whose pair values are their
    beta, and its value is the largest of them."""
    assert len(res.pairs) == len(res.pair_values) == k
    members = [x for v1, v2 in res.pairs for x in (*v1, *v2)]
    assert len(members) == len(set(members)) and all(v1 or v2 for v1, v2 in res.pairs)
    assert res.pair_values == tuple(beta(g, v1, v2) for v1, v2 in res.pairs)
    assert res.value == max(res.pair_values)


class TestCheegerK:
    def test_k5_values(self):
        g = complete(5)
        assert cheeger_k(g, 1).value == 0
        assert cheeger_k(g, 2).value == F(3, 4)
        assert cheeger_k(g, 3).value == F(1)

    def test_unbalanced_triangle_h1(self):
        res = cheeger_k(unbalanced_triangle(), 1)
        assert res.value == F(1, 3)
        v1, v2 = res.pairs[0]
        f = np.zeros(3)
        f[list(v1)] = 1.0
        f[list(v2)] = -1.0
        assert rayleigh(unbalanced_triangle(), 1.0, f) == pytest.approx(1 / 3)

    def test_disconnected_balanced_components(self):
        # two balanced components: h_1 = h_2 = 0 < h_3
        a = triangle()
        b = path(2)
        g = SignedGraph(
            ids=a.ids + tuple("p" + i for i in b.ids),
            mu=a.mu + b.mu,
            kappa=a.kappa + b.kappa,
            edges=a.edges + tuple((u + 3, v + 3, w, s) for u, v, w, s in b.edges),
        )
        assert cheeger_k(g, 1).value == 0
        assert cheeger_k(g, 2).value == 0
        assert cheeger_k(g, 3).value > 0

    def test_value_matches_reported_pairs(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            g = random_zero_kappa(rng, int(rng.integers(2, 7)))
            k = int(rng.integers(1, min(3, g.n) + 1))
            res = cheeger_k(g, k)
            assert res.exact
            assert len(res.pairs) == k
            assert max(res.pair_values) == res.value
            for (v1, v2), val in zip(res.pairs, res.pair_values):
                assert beta(g, v1, v2) == val

    def test_h1_against_subset_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            g = random_zero_kappa(rng, int(rng.integers(2, 8)))
            assert cheeger_k(g, 1).value == cheeger_h1_oracle(g)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_k(self, seed):
        rng = np.random.default_rng(seed)
        g = random_zero_kappa(rng, int(rng.integers(3, 7)))
        vals = [cheeger_k(g, k).value for k in range(1, min(g.n, 4) + 1)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    @given(st.integers(0, 2**8 - 1), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_switching_invariance(self, mask, seed):
        rng = np.random.default_rng(seed)
        g = random_zero_kappa(rng, 5)
        tau = [1 if mask >> i & 1 else -1 for i in range(5)]
        for k in (1, 2):
            assert cheeger_k(switch(g, tau), k).value == cheeger_k(g, k).value

    def test_zeros_count_balanced_components(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            g = random_zero_kappa(rng, int(rng.integers(2, 8)), density=0.4)
            bal_comps = sum(
                1 for comp in components(g)
                if balance_state(induced_subgraph(g, comp)).state
                in (BalanceState.BALANCED, BalanceState.BOTH)
            )
            vals = [cheeger_k(g, k).value for k in range(1, g.n + 1)
                    if k <= min(g.n, 3)]
            zeros = sum(1 for v in vals if v == 0)
            assert zeros == min(bal_comps, len(vals))

    def test_cap_and_heuristic(self):
        rng = np.random.default_rng(41)
        g = random_zero_kappa(rng, 11, density=0.4)
        with pytest.raises(GraphError, match="capped"):
            cheeger_k(g, 2)
        res = cheeger_k(g, 2, heuristic=True)
        assert not res.exact and res.subsets_scored == 0
        assert_valid_family(g, res, 2)

    @pytest.mark.parametrize("n", [14, 15, 16])
    def test_heuristic_at_k_equal_n(self, n):
        # a start's fix-up may empty a group it filled earlier; every start
        # must still give each group a vertex, or no start is feasible
        g = random_signed_graph(n, 0.4, seed=n, connected=True)
        res = cheeger_k(g, n, heuristic=True)
        assert not res.exact
        assert_valid_family(g, res, n)

    @pytest.mark.parametrize("seed", range(8))
    def test_heuristic_is_a_valid_upper_bound(self, seed):
        # within the caps, against the exact constant
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        model = MODELS[seed % len(MODELS)]
        g = with_mu(random_signed_graph(n, 0.6, model, seed=seed), "dyadic", rng)
        for k in range(1, min(n, 3) + 1):
            res = _cheeger_k_heuristic(g, k)
            assert not res.exact
            assert_valid_family(g, res, k)
            assert res.value >= cheeger_k(g, k).value

    def test_k_out_of_range(self):
        with pytest.raises(GraphError):
            cheeger_k(complete(3), 4)

    def test_blocks_bound_memory(self):
        # one block of labelings at a time: 0.3 MB here, 8 MB for the whole table at once
        g = random_signed_graph(10, 0.6, seed=0, connected=True)
        tracemalloc.start()
        try:
            cheeger_k(g, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def exact_ks(n):
    """Every k that ``cheeger_k`` enumerates exactly on n vertices."""
    return [k for k in range(1, n + 1) if n <= DEFAULT_CAPS.get(k, DEFAULT_CAPS[3])]


def with_mu(g, kind, rng):
    """g with unit (as drawn), weighted-degree or dyadic non-unit mu."""
    if kind == "degree":
        return with_degree_measure(g)
    if kind == "dyadic":
        mu = tuple(float(rng.choice((0.25, 0.5, 1.5, 2.0, 3.0))) for _ in range(g.n))
        return SignedGraph(g.ids, mu, g.kappa, g.edges)
    return g


def cycle(n, negative=0):
    """Unit-weight cycle with its first ``negative`` edges negative."""
    ids = [f"v{i}" for i in range(n)]
    return SignedGraph.build(ids, [(ids[i], ids[(i + 1) % n], 1.0, -1 if i < negative else 1)
                                   for i in range(n)])


def spread_weights(g, rng):
    """g with its weights spread over 1e-9 .. 1e9, so that its exact
    integers need Python ints."""
    scales = rng.permutation(np.logspace(-9, 9, len(g.edges)))
    return SignedGraph(g.ids, g.mu, g.kappa, tuple((u, v, float(rng.uniform(1, 2) * x), s)
                                                   for (u, v, _, s), x in zip(g.edges, scales)))


# the dtype of g.reduced_ints on the named graphs of both corpora below
PINNED_DTYPES = {"repro": np.int64, "repro-negated": np.int64, "wide-weights": object}


def sequential_corpus():
    """(name, graph) for the table-against-sequential check: n = 1..10 over
    the five signature models with unit, degree and dyadic mu; tie-heavy
    unit-weight complete graphs and cycles; the repro graph and its
    unbalanced copy, and a graph with weights spread over 1e-9 .. 1e9,
    scored in Python ints. n >= 8 spreads a support over several blocks of
    labelings."""
    rng = np.random.default_rng(53)
    corpus = []
    for n in range(1, 11):
        for model in MODELS:
            g = random_signed_graph(n, 0.6, model, seed=n, connected=n > 1)
            for kind in ("unit", "degree", "dyadic"):
                corpus.append((f"n{n}-{model}-{kind}", with_mu(g, kind, rng)))
    for n in range(3, 10):
        corpus += [(f"K{n}+", complete(n, 1, "unit")), (f"K{n}-", complete(n, -1, "unit"))]
    for n in range(3, 11):
        corpus += [(f"C{n}", cycle(n)), (f"C{n}-1", cycle(n, 1))]
    repro, _ = repro_graph()
    (u, v, w, _), *rest = repro.edges
    corpus += [("repro", repro),
               ("repro-negated", SignedGraph(repro.ids, repro.mu, repro.kappa, ((u, v, w, -1), *rest))),
               ("wide-weights", spread_weights(random_signed_graph(7, 0.8, seed=7, connected=True),
                                               rng))]
    return corpus


class TestAgainstSequential:
    """The labeling table and vectorized packing layers against the per-set
    ``_best_bipartition`` loop and the pure-Python submask DP: the same
    value, pairs (witness ties included), pair values and subset count."""

    @pytest.mark.parametrize("name, g", sequential_corpus(),
                             ids=lambda x: x if isinstance(x, str) else "")
    def test_identical_results(self, name, g):
        if name in PINNED_DTYPES:
            assert g.reduced_ints[0].dtype == PINNED_DTYPES[name]
        for k in exact_ks(g.n):
            assert cheeger_k(g, k) == cheeger_k_sequential(g, k), k

    @given(st.integers(1, 8), st.sampled_from(MODELS), st.sampled_from(("unit", "degree", "dyadic")),
           st.integers(0, 10**6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_identical_results_property(self, n, model, kind, seed, data):
        rng = np.random.default_rng(seed)
        g = with_mu(random_signed_graph(n, float(rng.uniform(0.2, 1.0)), model, seed=seed), kind, rng)
        k = data.draw(st.sampled_from(exact_ks(n)))
        assert cheeger_k(g, k) == cheeger_k_sequential(g, k)


class TestSlabs:
    def test_one_row_slabs_change_nothing(self, monkeypatch):
        # slabs of one grid row against the default ones, where a grid has
        # more than one row (n >= 8 puts several in a default slab)
        corpus = [(name, g) for name, g in sequential_corpus() if g.n >= 8]
        want = [[cheeger_k(g, k) for k in exact_ks(g.n)] for _, g in corpus]
        monkeypatch.setattr(cheeger_mod, "_SLAB", 1)
        for (name, g), results in zip(corpus, want):
            assert [cheeger_k(g, k) for k in exact_ks(g.n)] == results, name


class TestBenchReferences:
    """The exact h_1 and h_2 recorded for the ``exact-p1`` benchmark pools."""

    def test_cheeger_pool(self):
        entries = _bench_ref("exact-p1")["cheeger"]
        assert len(entries) == 16
        for e in entries:
            g = parse_graph(json.dumps(e["graph"]))
            assert [str(cheeger_k(g, k).value) for k in (1, 2)] == [e["h1"], e["h2"]], e["id"]

    def test_onelap_pool(self):
        entries = _bench_ref("exact-p1")["onelap"]
        assert len(entries) == 48
        for e in entries:
            assert str(cheeger_k(parse_graph(json.dumps(e["graph"])), 1).value) == e["h1"], e["id"]


def fraction_ranks(nums, dens):
    """Dense ranks of the fractions, through Fractions."""
    values = [F(int(a), int(b)) for a, b in zip(nums, dens)]
    distinct = sorted(set(values))
    return [distinct.index(v) for v in values]


class TestRanks:
    """``_ranks`` splits its keys into int64 columns when nums is int64 and
    bound**3 < 2**63, else it keys each fraction by one Python int."""

    @pytest.mark.parametrize("bound, int64", [(1, True), (10, True), (2**21 - 1, True),
                                              (2**21, False), (2**31, False), (2**40, False)])
    def test_int64_keys_equal_python_ints(self, monkeypatch, bound, int64):
        rng = np.random.default_rng(bound)
        dens = rng.integers(1, bound + 1, 300)
        nums = rng.integers(-2**62, 2**62, 300)
        nums[:60] = 0
        nums[60:120] = rng.integers(-3, 4, 60)
        # the same fractions in other terms, and neighbours 1 / (b (b - 1)) apart
        c = 2 if bound > 1 else 1
        nums[160:200] //= 2
        dens[160:200] = rng.integers(1, bound // c + 1, 40)
        nums[120:160], dens[120:160] = c * nums[160:200], c * dens[160:200]
        dens[200:240] = rng.integers(max(bound - 3, 1), bound + 1, 40)
        nums[200:240] = dens[200:240] - 1
        nums[240:280] = rng.integers(-5, 5, 40) * dens[240:280] + 1
        lexsorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: lexsorts.append(1) or lexsort(keys))
        got = cheeger_mod._ranks(nums, dens, bound)
        assert lexsorts == ([1] if int64 else [])
        want = fraction_ranks(nums, dens)
        assert got.tolist() == want
        assert cheeger_mod._ranks(nums.astype(object), dens.astype(object), bound).tolist() == want
        assert lexsorts == ([1] if int64 else [])

    def test_zero_numerators_past_the_int64_range(self):
        # bound**2 alone is past 2**62; every key is 0 or a small multiple of it
        bound = 2**32 + 1
        nums, dens = np.array([0, 0, 1, 0, -1, 1]), np.array([1, bound, bound, 5, 3, 2])
        assert cheeger_mod._ranks(nums, dens, bound).tolist() == fraction_ranks(nums, dens)


def oracle_corpus():
    """Seeded zero-kappa graphs for the brute-force oracles, n 3-5, as
    (kind, graph): dyadic non-unit mu, degree mu, the repro graph and an
    unbalanced copy (one edge negated; mu = 1e9 on three vertices), and
    weights spread over 1e-9 .. 1e9, whose scores need Python ints."""
    rng = np.random.default_rng(47)
    corpus = []
    for n in (3, 4, 5, 5):
        g = random_zero_kappa(rng, n, density=0.9)
        mu = tuple(float(rng.choice((0.25, 0.5, 1.5, 2.0, 3.0))) for _ in range(n))
        corpus.append(("dyadic-mu", SignedGraph(g.ids, mu, g.kappa, g.edges)))
    for n in (4, 5):
        corpus.append(("degree-mu", with_degree_measure(random_zero_kappa(rng, n, 0.9))))
    repro, _ = repro_graph()
    (u, v, w, _), *rest = repro.edges
    negated = SignedGraph(repro.ids, repro.mu, repro.kappa, ((u, v, w, -1), *rest))
    corpus += [("repro", repro), ("repro", negated)]
    for n in (4, 5):
        corpus.append(("wide-weights", spread_weights(random_zero_kappa(rng, n, density=0.9), rng)))
    return corpus


class TestAgainstOracles:
    @pytest.mark.parametrize("kind, g", oracle_corpus(),
                             ids=lambda x: x if isinstance(x, str) else "")
    def test_cheeger_k_equals_brute_force(self, kind, g):
        # the exact integer scores run in int64 or, when they may not fit, in Python ints
        assert g.reduced_ints[0].dtype == PINNED_DTYPES.get(kind, np.int64)
        assert cheeger_k_oracle(g, 1) == cheeger_h1_oracle(g)
        for k in range(1, min(3, g.n) + 1):
            res = cheeger_k(g, k)
            assert res.value == cheeger_k_oracle(g, k)
            for (v1, v2), val in zip(res.pairs, res.pair_values):
                assert beta(g, v1, v2) == val


class TestTheoremCheck:
    def test_k5_p1_k2(self):
        g = complete(5)
        rec = check_theorem41(g, 1.0, 2, 0.75, 2)
        assert rec["pass"]
        assert rec["h_k"] == pytest.approx(0.75)
        assert rec["upper"] == pytest.approx(0.75)

    def test_p2_single_edge(self):
        g = path(2)
        rec = check_theorem41(g, 2.0, 2, 2.0, 2)
        assert rec["pass"]
        assert rec["lower"] == pytest.approx(0.5)
        assert rec["upper"] == pytest.approx(2.0)

    def test_balanced_k1(self):
        rec = check_theorem41(triangle(), 2.0, 1, 0.0, 1)
        assert rec["pass"]
        assert rec["lower"] == 0.0 and rec["upper"] == 0.0

    @pytest.mark.parametrize("m, k", [(1, 1), (1, 3), (3, 2), (2, 2)])
    def test_one_table_for_h_m_and_h_k(self, monkeypatch, m, k):
        g = random_signed_graph(7, 0.6, "uniform", seed=3, connected=True)
        want = [float(cheeger_k(g, j).value) for j in (m, k)]
        passes = []
        grouped_min = cheeger_mod._grouped_min
        monkeypatch.setattr(cheeger_mod, "_grouped_min",
                            lambda n, *args: passes.append(n) or grouped_min(n, *args))
        rec = check_theorem41(g, 2.0, k, 1.0, m)
        assert [rec["h_m"], rec["h_k"]] == want
        # one pass for the table, one per packing layer j = 2..max(m, k)
        assert passes == [g.n] * max(m, k)

    def test_empty_graph_refused(self):
        # k and m are checked before the degree bound, whose max has no entry here
        with pytest.raises(GraphError, match="between 1 and n=0"):
            check_theorem41(SignedGraph.build([], []), 2.0, 1, 0.0, 1)

    @pytest.mark.parametrize("m, k, match", [(3, 1, "capped at n=8 for k=3"),
                                             (1, 11, "between 1 and n=10")])
    def test_caps_apply_to_both(self, m, k, match):
        with pytest.raises(GraphError, match=match):
            check_theorem41(random_signed_graph(10, 0.6, seed=0), 2.0, k, 1.0, m)


class TestConvexityInequality:
    @given(st.floats(-5, 5), st.floats(-5, 5),
           st.sampled_from((-1, 1)), st.floats(1.0, 4.0))
    @settings(max_examples=300, deadline=None)
    def test_fuzz(self, a, b, sigma, p):
        lhs = abs(a - sigma * b) ** p
        rhs = 2.0 ** (p - 1) * abs(
            abs(a) ** p * np.sign(a) - sigma * abs(b) ** p * np.sign(b)
        )
        assert lhs <= rhs + 1e-9 * (1.0 + lhs + rhs)
