import hashlib
import math

import numpy as np
import pytest
from hypothesis import given

from conftest import (SHUFFLED_RING_EDGES, edge_lists, neighbor_sets, random_connected_graph,
                      with_a_degree_zero_node)
from linkpred import datasets, walks
from linkpred.graph import Graph
from linkpred.rwr import build_transition
from linkpred.walks import WalkParams, build_alias_table, generate_corpus, sorted_neighbors

ALIAS_SETTINGS = [(0.25, 4.0), (1.0, 1.0), (4.0, 0.25)]


def _raw_weights(g, prev, curr, p, q):
    """Unnormalized node2vec weights of curr's neighbors after the move prev -> curr,
    straight from the transition-rule table."""
    nbrs = neighbor_sets(g)
    weights = {}
    for w in nbrs[curr]:
        if w == prev:
            weights[w] = 1 / p
        elif w in nbrs[prev]:
            weights[w] = 1.0
        else:
            weights[w] = 1 / q
    return weights


def _expected_distribution(g, prev, curr, p, q):
    """Independent reweighting straight from the transition-rule table."""
    weights = _raw_weights(g, prev, curr, p, q)
    total = sum(weights.values())
    return {w: weight / total for w, weight in weights.items()}


def _move_bound(g, bound, prev, curr):
    """The entry of ``bound`` for the move prev -> curr (dense indices)."""
    indptr, targets = sorted_neighbors(g)
    return bound[indptr[prev] + targets[indptr[prev]:indptr[prev + 1]].tolist().index(curr)]


def _moves(g):
    """Every directed move (prev, curr) of ``g`` in dense indices, both orientations."""
    return [tuple(move) for move in np.concatenate((g.edges, g.edges[:, ::-1])).tolist()]


def _triples(corpus):
    """(prev, curr, next) rows of every two consecutive steps of ``corpus``."""
    return np.lib.stride_tricks.sliding_window_view(np.array(corpus), 3, axis=1).reshape(-1, 3)


def _steps_after(triples, prev, curr):
    """Every node a walker takes right after the move prev -> curr.

    By the Markov property of (prev, curr) these are independent draws from
    the step's law, wherever in a walk the move falls.
    """
    return triples[(triples[:, 0] == prev) & (triples[:, 1] == curr), 2]


def _transitions(corpus):
    """(from, to) rows of every step of ``corpus``."""
    walks = np.array(corpus)
    return np.column_stack((walks[:, :-1].ravel(), walks[:, 1:].ravel()))


class TestAliasTable:
    """``build_alias_table`` gives each directed move the largest weight of its next step."""

    def test_g1_entry_exact(self, g1):
        # move (0,1): N(1)={0,2,3}; 0 is the previous node, 2 is a mutual
        # neighbor, 3 is not adjacent to 0 -> weights [1/p, 1, 1/q]
        cases = [(1.0, 2.0, 1.0), (1.0, 0.5, 2.0), (0.25, 2.0, 4.0), (4.0, 2.0, 1.0)]
        for p, q, expected in cases:
            assert _move_bound(g1, build_alias_table(g1, p, q), 0, 1) == expected

    def test_uniform_weights_prob_all_one(self):
        # triangle with p=q=1: every weight is 1, so every proposal is kept
        bound = build_alias_table(Graph([(0, 1), (0, 2), (1, 2)]), p=1.0, q=1.0)
        assert bound.tolist() == [1.0] * 6

    def test_single_edge_point_mass(self):
        # the only next move goes back, whatever q is
        for q in (1.0, 1e-300):
            assert build_alias_table(Graph([(0, 1)]), 0.5, q).tolist() == [2.0, 2.0]

    def test_covers_both_orientations(self, g1):
        # one float entry per directed move, at its position in sorted_neighbors' targets
        indptr, targets = sorted_neighbors(g1)
        bound = build_alias_table(g1, 1.0, 1.0)
        sources = np.repeat(np.arange(g1.num_nodes), np.diff(indptr))
        assert bound.shape == (2 * g1.num_edges,)
        assert bound.dtype == np.float64
        assert sorted(zip(sources.tolist(), targets.tolist())) == sorted(_moves(g1))

    @pytest.mark.parametrize("p,q", [(0.0, 1.0), (1.0, -2.0), (math.inf, math.inf),
                                     (math.nan, 1.0), (1.0, math.nan), (1e-310, 1.0),
                                     (1.0, 1e-310)])
    def test_invalid_p_q(self, g1, p, q):
        with pytest.raises(ValueError):
            build_alias_table(g1, p, q)

    @pytest.mark.parametrize("p", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("q", [0.25, 1.0, 4.0])
    def test_reconstruction_identity_g1(self, g1, p, q):
        # the bound, built from degree and common-neighbor counts, is the
        # brute-force maximum of the move's raw weights
        bound = build_alias_table(g1, p, q)
        for prev, curr in _moves(g1):
            weights = _raw_weights(g1, prev, curr, p, q)
            assert _move_bound(g1, bound, prev, curr) == max(weights.values())

    @given(edge_lists())
    def test_reconstruction_identity_random(self, pairs):
        # the oracle speaks node ids, the table dense indices
        g = Graph(pairs)
        ids = g.nodes.tolist()
        for p, q in ALIAS_SETTINGS + [(1e-300, 1.0), (1.0, 1e-300), (1e-308, 2e-308)]:
            bound = build_alias_table(g, p, q)
            for prev, curr in _moves(g):
                weights = _raw_weights(g, ids[prev], ids[curr], p, q)
                assert _move_bound(g, bound, prev, curr) == max(weights.values())


class TestExtremeWeights:
    """Walks at settings where one global bound would stall or a weight sum overflow."""

    def test_tiny_q_on_k4_stays_uniform(self):
        from scipy.stats import chisquare

        # every neighbor of a K4 move's target is the previous node or a
        # mutual neighbor, so no move has a 1/q = 1e300 weight to bound
        g = Graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert build_alias_table(g, 1.0, 1e-300).tolist() == [1.0] * 12
        corpus = generate_corpus(g, WalkParams(20, 500, q=1e-300), seed=2)
        nxt = _steps_after(_triples(corpus), 0, 1)
        assert set(nxt.tolist()) == {0, 2, 3}
        assert chisquare(np.bincount(nxt)[[0, 2, 3]]).pvalue > 0.001

    def test_tiny_p_always_returns(self):
        corpus = generate_corpus(datasets.usair_like(), WalkParams(8, 1, p=1e-300), seed=4)
        walks = np.array(corpus)
        assert np.array_equal(walks[:, 2:], walks[:, :-2])

    def test_tiny_p_and_q_walk_runs(self, g1):
        # 1/p = 1e308 and 1/q = 5e307: no weight sum is formed, so none overflows
        assert np.all(np.isfinite(build_alias_table(g1, 1e-308, 2e-308)))
        corpus = generate_corpus(g1, WalkParams(10, 2, p=1e-308, q=2e-308), seed=0)
        assert len(corpus) == 2 * g1.num_nodes
        assert corpus.shape == (2 * g1.num_nodes, 11) and corpus.dtype == np.int64
        assert corpus[:, 0].tolist() == list(range(g1.num_nodes)) * 2
        for walk in corpus:
            assert all(g1.adjacency_matrix[a, b] for a, b in zip(walk, walk[1:]))


def test_generate_corpus_calls_the_module_level_table(g1, monkeypatch):
    # the benchmark times the table by patching walks.build_alias_table, so
    # generate_corpus must look it up there, once per weighted corpus
    calls = []

    def spy(*args):
        calls.append(args)
        return build_alias_table(*args)

    monkeypatch.setattr(walks, "build_alias_table", spy)
    generate_corpus(g1, WalkParams(5, 2, p=0.5, q=2.0), seed=0)
    assert len(calls) == 1
    generate_corpus(g1, WalkParams(5, 2, mode="restart"), seed=0)
    assert len(calls) == 1


class TestAliasDraw:
    """The second and later steps of an alias-mode corpus draw from the table."""

    def test_point_mass(self):
        nxt = _steps_after(_triples(generate_corpus(Graph([(0, 1)]), WalkParams(4, 50), 0)), 0, 1)
        assert len(nxt) > 0
        assert np.all(nxt == 0)

    def test_frequencies_match_distribution(self, g1):
        corpus = generate_corpus(g1, WalkParams(20, 2000, p=1.0, q=2.0), seed=1)
        nxt = _steps_after(_triples(corpus), 0, 1)
        for node, mass in _expected_distribution(g1, 0, 1, 1.0, 2.0).items():
            sigma = math.sqrt(mass * (1 - mass) / len(nxt))
            assert abs(np.mean(nxt == node) - mass) < 4 * sigma

    def test_uniform_three_way_chi_square(self):
        from scipy.stats import chisquare

        g = Graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])  # K4
        # move (0,1): N(1) = {0,2,3}, all mutual -> uniform
        nxt = _steps_after(_triples(generate_corpus(g, WalkParams(20, 2000), seed=2)), 0, 1)
        assert set(nxt.tolist()) == {0, 2, 3}
        assert chisquare(np.bincount(nxt)[[0, 2, 3]]).pvalue > 0.001

    @pytest.mark.parametrize("p,q", ALIAS_SETTINGS)
    def test_one_step_chi_square(self, g1, p, q):
        from scipy.stats import chisquare

        # every move of g1 into a node of degree >= 2, against the exact node2vec law
        triples = _triples(generate_corpus(g1, WalkParams(20, 2000, p=p, q=q), seed=3))
        for prev, curr in _moves(g1):
            expected = _expected_distribution(g1, prev, curr, p, q)
            if len(expected) < 2:
                continue
            nxt = _steps_after(triples, prev, curr)
            assert set(nxt.tolist()) <= expected.keys()
            nodes = sorted(expected)
            observed = [np.count_nonzero(nxt == node) for node in nodes]
            wanted = [expected[node] * len(nxt) for node in nodes]
            assert chisquare(observed, wanted).pvalue > 1e-4, (prev, curr)


class TestWeightedWalk:
    def test_single_edge_alternates(self):
        corpus = generate_corpus(Graph([(0, 1)]), WalkParams(10, 1), seed=0)
        assert corpus.tolist() == [[0, 1] * 5 + [0], [1, 0] * 5 + [1]]

    def test_length_one(self, g1):
        adjacency = neighbor_sets(g1)
        for x, y in generate_corpus(g1, WalkParams(1, 3), seed=5):
            assert y in adjacency[x]

    def test_steps_out_of_node1_uniform(self, g1):
        # with p=q=1 every transition out of node 1 is uniform over N(1)
        moves = _transitions(generate_corpus(g1, WalkParams(80, 2000), seed=3))
        out_of_1 = moves[moves[:, 0] == 1, 1]
        for node in (0, 2, 3):
            assert abs(np.mean(out_of_1 == node) - 1 / 3) < 0.01

    def test_transitions_have_positive_weight(self, g1):
        adjacency = neighbor_sets(g1)
        for walk in generate_corpus(g1, WalkParams(30, 1, p=4.0, q=0.25), seed=4):
            for prev, curr, nxt in zip(walk, walk[1:], walk[2:]):
                assert nxt in adjacency[curr]
                assert _expected_distribution(g1, prev, curr, 4.0, 0.25)[nxt] > 0


def _restart(length, walks_per_node, c):
    return WalkParams(length, walks_per_node, c=c, mode="restart")


class TestRestartWalk:
    def test_c_zero_stays_home(self, g1):
        corpus = generate_corpus(g1, _restart(5, 1, 0.0), seed=0)
        assert corpus.tolist() == [[x] * 6 for x in range(g1.num_nodes)]

    def test_c_one_pure_walk(self):
        corpus = generate_corpus(Graph([(0, 1)]), _restart(6, 1, 1.0), seed=0)
        assert corpus.tolist() == [[0, 1, 0, 1, 0, 1, 0], [1, 0, 1, 0, 1, 0, 1]]

    def test_composition_invariant(self, g1):
        adjacency = neighbor_sets(g1)
        for walk in generate_corpus(g1, _restart(50, 1, 0.6), seed=6):
            for prev, nxt in zip(walk, walk[1:]):
                assert nxt == walk[0] or nxt in adjacency[prev]

    def test_restart_frequency_on_star(self):
        # a walker that started at the center is at the center again right
        # after it left the center iff that step restarted: frequency 1 - c
        g = Graph([(0, i) for i in range(1, 5)])
        for c in (0.2, 0.7):
            walks = np.array(generate_corpus(g, _restart(200, 100, c), seed=7))
            moves = _transitions(walks[walks[:, 0] == 0])
            back = moves[moves[:, 0] == 0, 1] == 0
            sigma = math.sqrt(c * (1 - c) / len(back))
            assert abs(back.mean() - (1 - c)) < 4 * sigma, c

    def test_step_law_is_the_rwr_recursion(self):
        # At step s a restart walker from x is at pi_s = c P^T pi_{s-1} + (1 - c) e_x,
        # pi_0 = e_x: the walk whose limit is column x of the RWR resolvent.
        from scipy.stats import chisquare

        g, c, s, r = random_connected_graph(12, 20, 3), 0.7, 3, 4000
        n = g.num_nodes
        pi = np.eye(n)
        for _ in range(s):
            pi = c * build_transition(g).T @ pi + (1 - c) * np.eye(n)
        walks = np.array(generate_corpus(g, _restart(s, r, c), seed=11))
        for x in range(n):
            observed = np.bincount(walks[walks[:, 0] == x, s], minlength=n)
            reach = pi[:, x] > 0
            assert not observed[~reach].any(), x
            assert chisquare(observed[reach], r * pi[reach, x]).pvalue > 1e-4, x


class TestGenerateCorpus:
    def test_counts_and_lengths(self):
        g = Graph([(i, (i + 1) % 30) for i in range(30)])
        params = WalkParams(length=7, walks_per_node=10)
        corpus = generate_corpus(g, params, seed=0)
        assert len(corpus) == 300
        assert all(len(walk) == 8 for walk in corpus)

    def test_restart_c_zero_constant_walks(self, g1):
        params = WalkParams(length=4, walks_per_node=2, c=0.0, mode="restart")
        corpus = generate_corpus(g1, params, seed=0)
        for walk in corpus.tolist():
            assert walk == [walk[0]] * 5

    def test_deterministic(self, g1):
        params = WalkParams(length=10, walks_per_node=3, p=0.5, q=2.0)
        first, second = (generate_corpus(g1, params, seed=9) for _ in range(2))
        assert first.tolist() == second.tolist()

    def test_start_node_order(self, g1):
        params = WalkParams(length=2, walks_per_node=2)
        corpus = generate_corpus(g1, params, seed=1)
        starts = [walk[0] for walk in corpus]
        assert starts == list(range(g1.num_nodes)) * 2


# sha256 of repr(generate_corpus(g, params, seed=0)) mapped through g.nodes to
# node ids. They pin the lockstep draw order: one Generator, one round per
# step over all r·n walkers, a uniform column each and then (after a weighted
# walker's first step, or for a restart walker) one uniform each; the weighted
# walkers whose column is rejected then draw a new column each and a new
# uniform each, in walker order, round after round until none is left. A
# change of that order changes the corpora, though not their law; re-record
# them only with it.
CORPUS_PARAMS = {
    "alias_p0.5_q2": WalkParams(12, 2, p=0.5, q=2.0),
    "uniform": WalkParams(10, 1),
    "restart_c0.7": WalkParams(20, 2, c=0.7, mode="restart"),
}
CORPUS_SHA256 = {
    ("chesapeake_like", "alias_p0.5_q2"):
        "bb27a9c10048307af06e0cf97dae9b81be9ba2922816e8f20b46a3e344f3f0b5",
    ("chesapeake_like", "uniform"):
        "6eadfbe7a8e8690c1cd09efcb8664c017c70a10f31893a48f860f45c5da494ea",
    ("chesapeake_like", "restart_c0.7"):
        "fc34f1acffad61d6525978bbde202bcfb9a09c58d5dd2eb5b6349a7cbca19460",
    ("embedding_benchmark_graph", "alias_p0.5_q2"):
        "948b9117fcfab5c64284bc527cff117c51618300403080a7427eb74a95557a16",
    ("embedding_benchmark_graph", "uniform"):
        "176b8eb469f6400985e46ba83fcdfadf550a3d67e22d531490213f0f3f41af00",
    ("embedding_benchmark_graph", "restart_c0.7"):
        "ab1c5c69ff04be3da05e8ea99a3d483f2fb8d0e7e39a21cf58e9f159b3115a24",
}


@pytest.mark.parametrize("graph_name,params_name", sorted(CORPUS_SHA256))
def test_golden_corpus(graph_name, params_name):
    g = getattr(datasets, graph_name)()
    corpus = generate_corpus(g, CORPUS_PARAMS[params_name], seed=0)
    ids = g.nodes.tolist()
    as_ids = [[ids[x] for x in walk] for walk in corpus]
    digest = hashlib.sha256(repr(as_ids).encode()).hexdigest()
    assert digest == CORPUS_SHA256[(graph_name, params_name)]


@pytest.mark.parametrize("params_name", sorted(CORPUS_PARAMS))
def test_corpus_walks_dense_indices(params_name):
    # ids that are neither 0-based nor in first-seen order: an id-valued
    # corpus would leave range(n) or step between non-adjacent rows
    params = CORPUS_PARAMS[params_name]
    g = Graph(SHUFFLED_RING_EDGES)
    for walk in generate_corpus(g, params, seed=3):
        assert set(walk) <= set(range(g.num_nodes))
        for a, b in zip(walk, walk[1:]):
            assert g.adjacency_matrix[a, b] or (params.mode == "restart" and b == walk[0])


@pytest.mark.parametrize("params_name", sorted(CORPUS_PARAMS))
def test_degree_zero_walkers_stay_home(params_name):
    # Node 5 lost its one edge: its walkers stay home, and no other walker
    # reaches it.
    g = with_a_degree_zero_node()
    params = CORPUS_PARAMS[params_name]
    for seed in range(20):
        corpus = generate_corpus(g, params, seed)
        home = corpus[:, 0] == 5
        assert home.sum() == params.walks_per_node and (corpus[home] == 5).all()
        for walk in corpus[~home].tolist():
            for a, b in zip(walk, walk[1:]):
                assert g.adjacency_matrix[a, b] or (params.mode == "restart" and b == walk[0])


class TestWalkParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(length=0, walks_per_node=1),
            dict(length=1, walks_per_node=0),
            dict(length=1, walks_per_node=1, p=0.0),
            dict(length=1, walks_per_node=1, q=-1.0),
            dict(length=1, walks_per_node=1, c=1.0001),
            dict(length=1, walks_per_node=1, mode="teleport"),
            dict(length=1, walks_per_node=1, p=math.inf),
            dict(length=1, walks_per_node=1, q=math.inf),
            dict(length=1, walks_per_node=1, p=math.nan),
            dict(length=1, walks_per_node=1, p=1e-310),
            dict(length=1, walks_per_node=1, q=1e-310),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WalkParams(**kwargs)
