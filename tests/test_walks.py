import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import given

from conftest import SHUFFLED_RING_EDGES, edge_lists, neighbor_sets
from linkpred import datasets
from linkpred.graph import Graph
from linkpred.walks import (
    WalkParams,
    build_alias_table,
    generate_corpus,
    restart_walk,
    sorted_neighbors,
    weighted_walk,
)


def _expected_distribution(g, prev, curr, p, q):
    """Independent reweighting straight from the transition-rule table."""
    nbrs = neighbor_sets(g)
    weights = {}
    for w in nbrs[curr]:
        if w == prev:
            weights[w] = 1 / p
        elif w in nbrs[prev]:
            weights[w] = 1.0
        else:
            weights[w] = 1 / q
    total = sum(weights.values())
    return {w: weight / total for w, weight in weights.items()}


def alias_distribution(row, prob, alias):
    """Sampling distribution of the alias columns over ``row``, exactly.

    Column i contributes prob[i]/n to its own node row[i] and
    (1 - prob[i])/n to its alias node; summing recovers the normalized
    weights.
    """
    n = len(row)
    mass = dict.fromkeys(row, 0.0)
    for node, pr, other in zip(row, prob, alias):
        mass[node] += pr / n
        mass[other] += (1.0 - pr) / n
    return mass


def _entry_distribution(g, table, prev, curr):
    return alias_distribution(sorted_neighbors(g)[curr], *table[(prev, curr)])


def _draws_after(g, table, prev, curr, draws, rng):
    """Nodes that length-2 walks from prev take right after stepping to curr."""
    nbrs = sorted_neighbors(g)
    out = []
    while len(out) < draws:
        walk = weighted_walk(nbrs, table, prev, 2, rng)
        if walk[1] == curr:
            out.append(walk[2])
    return out


class TestAliasTable:
    def test_g1_entry_exact(self, g1):
        # entry (0,1) with p=1, q=2: N(1)={0,2,3}; 0 is the previous node,
        # 2 is a mutual neighbor, 3 is not adjacent to 0 -> [1, 1, 0.5]
        table = build_alias_table(sorted_neighbors(g1), p=1.0, q=2.0)
        dist = _entry_distribution(g1, table, 0, 1)
        assert dist[0] == pytest.approx(0.4, abs=1e-12)
        assert dist[2] == pytest.approx(0.4, abs=1e-12)
        assert dist[3] == pytest.approx(0.2, abs=1e-12)

    def test_uniform_weights_prob_all_one(self):
        # triangle with p=q=1: every neighbor weight equal, Vose degenerates
        g = Graph([(0, 1), (0, 2), (1, 2)])
        table = build_alias_table(sorted_neighbors(g), p=1.0, q=1.0)
        for prob, _ in table.values():
            assert all(pr == 1.0 for pr in prob)

    def test_single_edge_point_mass(self):
        g = Graph([(0, 1)])
        table = build_alias_table(sorted_neighbors(g), p=1.0, q=1.0)
        dist = _entry_distribution(g, table, 0, 1)
        assert dist == {0: pytest.approx(1.0)}

    def test_covers_both_orientations(self, g1):
        table = build_alias_table(sorted_neighbors(g1), 1.0, 1.0)
        assert len(table) == 2 * g1.num_edges
        for u, v in g1.edge_list:
            assert (u, v) in table
            assert (v, u) in table

    @pytest.mark.parametrize("p,q", [(0.0, 1.0), (1.0, -2.0), (math.inf, math.inf),
                                     (math.nan, 1.0), (1.0, math.nan), (1e-310, 1.0),
                                     (1.0, 1e-310), (1e-308, 2e-308)])
    def test_invalid_p_q(self, g1, p, q):
        with pytest.raises(ValueError):
            build_alias_table(sorted_neighbors(g1), p, q)

    @pytest.mark.parametrize("p", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("q", [0.25, 1.0, 4.0])
    def test_reconstruction_identity_g1(self, g1, p, q):
        table = build_alias_table(sorted_neighbors(g1), p, q)
        for prev, curr in table:
            expected = _expected_distribution(g1, prev, curr, p, q)
            reconstructed = _entry_distribution(g1, table, prev, curr)
            assert reconstructed.keys() == expected.keys()
            for node, mass in expected.items():
                assert reconstructed[node] == pytest.approx(mass, abs=1e-12)

    @given(edge_lists())
    def test_reconstruction_identity_random(self, pairs):
        # the oracle speaks node ids, the table dense indices
        g = Graph(pairs)
        ids, dense = g.node_list, g.dense_index
        for p, q in [(0.25, 4.0), (1.0, 1.0), (4.0, 0.25)]:
            table = build_alias_table(sorted_neighbors(g), p, q)
            for prev, curr in table:
                expected = _expected_distribution(g, ids[prev], ids[curr], p, q)
                reconstructed = _entry_distribution(g, table, prev, curr)
                for node, mass in expected.items():
                    assert reconstructed[dense[node]] == pytest.approx(mass, abs=1e-12)


class TestAliasDraw:
    """The second and later steps of ``weighted_walk`` draw from the table."""

    def test_point_mass(self):
        g = Graph([(0, 1)])
        table = build_alias_table(sorted_neighbors(g), 1.0, 1.0)
        rng = random.Random(0)
        assert all(nxt == 0 for nxt in _draws_after(g, table, 0, 1, 100, rng))

    def test_frequencies_match_distribution(self, g1):
        table = build_alias_table(sorted_neighbors(g1), p=1.0, q=2.0)
        rng = random.Random(1)
        draws = 100_000
        counts = Counter(_draws_after(g1, table, 0, 1, draws, rng))
        for node, mass in _entry_distribution(g1, table, 0, 1).items():
            assert abs(counts[node] / draws - mass) < 0.01

    def test_uniform_three_way_chi_square(self):
        from scipy.stats import chisquare

        g = Graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])  # K4
        table = build_alias_table(sorted_neighbors(g), 1.0, 1.0)
        # entry (0,1): N(1) = {0,2,3}, all mutual -> uniform
        rng = random.Random(2)
        draws = 100_000
        counts = Counter(_draws_after(g, table, 0, 1, draws, rng))
        result = chisquare([counts[n] for n in sorted(counts)])
        assert result.pvalue > 0.001


class TestWeightedWalk:
    def test_single_edge_alternates(self):
        g = Graph([(0, 1)])
        nbrs = sorted_neighbors(g)
        walk = weighted_walk(nbrs, build_alias_table(nbrs, 1.0, 1.0), 0, 10, random.Random(0))
        assert walk == [0, 1] * 5 + [0]

    def test_length_one(self, g1):
        nbrs = sorted_neighbors(g1)
        walk = weighted_walk(nbrs, build_alias_table(nbrs, 1.0, 1.0), 3, 1, random.Random(5))
        assert len(walk) == 2
        assert walk[0] == 3
        assert walk[1] in neighbor_sets(g1)[3]

    def test_unknown_start(self, g1):
        nbrs = sorted_neighbors(g1)
        table = build_alias_table(nbrs, 1.0, 1.0)
        with pytest.raises(KeyError):
            weighted_walk(nbrs, table, 99, 3, random.Random(0))

    def test_steps_out_of_node1_uniform(self, g1):
        # with p=q=1 every transition out of node 1 is uniform over N(1)
        nbrs = sorted_neighbors(g1)
        table = build_alias_table(nbrs, 1.0, 1.0)
        rng = random.Random(3)
        counts = Counter()
        for _ in range(10_000):
            walk = weighted_walk(nbrs, table, 0, 80, rng)
            for prev, nxt in zip(walk, walk[1:]):
                if prev == 1:
                    counts[nxt] += 1
        total = sum(counts.values())
        for node in (0, 2, 3):
            assert abs(counts[node] / total - 1 / 3) < 0.01

    def test_transitions_have_positive_weight(self, g1):
        nbrs = sorted_neighbors(g1)
        table = build_alias_table(nbrs, p=4.0, q=0.25)
        rng = random.Random(4)
        adjacency = neighbor_sets(g1)
        for start in g1.node_list:
            walk = weighted_walk(nbrs, table, start, 30, rng)
            for prev, curr, nxt in zip(walk, walk[1:], walk[2:]):
                assert nxt in adjacency[curr]
                assert _expected_distribution(g1, prev, curr, 4.0, 0.25)[nxt] > 0


class TestRestartWalk:
    def test_c_zero_stays_home(self, g1):
        walk = restart_walk(sorted_neighbors(g1), 2, 5, 0.0, random.Random(0))
        assert walk == [2, 2, 2, 2, 2, 2]

    def test_c_one_pure_walk(self):
        g = Graph([(0, 1)])
        walk = restart_walk(sorted_neighbors(g), 0, 6, 1.0, random.Random(0))
        assert walk == [0, 1, 0, 1, 0, 1, 0]

    def test_unknown_start(self, g1):
        with pytest.raises(KeyError):
            restart_walk(sorted_neighbors(g1), 99, 3, 0.5, random.Random(0))

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_unknown_start_at_any_c(self, g1, c):
        # c = 0 never looks a neighbor up, so the start is checked up front
        with pytest.raises(KeyError):
            restart_walk(sorted_neighbors(g1), 99, 3, c, random.Random(0))

    def test_composition_invariant(self, g1):
        nbrs = sorted_neighbors(g1)
        rng = random.Random(6)
        adjacency = neighbor_sets(g1)
        for start in g1.node_list:
            walk = restart_walk(nbrs, start, 50, 0.6, rng)
            for prev, nxt in zip(walk, walk[1:]):
                assert nxt == start or nxt in adjacency[prev]

    def test_restart_frequency_on_star(self):
        # from the center, the next node is the center again iff the step
        # restarted, so that transition frequency estimates 1 - c = 0.5
        g = Graph([(0, i) for i in range(1, 5)])
        walk = restart_walk(sorted_neighbors(g), 0, 100_000, 0.5, random.Random(7))
        from_center = [nxt for prev, nxt in zip(walk, walk[1:]) if prev == 0]
        frac_restart = sum(1 for nxt in from_center if nxt == 0) / len(from_center)
        assert abs(frac_restart - 0.5) < 0.01


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
        for walk in corpus:
            assert walk == [walk[0]] * 5

    def test_deterministic(self, g1):
        params = WalkParams(length=10, walks_per_node=3, p=0.5, q=2.0)
        assert generate_corpus(g1, params, seed=9) == generate_corpus(g1, params, seed=9)

    def test_start_node_order(self, g1):
        params = WalkParams(length=2, walks_per_node=2)
        corpus = generate_corpus(g1, params, seed=1)
        starts = [walk[0] for walk in corpus]
        assert starts == list(range(g1.num_nodes)) * 2


# sha256 of repr(generate_corpus(g, params, seed=0)) mapped through g.nodes to
# node ids. They pin the RNG draw order: any rewrite of the samplers must
# reproduce each corpus byte for byte.
CORPUS_PARAMS = {
    "alias_p0.5_q2": WalkParams(12, 2, p=0.5, q=2.0),
    "uniform": WalkParams(10, 1),
    "restart_c0.7": WalkParams(20, 2, c=0.7, mode="restart"),
}
CORPUS_SHA256 = {
    ("chesapeake_like", "alias_p0.5_q2"):
        "b0efb9e8b9e902a24897c505c5eea189c8afce3b1a75db76beab8b929558ce1b",
    ("chesapeake_like", "uniform"):
        "282cdd1e7f90a90d190507db35f1524e11037ec331ca6f0b1259c100eb1bd5d6",
    ("chesapeake_like", "restart_c0.7"):
        "13a84643b0f50292ab0f604811d02215ef637fca3f35b8b77d0fa529f33458fb",
    ("embedding_benchmark_graph", "alias_p0.5_q2"):
        "94a99c8c8ebfc9643898d55adfbccfbcf792df1c7bd70260c972c301ce7b7e02",
    ("embedding_benchmark_graph", "uniform"):
        "a311f218fb0bfe8bfd915068ae2e46612b9bc315af114fcaf08868a1ac7cb164",
    ("embedding_benchmark_graph", "restart_c0.7"):
        "2a15ca924116b1098004ee7df0c8ea8b6f4ea838f9989c07b3293c38abf2ec19",
}


@pytest.mark.parametrize("graph_name,params_name", sorted(CORPUS_SHA256))
def test_golden_corpus(graph_name, params_name):
    g = getattr(datasets, graph_name)()
    corpus = generate_corpus(g, CORPUS_PARAMS[params_name], seed=0)
    as_ids = [[g.node_list[x] for x in walk] for walk in corpus]
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
