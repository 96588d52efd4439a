import random

import pytest
from hypothesis import given

from conftest import G1_EDGES, edge_lists
from linkpred.graph import (
    EdgeListParseError,
    Graph,
    SaturatedNodeError,
    load_edge_list,
    sample_non_neighbor,
    split_edges,
)


def _edge_file(tmp_path, text):
    path = tmp_path / "g.edges"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadEdgeList:
    def test_duplicates_and_reversals_collapse(self, tmp_path):
        g, dropped = load_edge_list(_edge_file(tmp_path, "0 1\n1 0\n0 1"))
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert dropped == 0

    def test_self_loops_dropped_with_count(self, tmp_path):
        g, dropped = load_edge_list(_edge_file(tmp_path, "5 5\n0 1"))
        assert g.num_nodes == 2
        assert set(g.node_list) == {0, 1}
        assert g.num_edges == 1
        assert dropped == 1

    def test_blank_lines_and_crlf(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_bytes(b"0 1\r\n\r\n2 3\r\n\n")
        g, _ = load_edge_list(path)
        assert g.num_edges == 2

    def test_non_integer_token_names_line(self, tmp_path):
        with pytest.raises(EdgeListParseError, match="line 2"):
            load_edge_list(_edge_file(tmp_path, "0 1\n0 x"))

    def test_wrong_arity_names_line(self, tmp_path):
        with pytest.raises(EdgeListParseError, match="line 1"):
            load_edge_list(_edge_file(tmp_path, "0 1 2\n3 4"))
        with pytest.raises(EdgeListParseError, match="line 2"):
            load_edge_list(_edge_file(tmp_path, "0 1\n3"))

    def test_empty_stream(self, tmp_path):
        g, dropped = load_edge_list(_edge_file(tmp_path, ""))
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert dropped == 0

    def test_from_path(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("10 20\n20 30\n")
        g, _ = load_edge_list(path)
        assert g.num_nodes == 3
        assert g.dense_index == {10: 0, 20: 1, 30: 2}


class TestGraphQueries:
    def test_degree_triangle(self):
        g = Graph([(0, 1), (0, 2), (1, 2)])
        assert g.degree(0) == 2

    def test_degree_path(self):
        g = Graph([(0, 1), (1, 2)])
        assert g.degree(1) == 2
        assert g.degree(0) == 1

    def test_degree_star(self):
        g = Graph([(0, i) for i in range(1, 6)])
        assert g.degree(0) == 5

    def test_degree_unknown_node(self, g1):
        with pytest.raises(KeyError):
            g1.degree(99)

    def test_shared_neighbors_g1(self, g1):
        assert g1.shared_neighbors(1, 2) == {0, 3}
        assert g1.shared_neighbors(0, 4) == frozenset()

    def test_shared_neighbors_self(self, g1):
        for u in g1.node_list:
            assert g1.shared_neighbors(u, u) == g1.neighbors(u)

    def test_shared_neighbors_unknown_node(self, g1):
        with pytest.raises(KeyError):
            g1.shared_neighbors(0, 99)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph([(1, 1)])

    def test_edge_order_is_first_seen(self):
        g = Graph([(3, 1), (1, 0), (0, 3)])
        assert g.edge_list == ((3, 1), (1, 0), (0, 3))
        assert g.node_list == (3, 1, 0)


class TestSplitEdges:
    def test_ceil_sizes(self):
        g = Graph([(0, i) for i in range(1, 171)])
        part = split_edges(g, 0.1, seed=0)
        assert len(part.test) == 17
        assert len(part.train) == 153

    def test_deterministic(self, g1):
        assert split_edges(g1, 0.25, seed=9) == split_edges(g1, 0.25, seed=9)

    def test_different_seeds_differ(self):
        g = Graph([(0, i) for i in range(1, 171)])
        assert split_edges(g, 0.1, seed=1) != split_edges(g, 0.1, seed=2)

    def test_union_restores_edge_set(self, g1):
        original = set(g1.edge_list)
        for seed in range(1000):
            part = split_edges(g1, 0.4, seed)
            assert set(part.train) | set(part.test) == original
            assert set(part.train) & set(part.test) == set()

    def test_does_not_mutate_graph(self, g1):
        before = g1.edge_list
        split_edges(g1, 0.5, seed=3)
        assert g1.edge_list == before

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_fraction_out_of_range(self, g1, fraction):
        with pytest.raises(ValueError):
            split_edges(g1, fraction, seed=0)


class TestSampleNonNeighbor:
    def test_single_candidate(self):
        g = Graph([(0, 1), (1, 2)])
        rng = random.Random(0)
        assert all(sample_non_neighbor(g, 0, rng) == 2 for _ in range(50))

    def test_saturated_node(self):
        g = Graph([(0, 1), (0, 2), (1, 2)])
        with pytest.raises(SaturatedNodeError):
            sample_non_neighbor(g, 0, random.Random(0))

    def test_unknown_node(self, g1):
        with pytest.raises(KeyError):
            sample_non_neighbor(g1, 99, random.Random(0))

    def test_star_leaf_uniform(self):
        # from leaf 1 the candidates are the other four leaves, p = 1/4 each
        g = Graph([(0, i) for i in range(1, 6)])
        rng = random.Random(42)
        draws = 100_000
        counts = {w: 0 for w in (2, 3, 4, 5)}
        for _ in range(draws):
            counts[sample_non_neighbor(g, 1, rng)] += 1
        sigma = (0.25 * 0.75 / draws) ** 0.5
        for w in counts:
            assert abs(counts[w] / draws - 0.25) < 3 * sigma

    def test_never_returns_self_or_neighbor(self):
        rng = random.Random(7)
        for seed in range(20):
            g = _random_graph(seed, rng)
            for u in g.node_list:
                if g.degree(u) >= g.num_nodes - 1:
                    continue
                for _ in range(250):
                    w = sample_non_neighbor(g, u, rng)
                    assert w != u
                    assert w not in g.neighbors(u)


def _random_graph(seed, rng):
    n = rng.randint(3, 10)
    pairs = []
    for _ in range(rng.randint(2, 15)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.append((u, v))
    return Graph(pairs) if pairs else Graph([(0, 1)])


class TestInvariants:
    @given(edge_lists())
    def test_construction_invariants(self, pairs):
        g = Graph(pairs)
        assert sum(g.degree(u) for u in g.node_list) == 2 * g.num_edges
        assert set(g.node_list) == set(g.adjacency)
        assert sorted(g.dense_index.values()) == list(range(g.num_nodes))
        for u, v in g.edge_list:
            assert v in g.adjacency[u]
            assert u in g.adjacency[v]

    @given(edge_lists())
    def test_shared_neighbors_symmetric(self, pairs):
        g = Graph(pairs)
        for u in g.node_list:
            for v in g.node_list:
                assert g.shared_neighbors(u, v) == g.shared_neighbors(v, u)

    @given(edge_lists())
    def test_common_neighbor_degree_at_least_two(self, pairs):
        g = Graph(pairs)
        for u in g.node_list:
            for v in g.node_list:
                if u == v:
                    continue
                for w in g.shared_neighbors(u, v):
                    assert g.degree(w) >= 2
