import numpy as np
import pytest

from conftest import random_connected_graph, random_simple_graph
from linkpred.graph import Graph
from linkpred.pipelines import rwr_factory
from linkpred.rwr import build_rwr, build_transition


class TestTransition:
    def test_single_edge(self):
        P = build_transition(Graph([(0, 1)]))
        assert np.array_equal(P, [[0.0, 1.0], [1.0, 0.0]])

    def test_path_middle_row(self):
        g = Graph([(0, 1), (1, 2)])
        P = build_transition(g)
        i = g.dense_index[1]
        assert np.array_equal(P[i], [0.5, 0.0, 0.5])

    def test_g1_node3_row(self, g1):
        P = build_transition(g1)
        row = P[g1.dense_index[3]]
        expected = np.zeros(5)
        for v in (1, 2, 4):
            expected[g1.dense_index[v]] = 1 / 3
        assert np.allclose(row, expected, atol=1e-15)

    def test_rows_stochastic(self, g1):
        P = build_transition(g1)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)

    def test_empty_graph(self):
        with pytest.raises(ValueError):
            build_transition(Graph([]))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        g = random_simple_graph(10 + 9 * seed, 20 + 30 * seed, seed)
        assert np.array_equal(build_transition(g), _loop_transition(g))


def _loop_transition(g):
    """Entry-by-entry oracle: P[i, j] = 1/k_i for each edge (i, j)."""
    P = np.zeros((g.num_nodes, g.num_nodes))
    for u in g.node_list:
        w = 1.0 / g.degree(u)
        for v in g.adjacency[u]:
            P[g.dense_index[u], g.dense_index[v]] = w
    return P


class TestResolvent:
    def test_single_edge_half(self):
        M = build_rwr(Graph([(0, 1)]), 0.5)
        expected = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
        assert np.allclose(M, expected, atol=1e-12)

    def test_single_edge_high_c(self):
        M = build_rwr(Graph([(0, 1)]), 0.9)
        expected = np.array([[10 / 19, 9 / 19], [9 / 19, 10 / 19]])
        assert np.allclose(M, expected, atol=1e-12)

    def test_c_zero_gives_identity(self, g1):
        M = build_rwr(g1, 0.0)
        assert np.allclose(M, np.eye(g1.num_nodes), atol=1e-12)

    @pytest.mark.parametrize("c", [-0.1, 1.0, 1.5])
    def test_c_out_of_range(self, g1, c):
        with pytest.raises(ValueError):
            build_rwr(g1, c)


def _rwr_score(g, c):
    return rwr_factory(c).build(g, 0).score


class TestScore:
    def test_single_edge_half(self):
        g = Graph([(0, 1)])
        assert _rwr_score(g, 0.5)(g, 0, 1) == pytest.approx(2 / 3, rel=1e-12)

    def test_single_edge_high_c(self):
        g = Graph([(0, 1)])
        assert _rwr_score(g, 0.9)(g, 0, 1) == pytest.approx(18 / 19, rel=1e-12)

    def test_c_zero_off_diagonal(self, g1):
        assert _rwr_score(g1, 0.0)(g1, 0, 4) == 0.0

    def test_symmetric_exactly(self, g1):
        score = _rwr_score(g1, 0.7)
        for u in g1.node_list:
            for v in g1.node_list:
                assert score(g1, u, v) == score(g1, v, u)

    def test_unknown_node(self, g1):
        with pytest.raises(KeyError):
            _rwr_score(g1, 0.5)(g1, 0, 99)


@pytest.mark.parametrize("c", [0.1, 0.5, 0.9])
def test_stationary_invariants_random_graphs(c):
    for seed in range(6):
        n = 8 + 7 * seed
        g = random_connected_graph(n, 2 * n, seed)
        M, P = build_rwr(g, c), build_transition(g)
        n = g.num_nodes
        assert np.all(M.sum(axis=0) > 1 - 1e-9)
        assert np.all(M.sum(axis=0) < 1 + 1e-9)
        assert M.min() >= -1e-12
        residual = M - c * P.T @ M - (1 - c) * np.eye(n)
        assert np.abs(residual).max() < 1e-9


@pytest.mark.parametrize("c", [0.1, 0.5, 0.9])
def test_neumann_series_oracle(c):
    # M should match (1-c) * sum_k c^k (P^T)^k truncated at K=200
    for seed in range(4):
        g = random_simple_graph(6 + 3 * seed, 10 + 4 * seed, seed)
        M = build_rwr(g, c)
        Pt = build_transition(g).T
        n = g.num_nodes
        term = np.eye(n)
        series = np.eye(n)
        for _ in range(200):
            term = c * Pt @ term
            series += term
        assert np.abs(M - (1 - c) * series).max() < 1e-6

