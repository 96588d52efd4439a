import random
import warnings

import numpy as np
import pytest

from conftest import random_connected_graph, random_simple_graph
from linkpred import rwr
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
        w = 1.0 / len(g.adjacency[u])
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


def _lu_resolvent(g, c):
    """Dense LU oracle: (1 - c) solve(I - c P^T, I)."""
    P = build_transition(g)
    n = P.shape[0]
    return (1.0 - c) * np.linalg.solve(np.eye(n) - c * P.T, np.eye(n))


def _random_bipartite_graph(a, b, n_edges, seed):
    """Random edges between nodes 0..a-1 and a..a+b-1; the spectrum holds -1."""
    rng = random.Random(seed)
    pairs = {(rng.randrange(a), a + rng.randrange(b)) for _ in range(n_edges)}
    return Graph(sorted(pairs))


def _oracle_graphs():
    for seed in range(4):
        yield random_simple_graph(20 + 6 * seed, 14 + 8 * seed, seed)  # sparse; some disconnected
        yield random_connected_graph(10 + 8 * seed, 25 + 20 * seed, seed)
        yield _random_bipartite_graph(5 + seed, 7 + 2 * seed, 15 + 6 * seed, seed)
    yield Graph([(0, 1), (2, 3), (3, 4), (4, 5), (5, 2)])  # an edge and an even cycle


@pytest.mark.parametrize("c", [0.0, 0.1, 0.5, 0.9, 0.99])
def test_matches_lu_oracle(c):
    # A graph's third level always comes from its spectral factors.
    for g in _oracle_graphs():
        for _ in range(3):
            assert np.abs(build_rwr(g, c) - _lu_resolvent(g, c)).max() <= 1e-12


def test_c_just_below_one_is_finite():
    c = np.nextafter(1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in _oracle_graphs():
            for _ in range(3):
                assert np.all(np.isfinite(build_rwr(g, c)))


def _count_transitions(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return build_transition(g)

    monkeypatch.setattr(rwr, "build_transition", counting)
    return calls


def _ask_levels(g, k):
    for c in np.linspace(0.1, 0.9, k):
        build_rwr(g, c)


def test_graph_factored_once_for_all_levels(monkeypatch):
    _ask_levels(random_connected_graph(20, 40, 2), 3)
    calls = _count_transitions(monkeypatch)
    g = random_connected_graph(20, 40, 3)
    _ask_levels(g, 4)
    assert len(calls) == 1


def test_first_graph_solved_then_factored(monkeypatch):
    monkeypatch.setattr(rwr, "_last", None)
    calls = _count_transitions(monkeypatch)
    g = random_connected_graph(20, 40, 3)
    M = [build_rwr(g, c) for c in (0.1, 0.5, 0.9, 0.7)]
    assert len(calls) == 3
    assert np.array_equal(M[0], _lu_resolvent(g, 0.1))
    assert np.array_equal(M[1], _lu_resolvent(g, 0.5))


@pytest.mark.parametrize("levels", [1, 2])
def test_graphs_with_few_levels_are_solved_by_lu(levels):
    _ask_levels(random_connected_graph(20, 40, 2), 3)
    # Factored, as the graph before it was asked for three levels.
    _ask_levels(random_connected_graph(20, 40, 3), levels)
    for seed in (4, 5, 6):
        g = random_connected_graph(20, 40, seed)
        for c in np.linspace(0.1, 0.9, levels):
            assert np.array_equal(build_rwr(g, c), _lu_resolvent(g, c))


def test_alternating_graphs_get_their_own_resolvent(monkeypatch):
    monkeypatch.setattr(rwr, "_last", None)
    g_a = random_connected_graph(20, 40, 4)
    g_b = random_connected_graph(20, 40, 5)
    for g in (g_a, g_a, g_a, g_b, g_b, g_a, g_b, g_b, g_b, g_a):
        assert np.abs(build_rwr(g, 0.7) - _lu_resolvent(g, 0.7)).max() <= 1e-12
