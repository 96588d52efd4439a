import random
import warnings

import numpy as np
import pytest

from conftest import (dense_positions, neighbor_sets, random_connected_graph, random_simple_graph,
                      train_graph)
from linkpred import datasets, rwr
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
        i = dense_positions(g)[1]
        assert np.array_equal(P[i], [0.5, 0.0, 0.5])

    def test_g1_node3_row(self, g1):
        P = build_transition(g1)
        index = dense_positions(g1)
        row = P[index[3]]
        expected = np.zeros(5)
        for v in (1, 2, 4):
            expected[index[v]] = 1 / 3
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
    P, index = np.zeros((g.num_nodes, g.num_nodes)), dense_positions(g)
    for u, nbrs in neighbor_sets(g).items():
        w = 1.0 / len(nbrs)
        for v in nbrs:
            P[index[u], index[v]] = w
    return P


def _rwr_x(g, c):
    """X = (I - c N)^{-1} over dense indices: ``build_rwr``'s X, un-permuted."""
    X, pos = build_rwr(g, c)
    return X[np.ix_(pos, pos)]


def _path(g, monkeypatch):
    """"eliminate" or "dense": the path ``build_rwr`` takes on g."""
    taken = []
    with monkeypatch.context() as m:
        m.setattr(rwr, "_eliminate", lambda B, k: taken.append(k) or np.eye(len(B)))
        _, pos = build_rwr(g, 0.5)
    if not taken:
        assert np.array_equal(pos, np.arange(g.num_nodes))
        return "dense"
    assert taken == [len(g.independent_set)] and taken[0] > rwr._LEAF
    assert not np.array_equal(pos, np.arange(g.num_nodes))
    return "eliminate"


def _resolvent(g, c):
    """M = (1 - c) D^1/2 X D^-1/2 from the X that ``build_rwr`` returns,
    scaled over all n^2 entries."""
    M = _rwr_x(g, c)
    sqrt_k = np.sqrt(g.degrees)
    M *= (1.0 - c) * sqrt_k[:, None]
    M /= sqrt_k
    return M


class TestResolvent:
    def test_single_edge_half(self):
        M = _resolvent(Graph([(0, 1)]), 0.5)
        expected = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
        assert np.allclose(M, expected, atol=1e-12)

    def test_single_edge_high_c(self):
        M = _resolvent(Graph([(0, 1)]), 0.9)
        expected = np.array([[10 / 19, 9 / 19], [9 / 19, 10 / 19]])
        assert np.allclose(M, expected, atol=1e-12)

    def test_c_zero_gives_identity(self, g1, monkeypatch):
        # The 120-node graph is split into blocks before any is inverted; the
        # sparse one has its independent set eliminated first.
        graphs = (g1, random_connected_graph(120, 300, 0), random_simple_graph(150, 120, 0))
        assert [_path(g, monkeypatch) for g in graphs] == ["dense", "dense", "eliminate"]
        for g in graphs:
            assert np.array_equal(_rwr_x(g, 0.0), np.eye(g.num_nodes))

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
        for i in range(g1.num_nodes):
            for j in range(g1.num_nodes):
                assert score(g1, i, j) == score(g1, j, i)

    def test_unknown_node(self, g1):
        with pytest.raises(IndexError):
            _rwr_score(g1, 0.5)(g1, 0, 99)  # dense index out of range


@pytest.mark.parametrize("c", [0.1, 0.5, 0.9])
def test_stationary_invariants_random_graphs(c, monkeypatch):
    graphs = [random_connected_graph(8 + 7 * seed, 16 + 14 * seed, seed) for seed in range(6)]
    graphs += [random_connected_graph(163, 400, 2), random_simple_graph(150, 120, 1)]
    assert [_path(g, monkeypatch) for g in graphs] == ["dense"] * 6 + ["eliminate"] * 2
    for g in graphs:
        M, P = _resolvent(g, c), build_transition(g)
        n = g.num_nodes
        assert np.all(M.sum(axis=0) > 1 - 1e-9)
        assert np.all(M.sum(axis=0) < 1 + 1e-9)
        assert M.min() >= -1e-12
        residual = M - c * P.T @ M - (1 - c) * np.eye(n)
        assert np.abs(residual).max() < 1e-9


@pytest.mark.parametrize("c", [0.1, 0.5, 0.9])
def test_neumann_series_oracle(c, monkeypatch):
    # M should match (1-c) * sum_k c^k (P^T)^k truncated at K=200
    graphs = [random_simple_graph(6 + 3 * seed, 10 + 4 * seed, seed) for seed in range(4)]
    graphs.append(random_simple_graph(150, 120, 2))
    assert [_path(g, monkeypatch) for g in graphs] == ["dense"] * 4 + ["eliminate"]
    for g in graphs:
        M = _resolvent(g, c)
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
    """13 graphs of at most _LEAF nodes, then 3 whose independent set is eliminated."""
    for seed in range(4):
        yield random_simple_graph(20 + 6 * seed, 14 + 8 * seed, seed)  # sparse; some disconnected
        yield random_connected_graph(10 + 8 * seed, 25 + 20 * seed, seed)
        yield _random_bipartite_graph(5 + seed, 7 + 2 * seed, 15 + 6 * seed, seed)
    yield Graph([(0, 1), (2, 3), (3, 4), (4, 5), (5, 2)])  # an edge and an even cycle
    yield random_simple_graph(150, 120, 3)  # disconnected
    yield _random_bipartite_graph(60, 70, 260, 4)
    yield train_graph(datasets.usair_like(), 0.1, 1)


def test_oracle_graphs_take_both_paths(monkeypatch):
    paths = [_path(g, monkeypatch) for g in _oracle_graphs()]
    assert paths == ["dense"] * 13 + ["eliminate"] * 3


@pytest.mark.parametrize("c", [0.0, 0.1, 0.5, 0.9, 0.99])
def test_matches_lu_oracle(c):
    for g in _oracle_graphs():
        assert np.abs(_resolvent(g, c) - _lu_resolvent(g, c)).max() <= 1e-12


def test_c_just_below_one_is_finite():
    c = np.nextafter(1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in _oracle_graphs():
            assert np.all(np.isfinite(_rwr_x(g, c)))


def _random_spd(n, seed):
    """Exactly symmetric, eigenvalues in [1, 2]."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    B = (Q * rng.uniform(1.0, 2.0, n)) @ Q.T
    return (B + B.T) / 2


@pytest.mark.parametrize("n", [1, 2, rwr._LEAF - 1, rwr._LEAF, rwr._LEAF + 1,
                               2 * rwr._LEAF + 3, 332])
def test_spd_inverse_matches_numpy_inverse(n):
    B = _random_spd(n, n)
    R, expected = rwr._spd_inverse(B.copy()), np.linalg.inv(B)
    assert np.abs(R - expected).max() <= 1e-12 * np.abs(expected).max()


def test_level_is_independent_of_call_history(monkeypatch):
    g_a = random_connected_graph(120, 300, 4)
    g_b = random_connected_graph(120, 300, 5)
    assert [_path(g, monkeypatch) for g in (g_a, g_b)] == ["eliminate", "dense"]
    first_a, first_b = _rwr_x(g_a, 0.7), _rwr_x(g_b, 0.7)
    assert np.array_equal(_rwr_x(g_a, 0.7), first_a)
    for c in (0.1, 0.5, 0.9):
        _rwr_x(g_a, c)
        _rwr_x(g_b, c)
    assert np.array_equal(_rwr_x(g_b, 0.7), first_b)
    assert np.array_equal(_rwr_x(g_a, 0.7), first_a)


@pytest.mark.parametrize("c", [0.1, 0.5, 0.9])
def test_cross_component_scores_are_exactly_zero(c, monkeypatch):
    from scipy.sparse.csgraph import connected_components

    # Graphs of 30 ids fit one LAPACK block; on 150 ids the independent set
    # is eliminated first.
    for n_ids, n_edges, path in ((30, 25, "dense"), (150, 120, "eliminate")):
        pairs_apart = 0
        for seed in range(20):
            g = random_simple_graph(n_ids, n_edges, seed)
            assert _path(g, monkeypatch) == path
            _, label = connected_components(g.adjacency_matrix, directed=False)
            apart = label[:, None] != label
            pairs_apart += apart.sum()
            assert np.all(_rwr_x(g, c)[apart] == 0.0)
        assert pairs_apart > 0


@pytest.mark.parametrize("c", [0.1, 0.5, 0.9])
def test_scores_on_blocked_graphs(c, monkeypatch):
    # Above 2 * _LEAF nodes the inverse is split into blocks and is symmetric
    # to rounding only; the scores must still be exactly symmetric.
    from scipy.sparse.csgraph import connected_components

    graphs = [random_connected_graph(2 * rwr._LEAF + 5 + 40 * seed, 350, seed)
              for seed in range(2)]
    graphs += [random_simple_graph(150 + 20 * seed, 120, seed) for seed in range(2)]
    assert [_path(g, monkeypatch) for g in graphs] == ["dense"] + ["eliminate"] * 3
    pairs_apart = 0
    for g in graphs:
        n = g.num_nodes
        assert n > 2 * rwr._LEAF
        rows, cols = (a.ravel() for a in np.indices((n, n)))
        S = rwr_factory(c).build(g, 0).pairs(rows, cols).reshape(n, n)
        assert np.array_equal(S, S.T)
        M = _resolvent(g, c)  # the full scaling: same arithmetic per entry
        assert np.array_equal(S, M + M.T)
        M = _lu_resolvent(g, c)
        assert np.abs(S - (M + M.T)).max() <= 1e-12
        _, label = connected_components(g.adjacency_matrix, directed=False)
        apart = label[:, None] != label
        pairs_apart += apart.sum()
        assert np.all(S[apart] == 0.0)
    assert pairs_apart > 0


def _dense_contract_graphs():
    """More than 2 * _LEAF nodes, so the inverse is split into blocks; the
    sparse ones are disconnected."""
    for seed in range(3):
        yield random_simple_graph(160 + 20 * seed, 130 + 10 * seed, seed)
        yield random_connected_graph(2 * rwr._LEAF + 7 + 30 * seed, 400, seed)


def _bitwise_equal(a, b):
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def test_transition_is_the_dense_division_bit_for_bit():
    for g in _dense_contract_graphs():
        assert g.num_nodes > 2 * rwr._LEAF
        expected = g.adjacency_matrix / g.degrees[:, None]
        assert _bitwise_equal(build_transition(g), expected)


def _dense_formation(g, c):
    """B = I - c N with N = sqrt(P * P^T) over all n^2 entries, scaled by -c,
    in the order of ``build_rwr``'s X: the independent set first when it is
    eliminated. Returns the matrix handed to ``_spd_inverse``, as it was
    then, and X from the same steps as ``build_rwr``."""
    P = g.adjacency_matrix / g.degrees[:, None]
    B = np.sqrt(P * P.T) * -c
    B.flat[:: B.shape[0] + 1] += 1.0
    lead = g.independent_set
    if len(lead) <= rwr._LEAF:
        return B.copy(), rwr._spd_inverse(B)
    order = np.concatenate((lead, np.setdiff1d(np.arange(g.num_nodes), lead)))
    B = B[np.ix_(order, order)]
    k = len(lead)
    W = B[:k, k:]
    assert np.array_equal(B[:k, :k], np.eye(k))  # no two nodes of the set are adjacent
    return B[k:, k:] - W.T @ W, rwr._eliminate(B, k)


@pytest.mark.parametrize("c", [0.0, 0.1, 0.5, 0.9])
def test_rwr_matches_the_dense_formation_bit_for_bit(c, monkeypatch):
    # BLAS sums drop the sign of a zero, so X alone would not show a non-edge
    # of I - c N left at +0.0; the matrix handed to the inverse is checked too.
    # On the elimination path that matrix is S = B_CC - W^T W, W = B_IC.
    spd_inverse, inverted = rwr._spd_inverse, []

    def recording(B):
        inverted.append(B.copy())
        return spd_inverse(B)

    graphs = list(_dense_contract_graphs())
    assert ([_path(g, monkeypatch) for g in graphs]
            == ["eliminate", "dense", "eliminate", "dense", "eliminate", "eliminate"])
    for g in graphs:
        expected_B, expected_X = _dense_formation(g, c)
        inverted.clear()
        with monkeypatch.context() as m:
            m.setattr(rwr, "_spd_inverse", recording)
            X, _ = build_rwr(g, c)
        assert _bitwise_equal(inverted[0], expected_B)
        assert _bitwise_equal(X, expected_X)


@pytest.mark.parametrize("build", [build_transition, lambda g: build_rwr(g, 0.5)[0]],
                         ids=["transition", "rwr"])
def test_each_call_returns_a_fresh_writable_buffer(build):
    g = random_connected_graph(120, 300, 6)
    first, second = build(g), build(g)
    assert np.array_equal(first, second)
    for a in (first, second):
        assert a.flags.writeable
    assert not np.shares_memory(first, second)
    first[...] = 7.0
    assert np.array_equal(build(g), second)
