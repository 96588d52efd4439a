import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import G1_EDGES, edge_lists, neighbor_sets
from linkpred import datasets
from linkpred.graph import (
    EdgeListParseError,
    EdgePartition,
    Graph,
    SaturatedNodeError,
    _groups,
    load_edge_list,
    sample_non_neighbor,
    split_edges,
)
from linkpred.rwr import build_rwr, build_transition


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

    def test_underscore_id_names_line(self, tmp_path):
        # int("1_000") is 1000, but the format takes ASCII decimal digits only
        with pytest.raises(EdgeListParseError, match="^line 2: non-integer node id in '1_000 2'$"):
            load_edge_list(_edge_file(tmp_path, "0 1\n1_000 2\n"))

    def test_non_ascii_digit_names_line(self, tmp_path):
        # int("\u0663") is 3 (ARABIC-INDIC DIGIT THREE)
        with pytest.raises(EdgeListParseError,
                           match="^line 3: non-integer node id in '\u0663 1'$"):
            load_edge_list(_edge_file(tmp_path, "0 1\n1 2\n\u0663 1\n"))

    def test_signed_ids_and_non_ascii_separators(self, tmp_path):
        g, _ = load_edge_list(_edge_file(tmp_path, "+3 -4\n-4\u00a05\n"))
        assert g.edge_list == ((3, -4), (-4, 5))

    def test_wrong_arity_names_line(self, tmp_path):
        with pytest.raises(EdgeListParseError, match="line 1"):
            load_edge_list(_edge_file(tmp_path, "0 1 2\n3 4"))
        with pytest.raises(EdgeListParseError, match="line 2"):
            load_edge_list(_edge_file(tmp_path, "0 1\n3"))

    @pytest.mark.parametrize("data, line", [
        (b"\xff 1\n2 3\n", 1),
        (b"0 1\n1 2\n\xff 3\n", 3),
        (b"0 1\n\n7 \x80\n", 3),
        (b"0 1\r\n\r\n1 2\r\n5 \xe9\r\n", 4),
        (b"0 1\r1 2\r3 4\xc3", 3),
    ], ids=["first", "after_lf", "after_blank", "crlf", "cr_truncated"])
    def test_non_utf8_names_line(self, tmp_path, data, line):
        path = tmp_path / "g.edges"
        path.write_bytes(data)
        with pytest.raises(EdgeListParseError, match=f"^line {line}: not UTF-8 text$"):
            load_edge_list(path)

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

    @pytest.mark.parametrize("text, node", [
        ("0 9223372036854775808", "9223372036854775808"),
        ("-9223372036854775809 1", "-9223372036854775809"),
    ])
    def test_out_of_range_id_names_line(self, tmp_path, text, node):
        with pytest.raises(EdgeListParseError,
                           match=f"^line 2: node id {node} is outside the signed 64-bit range$"):
            load_edge_list(_edge_file(tmp_path, f"3 4\n{text}\n"))

    def test_extreme_ids_are_kept_exactly(self, tmp_path):
        g, _ = load_edge_list(_edge_file(tmp_path, "9223372036854775807 -9223372036854775808"))
        assert g.node_list == (2**63 - 1, -2**63)
        assert g.edge_list == ((2**63 - 1, -2**63),)


class TestGraphQueries:
    def test_degree_triangle(self):
        g = Graph([(0, 1), (0, 2), (1, 2)])
        assert g.degrees.tolist() == [2, 2, 2]

    def test_degree_path(self):
        g = Graph([(0, 1), (1, 2)])
        assert g.degrees[g.dense_index[1]] == 2
        assert g.degrees[g.dense_index[0]] == 1

    def test_degree_star(self):
        g = Graph([(0, i) for i in range(1, 6)])
        assert g.degrees.tolist() == [5, 1, 1, 1, 1, 1]

    def test_shared_neighbors_g1(self, g1):
        counts, index = g1.common_neighbor_counts, g1.dense_index
        assert counts[index[1], index[2]] == 2  # {0, 3}
        assert counts[index[0], index[4]] == 0

    def test_shared_neighbors_self(self, g1):
        # a node shares all of its neighbors with itself
        assert np.diagonal(g1.common_neighbor_counts).tolist() == g1.degrees.tolist()

    def test_self_loop_rejected(self):
        for pairs in ([(1, 1)], [(0, 1), (2, 2)], np.array([[0, 1], [3, 3]])):
            with pytest.raises(ValueError, match="self-loop"):
                Graph(pairs)

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

    def test_negative_seed_gives_the_positive_seeds_split(self, g1):
        for seed in range(1, 20):
            assert split_edges(g1, 0.4, -seed) == split_edges(g1, 0.4, seed)

    def test_different_seeds_differ(self):
        g = Graph([(0, i) for i in range(1, 171)])
        assert split_edges(g, 0.1, seed=1) != split_edges(g, 0.1, seed=2)

    def test_equality_compares_both_arrays(self, g1):
        a, b = split_edges(g1, 0.4, 3), split_edges(g1, 0.4, 3)
        swapped = EdgePartition(train=a.test, test=a.train)
        assert (a == b) is True and (a != b) is False
        assert (a == swapped) is False and (a != swapped) is True
        assert (a == split_edges(g1, 0.4, 4)) is False
        assert a != (a.train, a.test)
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)

    def test_union_restores_edge_set(self, g1):
        original = set(g1.edge_list)
        for seed in range(1000):
            part = split_edges(g1, 0.4, seed)
            assert part.train.dtype == part.test.dtype == np.int64
            train = set(map(tuple, part.train.tolist()))
            test = set(map(tuple, part.test.tolist()))
            assert train | test == original
            assert train & test == set()

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
        g = Graph([(0, 1), (1, 2)])  # dense index i is node i
        draws = sample_non_neighbor(g, np.zeros(50, dtype=np.intp), np.random.default_rng(0))
        assert draws.tolist() == [2] * 50

    def test_saturated_node(self):
        g = Graph([(0, 1), (0, 2), (1, 2), (2, 3)])  # node 2 is adjacent to all others
        with pytest.raises(SaturatedNodeError, match="node 2"):
            sample_non_neighbor(g, np.array([0, 2, 1]), np.random.default_rng(0))

    def test_unknown_node(self, g1):
        for index in (5, 99, -1):  # g1 has dense indices 0..4; -1 must not wrap around
            with pytest.raises(IndexError):
                sample_non_neighbor(g1, np.array([0, index]), np.random.default_rng(0))

    def test_star_leaf_uniform(self):
        # from leaf 1 the candidates are the other four leaves, p = 1/4 each
        g = Graph([(0, i) for i in range(1, 6)])  # dense index i is node i
        draws = 100_000
        got = sample_non_neighbor(g, np.full(draws, 1), np.random.default_rng(42))
        counts = np.bincount(got, minlength=6)
        assert counts[[0, 1]].tolist() == [0, 0]
        sigma = (0.25 * 0.75 / draws) ** 0.5
        for w in (2, 3, 4, 5):
            assert abs(counts[w] / draws - 0.25) < 3 * sigma

    def test_never_returns_self_or_neighbor(self):
        rng = random.Random(7)
        for seed in range(20):
            g = _random_graph(seed, rng)
            starts = np.repeat(np.flatnonzero(g.degrees < g.num_nodes - 1), 250)
            drawn = sample_non_neighbor(g, starts, np.random.default_rng(seed))
            assert drawn.shape == starts.shape
            assert not np.any(drawn == starts)
            assert not np.any(g.adjacency_matrix[starts, drawn])


def _random_graph(seed, rng):
    n = rng.randint(3, 10)
    pairs = []
    for _ in range(rng.randint(2, 15)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.append((u, v))
    return Graph(pairs) if pairs else Graph([(0, 1)])


def _reference_graph(pairs):
    """The per-edge canonicalizer that Graph replaced: a dict of neighbor sets
    filled pair by pair. Returns (node_list, edge_list, adjacency)."""
    adjacency: dict[int, set[int]] = {}
    edges = []
    for u, v in pairs:
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed in a simple graph")
        adjacency.setdefault(u, set())
        adjacency.setdefault(v, set())
        if v not in adjacency[u]:
            adjacency[u].add(v)
            adjacency[v].add(u)
            edges.append((u, v))
    return tuple(adjacency), tuple(edges), adjacency


# Edge lists over a few ids drawn from the whole int64 range, so that
# duplicates, reversed duplicates and negative ids are all common.
wide_edge_lists = st.lists(st.integers(-2**63, 2**63 - 1), min_size=2, max_size=8,
                           unique=True).flatmap(
    lambda ids: st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids))
                         .filter(lambda e: e[0] != e[1]), max_size=30))


class TestReferenceCanonicalizer:
    @given(st.one_of(edge_lists(), wide_edge_lists))
    def test_matches_the_per_edge_loop(self, pairs):
        pairs = pairs + [(v, u) for u, v in pairs[::3]]  # reversed duplicates
        node_list, edge_list, adjacency = _reference_graph(pairs)
        g = Graph(pairs)
        assert g.node_list == node_list
        assert g.edge_list == edge_list
        assert g.degrees.tolist() == [len(adjacency[u]) for u in node_list]
        expected = [[v in adjacency[u] for v in node_list] for u in node_list]
        assert g.adjacency_matrix.tolist() == expected
        assert g.nodes.dtype == g.edges.dtype == np.int64
        assert g.edges.shape == (len(edge_list), 2)
        h = Graph(np.array(pairs, dtype=np.int64).reshape(-1, 2))  # array input
        assert np.array_equal(g.nodes, h.nodes) and np.array_equal(g.edges, h.edges)

    @pytest.mark.parametrize("pairs, node_list, edge_list", [
        ([], (), ()),
        ([(7, 3)], (7, 3), ((7, 3),)),
        # (1, 2) and (2, 1) repeat the edge first seen as (2, 1)
        ([(0, 9), (2, 1), (1, 2), (2, 1), (0, 2), (1, 2)], (0, 9, 2, 1),
         ((0, 9), (2, 1), (0, 2))),
        ([(5, 2**63 - 1), (-2**63, 5), (2**63 - 1, -2**63), (0, -2**63), (-2**63, 2**63 - 1)],
         (5, 2**63 - 1, -2**63, 0), ((5, 2**63 - 1), (-2**63, 5), (2**63 - 1, -2**63),
                                     (0, -2**63))),
    ], ids=["empty", "one_edge", "reversed_duplicates", "extreme_ids"])
    def test_edge_cases(self, pairs, node_list, edge_list):
        g = Graph(pairs)
        assert (g.node_list, g.edge_list) == (node_list, edge_list) == _reference_graph(pairs)[:2]
        assert g.nodes.dtype == g.edges.dtype == np.int64
        assert g.edges.shape == (len(edge_list), 2)
        assert g.adjacency_matrix.shape == g.common_neighbor_counts.shape == (len(node_list),) * 2
        assert g.degrees.sum() == 2 * len(edge_list)


_INT64 = (-2**63, 2**63 - 1)


@st.composite
def _values_to_group(draw):
    """int64 values: compact (span at most twice the count, grouped by
    counting), wide, negative, or at either int64 boundary."""
    lo = draw(st.sampled_from([0, -40, _INT64[0], _INT64[1] - 40]))
    width = draw(st.sampled_from([3, 40]))
    near = st.integers(lo, lo + width)
    wide = st.integers(*_INT64)
    return draw(st.lists(st.one_of(near, wide) if draw(st.booleans()) else near, max_size=40))


class TestGroups:
    @given(_values_to_group())
    @example([])
    @example([5, 3, 5, 4, 3])  # compact: counted
    @example([0, 10**12, 0])  # wide: sorted
    @example([-7, -9, -7, -8])
    @example([_INT64[0], _INT64[0] + 1, _INT64[0]])
    @example([_INT64[1], _INT64[1] - 2, _INT64[1]])
    @example([_INT64[1], _INT64[0], _INT64[1]])
    def test_matches_np_unique(self, values):
        values = np.array(values, dtype=np.int64)
        _, first, rank = np.unique(values, return_index=True, return_inverse=True)
        got_rank, got_first = _groups(values)
        assert np.array_equal(got_rank, rank) and np.array_equal(got_first, first)
        assert got_rank.dtype == got_first.dtype == np.int64


class TestReadOnly:
    @pytest.mark.parametrize("name", ["nodes", "edges", "degrees", "adjacency_matrix",
                                      "common_neighbor_counts"])
    def test_in_place_write_raises(self, g1, name):
        array = getattr(g1, name)
        before = array.copy()
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
        with pytest.raises(ValueError, match="read-only"):
            array += 1
        assert np.array_equal(getattr(g1, name), before)
        assert getattr(g1, name) is array  # cached: every reader shares it

    def test_transition_and_rwr_allocate_their_own(self, g1):
        degrees = g1.degrees.copy()
        matrix = g1.adjacency_matrix.copy()
        P = build_transition(g1)
        M = build_rwr(g1, 0.5)
        assert P.flags.writeable and M.flags.writeable
        assert np.array_equal(g1.degrees, degrees)
        assert np.array_equal(g1.adjacency_matrix, matrix)


class TestInvariants:
    @given(edge_lists())
    def test_construction_invariants(self, pairs):
        g = Graph(pairs)
        adjacency = neighbor_sets(g)
        assert sum(map(len, adjacency.values())) == 2 * g.num_edges
        assert set(g.node_list) == {x for pair in pairs for x in pair}
        assert len(set(g.node_list)) == g.num_nodes
        assert sorted(g.dense_index.values()) == list(range(g.num_nodes))
        assert {frozenset(e) for e in g.edge_list} == {frozenset(p) for p in pairs}
        assert g.degrees.tolist() == [len(adjacency[u]) for u in g.node_list]

    @given(edge_lists())
    def test_adjacency_matrix_matches_neighbor_sets(self, pairs):
        g = Graph(pairs)
        adjacency = neighbor_sets(g)
        A = g.adjacency_matrix
        assert A.dtype == bool
        assert A.shape == (g.num_nodes, g.num_nodes)
        assert np.array_equal(A, A.T)
        assert not np.diagonal(A).any()
        for u in g.node_list:
            for v in g.node_list:
                assert A[g.dense_index[u], g.dense_index[v]] == (v in adjacency[u])

    @given(edge_lists())
    def test_shared_neighbors_symmetric(self, pairs):
        g = Graph(pairs)
        adjacency = neighbor_sets(g)
        counts = g.common_neighbor_counts
        A = g.adjacency_matrix.astype(np.float32)
        assert counts.dtype == np.float32
        assert np.array_equal(counts, counts.T) and np.array_equal(counts, A @ A)
        for u in g.node_list:
            for v in g.node_list:
                shared = adjacency[u] & adjacency[v]
                assert counts[g.dense_index[u], g.dense_index[v]] == len(shared)

    @pytest.mark.parametrize("name", ["usair_like", "florida_like", "chesapeake_like"])
    def test_common_neighbor_counts_equal_the_full_product(self, name):
        g = Graph(split_edges(getattr(datasets, name)(1), 0.1, 0).train)
        A = g.adjacency_matrix.astype(np.float32)
        assert np.array_equal(g.common_neighbor_counts, A @ A)

    @given(edge_lists())
    def test_common_neighbor_degree_at_least_two(self, pairs):
        g = Graph(pairs)
        A = g.adjacency_matrix
        for i in range(g.num_nodes):
            for j in range(g.num_nodes):
                if i != j:
                    assert np.all(g.degrees[A[i] & A[j]] >= 2)
