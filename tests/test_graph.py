import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (G1_EDGES, dense_positions, edge_lists, grid_adamic_adar,
                      neighbor_sets, train_graph)
from linkpred import datasets
from linkpred.graph import (
    EdgeListParseError,
    EdgePartition,
    Graph,
    SaturatedNodeError,
    load_edge_list,
    sample_non_neighbor,
    split_edges,
)
from linkpred.indices import LOCAL_INDICES
from linkpred.rwr import build_rwr, build_transition


def _every_pair_counts(g):
    """``g.common_neighbors`` at every ordered pair of dense indices, as (n, n)."""
    rows, cols = np.indices((g.num_nodes,) * 2).reshape(2, -1)
    return g.common_neighbors(rows, cols).reshape(g.num_nodes, g.num_nodes)


def _assert_counts_are_set_intersections(g, counts):
    adjacency, index = neighbor_sets(g), dense_positions(g)
    for u in index:
        for v in index:
            shared = adjacency[u] & adjacency[v]
            assert counts[index[u], index[v]] == len(shared)


@st.composite
def _graphs_at_word_edges(draw):
    """Graphs on 63, 64, 65, 127, 128 or 129 nodes: a path through every node
    in a drawn order, plus drawn chords."""
    n = draw(st.sampled_from([63, 64, 65, 127, 128, 129]))
    path = draw(st.permutations(range(n)))
    node = st.integers(0, n - 1)
    chords = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                           max_size=4 * n))
    return Graph(list(zip(path, path[1:])) + chords)


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
        assert set(g.nodes.tolist()) == {0, 1}
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
        assert g.nodes.tolist() == [10, 20, 30]

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
        assert g.nodes.tolist() == [2**63 - 1, -2**63]
        assert g.edge_list == ((2**63 - 1, -2**63),)


class TestGraphQueries:
    def test_degree_triangle(self):
        g = Graph([(0, 1), (0, 2), (1, 2)])
        assert g.degrees.tolist() == [2, 2, 2]

    def test_degree_path(self):
        g = Graph([(0, 1), (1, 2)])
        index = dense_positions(g)
        assert g.degrees[index[1]] == 2
        assert g.degrees[index[0]] == 1

    def test_degree_star(self):
        g = Graph([(0, i) for i in range(1, 6)])
        assert g.degrees.tolist() == [5, 1, 1, 1, 1, 1]

    def test_shared_neighbors_g1(self, g1):
        counts, index = _every_pair_counts(g1), dense_positions(g1)
        assert counts[index[1], index[2]] == 2  # {0, 3}
        assert counts[index[0], index[4]] == 0

    def test_shared_neighbors_self(self, g1):
        # a node shares all of its neighbors with itself
        assert np.diagonal(_every_pair_counts(g1)).tolist() == g1.degrees.tolist()

    def test_no_pairs_count_nothing(self, g1):
        none = np.array([], dtype=np.intp)
        for g in (g1, Graph([])):
            counts = g.common_neighbors(none, none)
            assert counts.shape == (0,) and counts.dtype == np.float64

    def test_pair_work_is_kept_by_value(self):
        # A graph keeps the work of its last pairs. Mutating the asked arrays in
        # place, or asking other pairs of the same length, must not return it.
        g = train_graph(datasets.florida_like(1), 0.1, 0)
        adjacency, ids = neighbor_sets(g), g.nodes.tolist()
        rng = np.random.default_rng(5)
        rows, cols = rng.integers(g.num_nodes, size=(2, 200))

        def check(counts, rows, cols):
            expected = [len(adjacency[ids[u]] & adjacency[ids[v]])
                        for u, v in zip(rows.tolist(), cols.tolist())]
            features = g.pair_features(rows, cols)
            assert features.counts is counts
            assert not any(a.flags.writeable for a in features)
            assert counts.tolist() == expected
            assert features.row_degrees.tolist() == [len(adjacency[ids[u]]) for u in rows]
            assert features.col_degrees.tolist() == [len(adjacency[ids[v]]) for v in cols]
            return expected

        before = check(g.common_neighbors(rows, cols), rows, cols)
        rows[-1] = cols[-1]  # the last pair only: a node shares its degree with itself
        assert check(g.common_neighbors(rows, cols), rows, cols) != before
        other_rows, other_cols = rng.integers(g.num_nodes, size=(2, 200))
        check(g.common_neighbors(other_rows, other_cols), other_rows, other_cols)

    def test_self_loop_rejected(self):
        for pairs in ([(1, 1)], [(0, 1), (2, 2)], np.array([[0, 1], [3, 3]])):
            with pytest.raises(ValueError, match="self-loop"):
                Graph(pairs)

    def test_edge_order_is_first_seen(self):
        g = Graph([(3, 1), (1, 0), (0, 3)])
        assert g.edge_list == ((3, 1), (1, 0), (0, 3))
        assert g.nodes.tolist() == [3, 1, 0]


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

    @given(edge_lists(), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
    @example([(0, 1), (1, 2)], 0.5, 0)  # node 0 or node 2 loses its one edge
    def test_training_graph_keeps_every_node(self, pairs, fraction, seed):
        # The training graph holds g's nodes as they are, a node of degree 0
        # included, and its edges and the test rows split g's edges exactly.
        g = Graph(pairs)
        assume(g.num_edges >= 2)
        partition = split_edges(g, fraction, seed)
        g_train = Graph(partition.train, nodes=g.nodes)  # shares the rows, read-only
        assert not (partition.train.flags.writeable or partition.test.flags.writeable)
        assert np.array_equal(g_train.nodes, g.nodes)
        train = set(map(tuple, g_train.edges.tolist()))
        test = set(map(tuple, partition.test.tolist()))
        assert not train & test
        assert len(train) + len(test) == g.num_edges
        assert train | test == set(map(tuple, g.edges.tolist()))
        assert g_train.degrees.tolist() == [
            sum(i in edge for edge in train) for i in range(g.num_nodes)]

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

    @given(edge_lists(), st.data())
    def test_equals_the_two_d_rounds_with_a_degree_zero_node(self, pairs, data):
        full = Graph(pairs)
        # Withhold every edge at dense index 0, so that node has degree 0.
        g = Graph(full.edges[(full.edges != 0).all(axis=1)], nodes=full.nodes)
        eligible = np.flatnonzero(g.degrees < g.num_nodes - 1)
        picks = data.draw(st.lists(st.sampled_from(eligible.tolist()), max_size=40))
        starts = np.array([0, *picks], dtype=np.intp)
        _assert_equals_the_two_d_rounds(g, starts, data.draw(st.integers(0, 2**32)))

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_two_d_rounds_on_a_dense_graph(self, seed):
        # K_30 less a perfect matching: each node has one non-neighbor, so a
        # draw is accepted with p = 1/30 and 1,000 starts take many rounds.
        n = 30
        g = Graph([(u, v) for u in range(n) for v in range(u + 1, n) if v != u ^ 1])
        starts = np.random.default_rng(seed).integers(n, size=1000)
        rounds = _assert_equals_the_two_d_rounds(g, starts, seed)
        assert rounds >= 5


def _two_d_rounds(g, starts, rng):
    """The rejection rounds of ``sample_non_neighbor`` as written on 2-D
    advanced indexing, ``A[at, redraw]``, before it read a flat index; the
    checks before the loop are left out. Returns the draws and the number of
    rounds."""
    n = g.num_nodes
    A = g.adjacency_matrix
    drawn = np.empty_like(starts)
    todo = np.arange(starts.size)
    rounds = 0
    while todo.size:
        at = starts[todo]
        redraw = rng.integers(n, size=todo.size)
        drawn[todo] = redraw
        todo = todo[A[at, redraw] | (redraw == at)]
        rounds += 1
    return drawn, rounds


def _assert_equals_the_two_d_rounds(g, starts, seed):
    """``sample_non_neighbor`` gives the reference's draws, dtype and shape, and
    leaves its generator in the reference's state. Returns the rounds taken."""
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_non_neighbor(g, starts, ours)
    expected, rounds = _two_d_rounds(g, starts, theirs)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert ours.bit_generator.state == theirs.bit_generator.state
    return rounds


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
# Edge lists over at most 12 consecutive ids below 0 or at either int64 boundary.
shifted_edge_lists = st.tuples(st.sampled_from([-40, -2**63, 2**63 - 12]), edge_lists()).map(
    lambda shift: [(shift[0] + u, shift[0] + v) for u, v in shift[1]])


class TestInputShape:
    @pytest.mark.parametrize("pairs", [
        [(0, 1, 2), (3, 4, 5)],  # not (0, 1), (2, 3), (4, 5)
        [1, 2, 3, 4],  # not (1, 2), (3, 4)
        [(0.5, 1.7)],  # not (0, 1)
        [(True, False)],
        np.array([[0, 1]], dtype=np.uint64),  # not every uint64 fits int64
        [(2**63, 1)],  # numpy reads it as float64
    ], ids=["three_columns", "flat", "float", "bool", "uint64", "beyond_int64"])
    def test_anything_but_m_by_2_integers_raises(self, pairs):
        with pytest.raises(ValueError, match=r"^pairs must be \(m, 2\) int64 ids, got "):
            Graph(pairs)

    @pytest.mark.parametrize("pairs", [[], (), np.empty((0, 2)), np.empty(0, dtype=np.int64)],
                             ids=["list", "tuple", "float_array", "flat_array"])
    def test_empty_input_is_the_empty_graph(self, pairs):
        g = Graph(pairs)
        assert (g.nodes.shape, g.edges.shape) == ((0,), (0, 2))
        assert g.nodes.dtype == g.edges.dtype == np.int64

    def test_given_nodes_the_rows_are_kept_uncopied(self):
        full = datasets.usair_like()
        train = split_edges(full, 0.1, 0).train
        assert np.shares_memory(Graph(train, nodes=full.nodes).edges, train)
        rows = np.array(G1_EDGES, dtype=np.int64)  # a caller's writable rows stay writable
        assert np.shares_memory(Graph(rows, nodes=np.arange(5)).edges, rows)
        assert rows.flags.writeable


class TestReferenceCanonicalizer:
    @given(st.one_of(edge_lists(), wide_edge_lists, shifted_edge_lists))
    def test_matches_the_per_edge_loop(self, pairs):
        pairs = pairs + [(v, u) for u, v in pairs[::3]]  # reversed duplicates
        node_list, edge_list, adjacency = _reference_graph(pairs)
        g = Graph(pairs)
        assert tuple(g.nodes.tolist()) == node_list
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
        # ids compact, far apart, negative, or at either int64 boundary
        ([(5, 3), (5, 4), (3, 4), (4, 3)], (5, 3, 4), ((5, 3), (5, 4), (3, 4))),
        ([(0, 10**12), (10**12, 0)], (0, 10**12), ((0, 10**12),)),
        ([(-7, -9), (-7, -8), (-9, -8), (-8, -7)], (-7, -9, -8), ((-7, -9), (-7, -8), (-9, -8))),
        ([(-2**63, -2**63 + 1), (-2**63 + 1, -2**63)], (-2**63, -2**63 + 1),
         ((-2**63, -2**63 + 1),)),
        ([(2**63 - 1, 2**63 - 3), (2**63 - 3, 2**63 - 1)], (2**63 - 1, 2**63 - 3),
         ((2**63 - 1, 2**63 - 3),)),
        ([(2**63 - 1, -2**63), (-2**63, 2**63 - 1)], (2**63 - 1, -2**63), ((2**63 - 1, -2**63),)),
    ], ids=["empty", "one_edge", "reversed_duplicates", "extreme_ids", "compact", "wide",
            "compact_negative", "int64_min_and_min_plus_1", "int64_max_and_max_minus_2",
            "int64_min_and_max"])
    def test_edge_cases(self, pairs, node_list, edge_list):
        g = Graph(pairs)
        assert (tuple(g.nodes.tolist()), g.edge_list) == (node_list, edge_list)
        assert (node_list, edge_list) == _reference_graph(pairs)[:2]
        assert g.nodes.dtype == g.edges.dtype == np.int64
        assert g.edges.shape == (len(edge_list), 2)
        n = len(node_list)
        assert g.adjacency_matrix.shape == (n, n)
        assert g.neighbor_bits.shape == (n, (n + 63) // 64)
        A = g.adjacency_matrix.astype(int)
        assert np.array_equal(_every_pair_counts(g), A @ A)
        assert g.degrees.sum() == 2 * len(edge_list)


def _greedy_independent_set(g):
    """Take each node in ascending (degree, index) order unless a neighbor was taken."""
    ids = g.nodes.tolist()
    adjacency = neighbor_sets(g)
    taken = set()
    for i in sorted(range(g.num_nodes), key=lambda i: (len(adjacency[ids[i]]), i)):
        if not any(v in taken for v in adjacency[ids[i]]):
            taken.add(ids[i])
    return sorted(map(ids.index, taken))


class TestIndependentSet:
    @given(edge_lists())
    def test_no_edge_inside(self, pairs):
        g = Graph(pairs)
        inside = np.isin(g.edges, g.independent_set)
        assert not np.any(inside[:, 0] & inside[:, 1])

    @given(edge_lists())
    def test_maximal(self, pairs):
        g = Graph(pairs)
        adjacency = neighbor_sets(g)
        chosen = set(g.nodes[g.independent_set].tolist())
        for u in adjacency.keys() - chosen:
            assert adjacency[u] & chosen, u

    @given(edge_lists())
    def test_deterministic_and_greedy(self, pairs):
        g = Graph(pairs)
        assert np.array_equal(g.independent_set, Graph(pairs).independent_set)
        assert g.independent_set.tolist() == _greedy_independent_set(g)

    def test_hand_checked(self):
        # Star 0 - {1, 2, 3} and 4-cycle 3-4-5-6. By (degree, index): take 1
        # and 2 (0 goes), take 4 (3 and 5 go), take 6. Index order alone
        # would take 0, 4 and 6.
        g = Graph([(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 3)])
        assert g.independent_set.tolist() == [1, 2, 4, 6]
        assert g.independent_set.dtype == np.intp


class TestReadOnly:
    @pytest.mark.parametrize("name", ["nodes", "edges", "degrees", "adjacency_matrix",
                                      "neighbor_bits", "independent_set"])
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
        M, _ = build_rwr(g1, 0.5)  # the raw buffer: an un-permuted copy is always writable
        assert P.flags.writeable and M.flags.writeable
        assert np.array_equal(g1.degrees, degrees)
        assert np.array_equal(g1.adjacency_matrix, matrix)


class TestInvariants:
    @given(edge_lists())
    def test_construction_invariants(self, pairs):
        g = Graph(pairs)
        adjacency = neighbor_sets(g)
        assert sum(map(len, adjacency.values())) == 2 * g.num_edges
        ids = g.nodes.tolist()
        assert set(ids) == {x for pair in pairs for x in pair}
        assert len(set(ids)) == g.num_nodes
        assert sorted(dense_positions(g).values()) == list(range(g.num_nodes))
        assert {frozenset(e) for e in g.edge_list} == {frozenset(p) for p in pairs}
        assert g.degrees.tolist() == [len(adjacency[u]) for u in ids]

    @given(edge_lists())
    def test_adjacency_matrix_matches_neighbor_sets(self, pairs):
        g = Graph(pairs)
        adjacency = neighbor_sets(g)
        A = g.adjacency_matrix
        assert A.dtype == bool
        assert A.shape == (g.num_nodes, g.num_nodes)
        assert A.flags.c_contiguous  # so sample_non_neighbor's ravel() is a view
        assert np.array_equal(A, A.T)
        assert not np.diagonal(A).any()
        index = dense_positions(g)
        for u in index:
            for v in index:
                assert A[index[u], index[v]] == (v in adjacency[u])

    @given(edge_lists())
    def test_shared_neighbors_symmetric(self, pairs):
        g = Graph(pairs)
        counts = _every_pair_counts(g)
        A = g.adjacency_matrix.astype(int)
        assert counts.dtype == np.float64
        assert np.array_equal(counts, counts.T) and np.array_equal(counts, A @ A)
        _assert_counts_are_set_intersections(g, counts)

    @settings(max_examples=20)
    @given(_graphs_at_word_edges())
    def test_shared_neighbors_at_word_edges(self, g):
        # n at, or one off, a multiple of 64: the last word is full, holds one
        # column, or lacks one; its padding bits must stay clear
        n = g.num_nodes
        assert g.neighbor_bits.shape == (n, (n + 63) // 64)
        assert np.bitwise_count(g.neighbor_bits).sum(axis=1).tolist() == g.degrees.tolist()
        _assert_counts_are_set_intersections(g, _every_pair_counts(g))
        # aa at the same pairs reads the bytes of the AND kept from the counts;
        # it must weigh the boolean row intersection, bit for bit
        rows, cols = np.indices((n, n)).reshape(2, -1)
        assert np.array_equal(LOCAL_INDICES["aa"](g, rows, cols),
                              grid_adamic_adar(g, rows, cols))

    @pytest.mark.parametrize("name", ["usair_like", "florida_like", "chesapeake_like"])
    def test_common_neighbor_counts_equal_the_full_product(self, name):
        g = train_graph(getattr(datasets, name)(1), 0.1, 0)
        A = g.adjacency_matrix.astype(int)
        assert np.array_equal(_every_pair_counts(g), A @ A)

    @given(edge_lists())
    def test_common_neighbor_degree_at_least_two(self, pairs):
        g = Graph(pairs)
        A = g.adjacency_matrix
        for i in range(g.num_nodes):
            for j in range(g.num_nodes):
                if i != j:
                    assert np.all(g.degrees[A[i] & A[j]] >= 2)
