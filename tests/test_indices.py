import math
import tracemalloc
from collections import Counter
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (dense_positions, edge_lists, grid_adamic_adar, neighbor_sets,
                      random_connected_graph, train_graph)
from linkpred import datasets, evaluate, indices
from linkpred.evaluate import comparison_pairs, derive_seed, draw_comparisons, run_experiment
from linkpred.graph import Graph, split_edges
from linkpred.indices import LOCAL_INDICES
from linkpred.pipelines import local_index_factory

KINDS = {
    "common_neighbors": "cn",
    "hub_promoted": "hub_prom",
    "hub_depressed": "hub_depr",
    "lhn1": "lhn1",
    "adamic_adar": "aa",
    "lhn1_variant": "lhn1_var",
}

# Hand-derived on G1 (degrees k0=2, k1=3, k2=3, k3=3, k4=1):
#   shared(1,2) = {0,3}; shared(0,3) = {1,2}; shared(0,4) = {}
G1_CASES = [
    ("common_neighbors", 1, 2, 2.0),
    ("common_neighbors", 0, 4, 0.0),
    ("hub_promoted", 1, 2, 2 / 3),  # 2 / min(3,3)
    ("hub_promoted", 0, 3, 1.0),  # 2 / min(2,3)
    ("hub_promoted", 0, 4, 0.0),
    ("hub_depressed", 1, 2, 2 / 3),  # 2 / max(3,3)
    ("hub_depressed", 0, 3, 2 / 3),  # 2 / max(2,3)
    ("hub_depressed", 0, 4, 0.0),
    ("lhn1", 1, 2, 2 / 9),
    ("lhn1", 0, 3, 1 / 3),
    ("lhn1", 0, 4, 0.0),
    ("adamic_adar", 1, 2, 5.417831369176747),  # 1/log10(2) + 1/log10(3)
    ("adamic_adar", 0, 3, 4.19180654857877),  # 2/log10(3)
    ("adamic_adar", 0, 4, 0.0),
    ("lhn1_variant", 1, 2, 2.095903274289385),  # 2/log10(9)
    ("lhn1_variant", 0, 3, 2.5701944178769374),  # 2/log10(6)
]


def _score(g, kind, u, v):
    """One pair of node ids through the index's array form."""
    index = dense_positions(g)
    rows, cols = np.array([index[u]]), np.array([index[v]])
    return LOCAL_INDICES[kind](g, rows, cols)[0]


def _ordered_pairs(g):
    """Node ids and dense rows, cols of every ordered pair of distinct nodes."""
    ids = g.nodes.tolist()
    ordered = [(u, v) for u in ids for v in ids if u != v]
    index = dense_positions(g)
    rows = np.array([index[u] for u, _ in ordered], dtype=np.intp)
    cols = np.array([index[v] for _, v in ordered], dtype=np.intp)
    return ordered, rows, cols


@pytest.mark.parametrize("index,u,v,expected", G1_CASES)
def test_g1_values(g1, index, u, v, expected):
    assert _score(g1, KINDS[index], u, v) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_common_neighbors_path():
    g = Graph([(0, 1), (1, 2)])
    assert _score(g, "cn", 0, 2) == 1


def test_lhn1_variant_zero_denominator():
    # both endpoints degree 1: log10(1 * 1) = 0, so the score is defined as 0
    g = Graph([(0, 1), (2, 3)])
    with np.errstate(all="raise"):
        assert _score(g, "lhn1_var", 0, 1) == 0.0


def test_unknown_node_raises():
    g = Graph([(0, 1), (1, 2)])
    for kind in LOCAL_INDICES:
        scorer = local_index_factory(kind).build(g, 0)
        with pytest.raises(IndexError):
            scorer.score(g, 0, 99)  # dense index out of range


def test_cli_names_cover_all_six():
    assert list(LOCAL_INDICES) == ["cn", "hub_prom", "hub_depr", "lhn1", "aa", "lhn1_var"]


def _naive_scores(adjacency, u, v):
    """Independent recomputation straight from a dict-of-sets adjacency."""
    shared = [w for w in adjacency[u] if w in adjacency[v]]
    ku, kv = len(adjacency[u]), len(adjacency[v])
    out = {
        "cn": float(len(shared)),
        "hub_prom": len(shared) / min(ku, kv),
        "hub_depr": len(shared) / max(ku, kv),
        "lhn1": len(shared) / (ku * kv),
        "aa": sum(1 / math.log10(len(adjacency[w])) for w in shared),
    }
    log_prod = math.log10(ku) + math.log10(kv)
    out["lhn1_var"] = 0.0 if abs(log_prod) < 1e-9 else len(shared) / log_prod
    return out


@given(edge_lists())
def test_brute_force_oracle(pairs):
    g = Graph(pairs)
    adjacency = neighbor_sets(g)
    ordered, rows, cols = _ordered_pairs(g)
    naive = [_naive_scores(adjacency, u, v) for u, v in ordered]
    for name, index in LOCAL_INDICES.items():
        with np.errstate(all="raise"):
            got = index(g, rows, cols)
        expected = [scores[name] for scores in naive]
        if name in ("aa", "lhn1_var"):  # numpy log10 and summation order
            assert got.tolist() == pytest.approx(expected, rel=1e-12, abs=0), name
        else:
            assert got.tolist() == expected, name


@given(edge_lists())
def test_symmetry(pairs):
    g = Graph(pairs)
    _, rows, cols = _ordered_pairs(g)
    for index in LOCAL_INDICES.values():
        assert index(g, rows, cols).tolist() == index(g, cols, rows).tolist()


@given(edge_lists())
def test_hub_depressed_never_exceeds_hub_promoted(pairs):
    g = Graph(pairs)
    _, rows, cols = _ordered_pairs(g)
    depressed = LOCAL_INDICES["hub_depr"](g, rows, cols)
    assert np.all(depressed <= LOCAL_INDICES["hub_prom"](g, rows, cols) + 1e-15)


@given(edge_lists())
def test_zero_shared_neighbors_means_zero_score(pairs):
    g = Graph(pairs)
    ordered, rows, cols = _ordered_pairs(g)
    adjacency = neighbor_sets(g)
    none_shared = np.array([not adjacency[u] & adjacency[v] for u, v in ordered], dtype=bool)
    for index in LOCAL_INDICES.values():
        assert np.all(index(g, rows, cols)[none_shared] == 0.0)


@given(edge_lists())
def test_adamic_adar_guard_is_unreachable(pairs):
    # every common neighbor has degree >= 2, so adamic_adar never uses the
    # weight it leaves at 0 for degree 1
    g = Graph(pairs)
    _, rows, cols = _ordered_pairs(g)
    A = g.adjacency_matrix
    assert np.all(g.degrees[np.nonzero(A[rows] & A[cols])[1]] >= 2)



def test_adamic_adar_blocks_match_grid_fsum():
    # The 1,000 non-edge draws of a usair_like trial repeat pairs and are no
    # multiple of 256; every ordered pair of a florida_like training graph is
    # many times that. The math.fsum of each pair's grid weights is the
    # reference, bit for bit.
    full = datasets.usair_like(1)
    partition = split_edges(full, 0.1, 0)
    usair = Graph(partition.train, nodes=full.nodes)
    draws = draw_comparisons(partition, usair, 1000, derive_seed(0, "auc"))
    florida = train_graph(datasets.florida_like(1), 0.1, 0)
    keys = draws[:, 2] * usair.num_nodes + draws[:, 3]
    assert len(np.unique(keys)) < len(keys) and len(keys) % 256
    cases = ((usair, draws[:, 2], draws[:, 3]), (florida, *_ordered_pairs(florida)[1:]))
    for g, rows, cols in cases:
        assert len(rows) > 256
        assert np.array_equal(indices._adamic_adar(g, rows, cols),
                              grid_adamic_adar(g, rows, cols))


@pytest.mark.parametrize("isolated", [False, True], ids=["connected", "degree-0"])
@pytest.mark.parametrize("n", [15, 16, 17, 63, 64, 65])
def test_adamic_adar_reads_every_byte_column(n, isolated):
    # n = 8k - 1, 8k and 8k + 1: the last byte column of a packed row holds
    # 7, 8 or 1 nodes, then zero padding to the next 64-bit word. With
    # "degree-0", the highest dense index loses its edges but keeps its place.
    full = random_connected_graph(n, 3 * n, seed=n)
    keep = (full.edges != n - 1).all(axis=1) if isolated else slice(None)
    g = Graph(full.edges[keep], nodes=full.nodes)
    assert g.adamic_adar_table.shape == (-(-n // 8), 256)
    assert g.degrees[-1] == 0 if isolated else g.degrees[-1] >= 2
    _, rows, cols = _ordered_pairs(g)
    assert np.array_equal(indices._adamic_adar(g, rows, cols), grid_adamic_adar(g, rows, cols))


def test_adamic_adar_temporaries_stay_small():
    # One usair_like trial's 2,000 pairs (1,155 of them with a common
    # neighbor), their features and the weight table built beforehand. Read a
    # byte column at a time, the call peaks at ~93 KB: the shared rows of the
    # AND (55 KB), one column's take and the result. A gather of whole
    # 42-entry rows of table weights per 256-pair block peaks at ~243 KB.
    full = datasets.usair_like(1)
    partition = split_edges(full, 0.1, 0)
    g = Graph(partition.train, nodes=full.nodes)
    rows, cols = comparison_pairs(draw_comparisons(partition, g, 1000, derive_seed(0, "auc")))
    g.pair_features(rows, cols)  # both kept on g, so the call below only reads them
    g.adamic_adar_table
    tracemalloc.start()
    try:
        indices._adamic_adar(g, rows, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150_000


# (partition seed, draw row) of chesapeake_like trials whose withheld and
# non-edge pairs share neighbors of the same degrees, and which a plain float
# sum of the weights 1/log10 k does not tie: the first four of seeds 0-99,
# (10, 17, 18, 19, 20, 21) at seed 32, (11, 16, 17, 18, 21) at seed 59 and
# (9, 10, 18, 20, 21) at seed 60.
EQUAL_DEGREE_DRAWS = [(32, 304), (59, 58), (59, 593), (60, 206)]


@pytest.mark.parametrize("seed,row", EQUAL_DEGREE_DRAWS)
def test_adamic_adar_ties_equal_shared_degrees(seed, row):
    # Pairs whose shared neighbors have the same degrees score the same, so
    # the tally counts a tie, not a win or a loss by an ulp of rounding.
    full = datasets.chesapeake_like()
    partition = split_edges(full, 0.1, seed)
    g = Graph(partition.train, nodes=full.nodes)
    u, v, a, b = draw_comparisons(partition, g, 1000, derive_seed(seed, "auc"))[row]
    A = g.adjacency_matrix
    assert sorted(g.degrees[A[u] & A[v]]) == sorted(g.degrees[A[a] & A[b]])
    withheld, non_edge = indices._adamic_adar(g, np.array([u, a]), np.array([v, b]))
    assert withheld == non_edge


@given(edge_lists(), st.integers(0, 2**32 - 1))
def test_adamic_adar_bits_do_not_depend_on_pair_order(pairs, seed):
    # Every ordered pair, repeated to 2 * 256 + 1 pairs, then shuffled: each
    # score has the same bits in any position, and as the only pair asked for.
    g = Graph(pairs)
    _, rows, cols = _ordered_pairs(g)
    alone = [indices._adamic_adar(g, rows[i:i + 1], cols[i:i + 1])[0]
             for i in range(len(rows))]
    rows, cols = (np.resize(x, 2 * 256 + 1) for x in (rows, cols))
    scores = indices._adamic_adar(g, rows, cols)
    assert scores.tolist() == np.resize(alone, len(rows)).tolist()
    order = np.random.default_rng(seed).permutation(len(rows))
    assert np.array_equal(indices._adamic_adar(g, rows[order], cols[order]), scores[order])


@given(edge_lists())
def test_batch_forms_match_per_pair(pairs):
    # a scorer's pairs form over all ordered pairs at once agrees with its
    # score form called one pair at a time
    g = Graph(pairs)
    _, rows, cols = _ordered_pairs(g)
    for kind in LOCAL_INDICES:
        scorer = local_index_factory(kind).build(g, 0)
        with np.errstate(all="raise"):
            got = scorer.pairs(rows, cols)
            expected = [scorer.score(g, i, j) for i, j in zip(rows.tolist(), cols.tolist())]
        if kind == "lhn1_var":  # numpy log10 may take another loop for one pair
            assert got.tolist() == pytest.approx(expected, rel=1e-12, abs=0), kind
        else:
            assert got.tolist() == expected, kind

def test_neighbor_bits_built_once_per_training_graph(monkeypatch):
    # The six local levels of a trial share its training graph, so its packed
    # adjacency rows are built once per trial, not once per level or per
    # column of draws.
    builds = []

    class CountingGraph(Graph):
        @cached_property
        def neighbor_bits(self):
            builds.append(self)
            return Graph.neighbor_bits.func(self)

    monkeypatch.setattr(evaluate, "Graph", CountingGraph)
    levels = [local_index_factory(kind) for kind in LOCAL_INDICES]
    run_experiment(random_connected_graph(40, 120, seed=3), levels, trials=3,
                   comparisons=200)
    assert len(builds) == 3
    assert len({id(g) for g in builds}) == 3


def test_packed_rows_intersected_once_per_training_graph(monkeypatch):
    # The six local levels score the same pairs, so the AND of the packed
    # rows at those pairs is taken once per trial: neighbor_bits is read
    # only when the graph's last pairs differ from the asked ones.
    reads = []

    class CountingGraph(Graph):
        @property
        def neighbor_bits(self):
            reads.append(self)
            return Graph.neighbor_bits.__get__(self)

    monkeypatch.setattr(evaluate, "Graph", CountingGraph)
    levels = [local_index_factory(kind) for kind in LOCAL_INDICES]
    run_experiment(random_connected_graph(40, 120, seed=3), levels, trials=3,
                   comparisons=200)
    assert len(reads) == 3
    assert len({id(g) for g in reads}) == 3


def test_six_local_levels_take_their_pair_features_once(monkeypatch):
    # One usair_like trial: the first level intersects the packed rows and
    # gathers both endpoint degrees, once for all six; aa builds its weight
    # table, which reads the degrees once more; no other level reads either.
    level, reads = [None], Counter()

    class CountingGraph(Graph):
        @property
        def neighbor_bits(self):
            reads[level[0], "neighbor_bits"] += 1
            return Graph.neighbor_bits.__get__(self)

        @property
        def degrees(self):
            reads[level[0], "degrees"] += 1
            return Graph.degrees.__get__(self)

        @cached_property
        def adamic_adar_table(self):
            reads[level[0], "adamic_adar_table"] += 1
            return Graph.adamic_adar_table.func(self)

    estimate_auc = evaluate.estimate_auc

    def tagged(*args):
        level[0] = args[-1].tag
        try:
            return estimate_auc(*args)
        finally:
            level[0] = None

    monkeypatch.setattr(evaluate, "Graph", CountingGraph)
    monkeypatch.setattr(evaluate, "estimate_auc", tagged)
    levels = [local_index_factory(kind) for kind in LOCAL_INDICES]
    result = run_experiment(datasets.usair_like(1), levels, trials=1)
    assert result.levels() == tuple(LOCAL_INDICES)
    assert {key: count for key, count in reads.items() if key[0] is not None} == {
        ("cn", "neighbor_bits"): 1, ("cn", "degrees"): 1,
        ("aa", "adamic_adar_table"): 1, ("aa", "degrees"): 1}


def test_adamic_adar_table_is_a_read_only_function_of_the_degrees():
    # A 6-ring and two triangles: the same degrees, different edges. Entry
    # [0, b] sums the grid weight 1/log10 2 of each node set in byte b.
    ring = Graph([(i, (i + 1) % 6) for i in range(6)])
    triangles = Graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    table = ring.adamic_adar_table
    assert not table.flags.writeable and table.shape == (1, 256)
    assert np.array_equal(table, triangles.adamic_adar_table)
    weight = grid_adamic_adar(triangles, [0], [1])[0]  # one common neighbor, node 2
    assert table[0].tolist() == [weight * bin(b >> 2).count("1") for b in range(256)]
    # ceil(n / 8) * 256 doubles: 86 KB at n = 332
    assert train_graph(datasets.usair_like(1), 0.1, 0).adamic_adar_table.nbytes == 42 * 256 * 8


@pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "kept"])
def test_adamic_adar_matches_grid_fsum_with_a_fresh_or_kept_table(earlier):
    g = train_graph(datasets.usair_like(1), 0.1, 0)
    rng = np.random.default_rng(8)
    rows, cols, other_rows, other_cols = rng.integers(g.num_nodes, size=(4, 2000))
    if earlier:  # an earlier call on other pairs builds the table and keeps it
        indices._adamic_adar(g, other_rows, other_cols)
    assert ("adamic_adar_table" in vars(g)) == earlier
    assert np.array_equal(indices._adamic_adar(g, rows, cols), grid_adamic_adar(g, rows, cols))
