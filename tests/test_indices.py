import math

import numpy as np
import pytest
from hypothesis import given

from conftest import edge_lists
from linkpred.graph import Graph
from linkpred.indices import (
    BATCH_INDICES,
    LOCAL_INDICES,
    adamic_adar,
    common_neighbors,
    hub_depressed,
    hub_promoted,
    lhn1,
    lhn1_variant,
)

# Hand-derived on G1 (degrees k0=2, k1=3, k2=3, k3=3, k4=1):
#   shared(1,2) = {0,3}; shared(0,3) = {1,2}; shared(0,4) = {}
G1_CASES = [
    (common_neighbors, 1, 2, 2.0),
    (common_neighbors, 0, 4, 0.0),
    (hub_promoted, 1, 2, 2 / 3),  # 2 / min(3,3)
    (hub_promoted, 0, 3, 1.0),  # 2 / min(2,3)
    (hub_promoted, 0, 4, 0.0),
    (hub_depressed, 1, 2, 2 / 3),  # 2 / max(3,3)
    (hub_depressed, 0, 3, 2 / 3),  # 2 / max(2,3)
    (hub_depressed, 0, 4, 0.0),
    (lhn1, 1, 2, 2 / 9),
    (lhn1, 0, 3, 1 / 3),
    (lhn1, 0, 4, 0.0),
    (adamic_adar, 1, 2, 5.417831369176747),  # 1/log10(2) + 1/log10(3)
    (adamic_adar, 0, 3, 4.19180654857877),  # 2/log10(3)
    (adamic_adar, 0, 4, 0.0),
    (lhn1_variant, 1, 2, 2.095903274289385),  # 2/log10(9)
    (lhn1_variant, 0, 3, 2.5701944178769374),  # 2/log10(6)
]


@pytest.mark.parametrize("index,u,v,expected", G1_CASES)
def test_g1_values(g1, index, u, v, expected):
    assert index(g1, u, v) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_common_neighbors_path():
    g = Graph([(0, 1), (1, 2)])
    assert common_neighbors(g, 0, 2) == 1


def test_lhn1_variant_zero_denominator():
    # both endpoints degree 1: log10(1 * 1) = 0, so the score is defined as 0
    g = Graph([(0, 1), (2, 3)])
    assert lhn1_variant(g, 0, 1) == 0.0


def test_unknown_node_raises():
    g = Graph([(0, 1), (1, 2)])
    for index in LOCAL_INDICES.values():
        with pytest.raises(KeyError):
            index(g, 0, 99)


def test_cli_names_cover_all_six():
    assert set(LOCAL_INDICES) == {"cn", "hub_prom", "hub_depr", "lhn1", "aa", "lhn1_var"}


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
    adjacency = {u: set(g.adjacency[u]) for u in g.node_list}
    for u in g.node_list:
        for v in g.node_list:
            if u == v:
                continue
            expected = _naive_scores(adjacency, u, v)
            for name, index in LOCAL_INDICES.items():
                assert index(g, u, v) == pytest.approx(
                    expected[name], rel=1e-12, abs=1e-15
                )


@given(edge_lists())
def test_symmetry(pairs):
    g = Graph(pairs)
    for u in g.node_list:
        for v in g.node_list:
            if u == v:
                continue
            for index in LOCAL_INDICES.values():
                assert index(g, u, v) == index(g, v, u)


@given(edge_lists())
def test_hub_depressed_never_exceeds_hub_promoted(pairs):
    g = Graph(pairs)
    for u in g.node_list:
        for v in g.node_list:
            if u != v:
                assert hub_depressed(g, u, v) <= hub_promoted(g, u, v) + 1e-15


@given(edge_lists())
def test_zero_shared_neighbors_means_zero_score(pairs):
    g = Graph(pairs)
    for u in g.node_list:
        for v in g.node_list:
            if u != v and not g.shared_neighbors(u, v):
                for index in LOCAL_INDICES.values():
                    assert index(g, u, v) == 0.0


@given(edge_lists())
def test_adamic_adar_guard_is_unreachable(pairs):
    # every common neighbor has degree >= 2, so adamic_adar never divides by log10(1) = 0
    g = Graph(pairs)
    for u in g.node_list:
        for v in g.node_list:
            if u == v:
                continue
            assert all(g.degree(w) >= 2 for w in g.shared_neighbors(u, v))


@given(edge_lists())
def test_batch_forms_match_per_pair(pairs):
    g = Graph(pairs)
    ordered = [(u, v) for u in g.node_list for v in g.node_list if u != v]
    rows = np.array([g.dense_index[u] for u, _ in ordered])
    cols = np.array([g.dense_index[v] for _, v in ordered])
    assert BATCH_INDICES.keys() == LOCAL_INDICES.keys()
    for name, batch in BATCH_INDICES.items():
        with np.errstate(all="raise"):
            got = batch(g, rows, cols)
        expected = [LOCAL_INDICES[name](g, u, v) for u, v in ordered]
        if name in ("aa", "lhn1_var"):  # numpy log10 and summation order
            assert got.tolist() == pytest.approx(expected, rel=1e-12, abs=0), name
        else:
            assert got.tolist() == expected, name
