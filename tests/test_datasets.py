import numpy as np
import pytest

from linkpred import datasets
from linkpred.graph import load_edge_list

OTHER_SEED = 7


@pytest.mark.parametrize("seed", [datasets.DEFAULT_SEED, OTHER_SEED])
@pytest.mark.parametrize(
    "generator,nodes,edges",
    [
        (datasets.chesapeake_like, 30, 170),
        (datasets.usair_like, 332, 2126),
        (datasets.florida_like, 128, 2048),
    ],
)
def test_exact_counts(generator, nodes, edges, seed):
    g = generator(seed)
    assert (g.num_nodes, g.num_edges) == (nodes, edges)
    assert sorted(g.nodes.tolist()) == list(range(nodes))


def test_embedding_benchmark_graph_counts():
    # planted partitions fix the node count; the edge count is random, ~1500
    g = datasets.embedding_benchmark_graph()
    assert (g.num_nodes, g.num_edges) == (150, 1506)
    other = datasets.embedding_benchmark_graph(OTHER_SEED)
    assert other.num_nodes == 150
    assert abs(other.num_edges - 1500) < 150


@pytest.mark.parametrize("name", ["chesapeake_like", "usair_like", "florida_like",
                                  "embedding_benchmark_graph"])
def test_write_then_load_gives_the_same_arrays(tmp_path, name):
    g = getattr(datasets, name)()
    path = tmp_path / "g.edges"
    datasets.write_edge_list(g, path)
    parsed, dropped = load_edge_list(path)
    assert dropped == 0
    for got, expected in ((parsed.nodes, g.nodes), (parsed.edges, g.edges)):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
