import pytest

from linkpred import datasets

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
