import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from linkpred.graph import Graph, split_edges

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Shared example graph: degrees k0=2, k1=3, k2=3, k3=3, k4=1.
G1_EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]
# A 6-ring over 40, 7, 23, 2, 91, 15 plus three chords: its ids are neither
# 0-based nor sorted in first-seen order, so dense index and id differ.
SHUFFLED_RING_EDGES = [(40, 7), (7, 23), (23, 2), (2, 91), (91, 15), (15, 40),
                       (40, 2), (7, 91), (23, 15)]


@pytest.fixture
def g1():
    return Graph(G1_EDGES)


@st.composite
def edge_lists(draw, max_nodes=12, max_edges=30):
    """Random simple-graph edge lists with at least one edge."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            min_size=1,
            max_size=max_edges,
        )
    )
    return pairs


def neighbor_sets(g: Graph) -> dict[int, set[int]]:
    """Each node id's neighbor ids, read from ``g.edge_list`` alone, so that it
    is an oracle independent of the graph's matrices."""
    nbrs: dict[int, set[int]] = {u: set() for u in g.nodes.tolist()}
    for u, v in g.edge_list:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def train_graph(g: Graph, fraction: float, seed: int) -> Graph:
    """The training graph of ``split_edges(g, fraction, seed)`` as
    ``run_experiment`` builds it: the kept rows over all of g's nodes."""
    return Graph(split_edges(g, fraction, seed).train, nodes=g.nodes)


def with_a_degree_zero_node() -> Graph:
    """A triangle with a path 2-3-4-5, trained without (4, 5): node 5, the
    highest dense index, keeps its place with degree 0."""
    full = Graph([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])
    return Graph(full.edges[:5], nodes=full.nodes)


def dense_positions(g: Graph) -> dict[int, int]:
    """Each node id's position in ``g.nodes``: its dense index, the index
    space that scorers and draws use."""
    return {u: i for i, u in enumerate(g.nodes.tolist())}


def grid_adamic_adar(g: Graph, rows, cols) -> list[float]:
    """Adamic-Adar at each pair ``(rows[i], cols[i])`` of dense indices on the
    fixed-point grid: each weight 1/log10 k rounded to the nearest multiple of
    2^-s, s = 51 - bit_length(n - 1), and a pair's shared-neighbor weights
    summed by ``math.fsum`` over the boolean adjacency rows, so that it shares
    no summation with the packed-byte tables."""
    k, A = g.degrees, g.adjacency_matrix
    s = 51 - (g.num_nodes - 1).bit_length()
    with np.errstate(divide="ignore"):  # log10 0 at a node of degree 0, weighed 0
        weight = np.divide(1.0, np.log10(k), out=np.zeros(len(k)), where=k > 1)
    grid = np.rint(weight * 2.0**s) / 2.0**s
    return [math.fsum(grid[A[r] & A[c]]) for r, c in zip(rows, cols)]


@st.composite
def graphs(draw, max_nodes=12, max_edges=30):
    return Graph(draw(edge_lists(max_nodes=max_nodes, max_edges=max_edges)))


def random_simple_graph(n_nodes, n_edges, seed):
    """Plain rejection-sampled random graph for deterministic tests."""
    rng = random.Random(seed)
    seen = set()
    pairs = []
    while len(pairs) < n_edges:
        u = rng.randrange(n_nodes)
        v = rng.randrange(n_nodes)
        if u == v:
            continue
        key = frozenset((u, v))
        if key in seen:
            continue
        seen.add(key)
        pairs.append((u, v))
    return Graph(pairs)


def random_connected_graph(n_nodes: int, n_edges: int, seed: int) -> Graph:
    """Uniform random-tree skeleton plus uniform extra edges; always connected."""
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    if not n_nodes - 1 <= n_edges <= n_nodes * (n_nodes - 1) // 2:
        raise ValueError(f"cannot place {n_edges} edges on {n_nodes} nodes")
    rng = random.Random(seed)
    order = list(range(n_nodes))
    rng.shuffle(order)
    adjacency: dict[int, set[int]] = {i: set() for i in range(n_nodes)}
    pairs: list[tuple[int, int]] = []

    def add(u: int, v: int) -> None:
        adjacency[u].add(v)
        adjacency[v].add(u)
        pairs.append((u, v))

    for i in range(1, n_nodes):
        add(order[rng.randrange(i)], order[i])
    while len(pairs) < n_edges:
        u = rng.randrange(n_nodes)
        v = rng.randrange(n_nodes)
        if u != v and v not in adjacency[u]:
            add(u, v)
    return Graph(pairs)
