"""Deterministic synthetic benchmark graphs.

The graphs the study was run on come from the Network Repository and are not
redistributed; these generators produce stand-ins matching the reported
macro-statistics (node and edge counts, hub-heavy degree profiles, community
structure) so the loader, experiments, and acceptance checks have realistic
desk-scale inputs. Everything is a pure function of its seed.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Union

from .graph import Graph

DEFAULT_SEED = 20230501


def write_edge_list(g: Graph, path: Union[str, Path]) -> None:
    """One "u v" line per undirected edge, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for u, v in g.edge_list:
            handle.write(f"{u} {v}\n")


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


def preferential_attachment_graph(
    n_nodes: int,
    n_edges: int,
    seed: int,
    m: int = 3,
    closure: float = 0.0,
) -> Graph:
    """Hub-heavy graph: growth by preferential attachment with optional
    triadic closure, then degree-weighted extra edges up to the exact count.

    Each new node attaches ``m`` distinct edges; with probability ``closure``
    an attachment closes a triangle through the node's first target, which
    raises clustering the way transport and social networks exhibit it.
    """
    if not 0.0 <= closure <= 1.0:
        raise ValueError("closure must be in [0, 1]")
    core = m + 1
    if n_nodes <= core:
        raise ValueError("n_nodes must exceed m + 1")
    grown = core * (core - 1) // 2 + (n_nodes - core) * m
    if not grown <= n_edges <= n_nodes * (n_nodes - 1) // 2:
        raise ValueError(f"need n_edges in [{grown}, {n_nodes*(n_nodes-1)//2}]")
    rng = random.Random(seed)
    adjacency: dict[int, set[int]] = {i: set() for i in range(n_nodes)}
    endpoint_pool: list[int] = []  # each node repeated once per incident edge
    pairs: list[tuple[int, int]] = []

    def add(u: int, v: int) -> None:
        adjacency[u].add(v)
        adjacency[v].add(u)
        endpoint_pool.extend((u, v))
        pairs.append((u, v))

    for u in range(core):
        for v in range(u + 1, core):
            add(u, v)
    for node in range(core, n_nodes):
        anchor = rng.choice(endpoint_pool)
        add(node, anchor)
        while len(adjacency[node]) < m:
            if rng.random() < closure:
                candidate = rng.choice(sorted(adjacency[anchor]))
                if candidate != node and candidate not in adjacency[node]:
                    add(node, candidate)
                    continue
            candidate = rng.choice(endpoint_pool)
            if candidate != node and candidate not in adjacency[node]:
                add(node, candidate)
    while len(pairs) < n_edges:
        u = rng.choice(endpoint_pool)
        v = rng.choice(endpoint_pool)
        if u != v and v not in adjacency[u]:
            add(u, v)
    return Graph(pairs)


def planted_partition_graph(
    n_nodes: int, n_blocks: int, p_in: float, p_out: float, seed: int
) -> Graph:
    """Bernoulli block model over equal contiguous blocks.

    Any node the coin flips leave isolated is wired to a random same-block
    peer so every node appears in the edge list.
    """
    rng = random.Random(seed)
    block = [i * n_blocks // n_nodes for i in range(n_nodes)]
    adjacency: dict[int, set[int]] = {i: set() for i in range(n_nodes)}
    pairs: list[tuple[int, int]] = []
    for u in range(n_nodes):
        for v in range(u + 1, n_nodes):
            p = p_in if block[u] == block[v] else p_out
            if rng.random() < p:
                adjacency[u].add(v)
                adjacency[v].add(u)
                pairs.append((u, v))
    for u in range(n_nodes):
        if not adjacency[u]:
            peers = [v for v in range(n_nodes) if v != u and block[v] == block[u]]
            v = rng.choice(peers)
            adjacency[u].add(v)
            adjacency[v].add(u)
            pairs.append((min(u, v), max(u, v)))
    return Graph(pairs)


def chesapeake_like(seed: int = DEFAULT_SEED) -> Graph:
    """30 nodes, 170 edges: small dense infrastructure-style graph."""
    return preferential_attachment_graph(30, 170, seed, m=3, closure=0.3)


def usair_like(seed: int = DEFAULT_SEED) -> Graph:
    """332 nodes, 2126 edges: hub-and-spoke flight-style graph."""
    return preferential_attachment_graph(332, 2126, seed, m=6, closure=0.6)


def florida_like(seed: int = DEFAULT_SEED) -> Graph:
    """128 nodes, 2048 edges (average degree 32): dense hub-heavy graph."""
    return preferential_attachment_graph(128, 2048, seed, m=12, closure=0.4)


def embedding_benchmark_graph(seed: int = DEFAULT_SEED) -> Graph:
    """~150 nodes, ~1500 edges with planted partitions, for embedding sweeps."""
    return planted_partition_graph(150, 6, p_in=0.55, p_out=0.055, seed=seed)
