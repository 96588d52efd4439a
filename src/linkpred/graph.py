"""Undirected simple graphs: loading, queries, and train/test edge splits."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Union

import numpy as np

Edge = tuple[int, int]


class EdgeListParseError(ValueError):
    """An edge-list file could not be parsed."""


class TooFewEdgesError(ValueError):
    """A graph has too few edges or non-edges to split, embed, train or draw on."""


class SaturatedNodeError(RuntimeError):
    """A node is adjacent to every other node, so no non-neighbor exists."""


class Graph:
    """Immutable undirected simple graph over integer node ids.

    Duplicate input pairs (in either orientation) collapse to a single
    undirected edge. Nodes and edges keep first-seen order; ``dense_index``
    maps each node id to a contiguous index in ``[0, num_nodes)`` for matrix
    work, since real edge lists often have gaps in their id ranges.
    """

    __slots__ = ("adjacency", "edge_list", "node_list", "dense_index", "_packed", "_degrees")

    def __init__(self, pairs: Iterable[Edge]):
        adjacency: dict[int, set[int]] = {}
        edges: list[Edge] = []
        for u, v in pairs:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed in a simple graph")
            if u not in adjacency:
                adjacency[u] = set()
            if v not in adjacency:
                adjacency[v] = set()
            if v not in adjacency[u]:
                adjacency[u].add(v)
                adjacency[v].add(u)
                edges.append((u, v))
        self.adjacency: dict[int, frozenset[int]] = {
            u: frozenset(nbrs) for u, nbrs in adjacency.items()
        }
        self.edge_list: tuple[Edge, ...] = tuple(edges)
        self.node_list: tuple[int, ...] = tuple(self.adjacency)
        self.dense_index: dict[int, int] = {u: i for i, u in enumerate(self.node_list)}
        self._packed: np.ndarray | None = None
        self._degrees: np.ndarray | None = None

    @property
    def num_nodes(self) -> int:
        return len(self.node_list)

    @property
    def num_edges(self) -> int:
        return len(self.edge_list)

    def neighbors(self, u: int) -> frozenset[int]:
        return self.adjacency[u]

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency.get(u, ())

    def shared_neighbors(self, u: int, v: int) -> frozenset[int]:
        """Common neighbors N(u) & N(v)."""
        return self.adjacency[u] & self.adjacency[v]

    @property
    def degrees(self) -> np.ndarray:
        """Degree of each node by dense index (built on first use)."""
        if self._degrees is None:
            self._degrees = np.fromiter(map(len, self.adjacency.values()), np.int64,
                                        self.num_nodes)
        return self._degrees

    @property
    def packed_adjacency(self) -> np.ndarray:
        """Adjacency matrix over dense indices, one ``np.packbits`` row of
        ceil(n/8) uint8 per node (built on first use): bit j of row i is set
        when nodes i and j are adjacent."""
        if self._packed is None:
            ends = np.fromiter(
                map(self.dense_index.__getitem__, chain.from_iterable(self.edge_list)),
                np.intp, 2 * self.num_edges,
            ).reshape(-1, 2)
            dense = np.zeros((self.num_nodes, self.num_nodes), dtype=bool)
            dense[ends[:, 0], ends[:, 1]] = True
            dense[ends[:, 1], ends[:, 0]] = True
            self._packed = np.packbits(dense, axis=1)
        return self._packed

    def __repr__(self) -> str:
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges})"


def load_edge_list(path: Union[str, Path]) -> tuple[Graph, int]:
    """Parse an edge-list file: one edge per line, two whitespace-separated ints.

    Blank lines are ignored. Self-loop lines are dropped; their count is
    returned alongside the graph. Raises :class:`EdgeListParseError` naming
    the offending line for malformed input.
    """
    pairs: list[Edge] = []
    dropped_self_loops = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 2:
                raise EdgeListParseError(
                    f"line {lineno}: expected two node ids, got {len(tokens)} tokens"
                )
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise EdgeListParseError(
                    f"line {lineno}: non-integer node id in {line.strip()!r}"
                ) from None
            if u == v:
                dropped_self_loops += 1
                continue
            pairs.append((u, v))
    return Graph(pairs), dropped_self_loops


@dataclass(frozen=True)
class EdgePartition:
    """A seeded train/test split of a graph's edge list."""

    train: tuple[Edge, ...]
    test: tuple[Edge, ...]


def split_edges(g: Graph, test_fraction: float, seed: int) -> EdgePartition:
    """Uniformly random edge partition, fully determined by ``seed``.

    The test set gets ``ceil(test_fraction * num_edges)`` edges. The graph's
    stored edge list is never reordered; a copy is shuffled. Raises
    :class:`TooFewEdgesError` for a graph with fewer than two edges.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if g.num_edges < 2:
        raise TooFewEdgesError("need at least two edges to split")
    edges = list(g.edge_list)
    random.Random(seed).shuffle(edges)
    n_test = math.ceil(test_fraction * len(edges))
    return EdgePartition(train=tuple(edges[n_test:]), test=tuple(edges[:n_test]))


def sample_non_neighbor(g: Graph, u: int, rng: random.Random) -> int:
    """Uniform draw from the nodes that are neither ``u`` nor neighbors of ``u``.

    Rejection-samples from the node list. Raises :class:`SaturatedNodeError`
    when ``u`` is adjacent to every other node instead of looping forever.
    """
    neighbors = g.adjacency[u]
    if len(neighbors) >= g.num_nodes - 1:
        raise SaturatedNodeError(f"node {u} is adjacent to every other node")
    nodes = g.node_list
    while True:
        w = rng.choice(nodes)
        if w != u and w not in neighbors:
            return w
