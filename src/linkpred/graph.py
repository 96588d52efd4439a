"""Undirected simple graphs: loading, queries, and train/test edge splits."""

from __future__ import annotations

import io
import math
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

    __slots__ = ("adjacency", "edge_list", "node_list", "dense_index", "_matrix", "_common",
                 "_degrees")

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
        self._matrix: np.ndarray | None = None
        self._common: np.ndarray | None = None
        self._degrees: np.ndarray | None = None

    @property
    def num_nodes(self) -> int:
        return len(self.node_list)

    @property
    def num_edges(self) -> int:
        return len(self.edge_list)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency.get(u, ())

    @property
    def degrees(self) -> np.ndarray:
        """Degree of each node by dense index (built on first use)."""
        if self._degrees is None:
            self._degrees = np.fromiter(map(len, self.adjacency.values()), np.int64,
                                        self.num_nodes)
        return self._degrees

    @property
    def adjacency_matrix(self) -> np.ndarray:
        """(n, n) bool adjacency matrix over dense indices (built on first use):
        entry [i, j] is True when nodes i and j are adjacent."""
        if self._matrix is None:
            ends = np.fromiter(
                map(self.dense_index.__getitem__, chain.from_iterable(self.edge_list)),
                np.intp, 2 * self.num_edges,
            ).reshape(-1, 2)
            dense = np.zeros((self.num_nodes, self.num_nodes), dtype=bool)
            dense[ends[:, 0], ends[:, 1]] = True
            dense[ends[:, 1], ends[:, 0]] = True
            self._matrix = dense
        return self._matrix

    @property
    def common_neighbor_counts(self) -> np.ndarray:
        """(n, n) float32 matrix A @ A (built on first use; counts < 2^24 are exact):
        entry [i, j] counts the common neighbors of i and j, [i, i] the degree of i."""
        if self._common is None:
            A = self.adjacency_matrix.astype(np.float32)
            self._common = A @ A
        return self._common

    def __repr__(self) -> str:
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges})"


def load_edge_list(path: Union[str, Path]) -> tuple[Graph, int]:
    """Parse an edge-list file: one edge per line, two whitespace-separated ints.

    Blank lines are ignored. Self-loop lines are dropped; their count is
    returned alongside the graph. Raises :class:`EdgeListParseError` naming
    the offending line for malformed input, including bytes that are not
    UTF-8 text.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # bytes.splitlines breaks lines where text mode does: at \n, \r and \r\n.
        lineno = len((data[: exc.start] + b"x").splitlines())
        raise EdgeListParseError(f"line {lineno}: not UTF-8 text") from None
    pairs: list[Edge] = []
    dropped_self_loops = 0
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
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

    The stored edge list is indexed by a uniform permutation from
    ``np.random.default_rng(abs(seed))``, so a seed and its negative give the
    same partition. The test set gets ``ceil(test_fraction * num_edges)``
    edges; the graph's stored edge list is never reordered. Raises
    :class:`TooFewEdgesError` for a graph with fewer than two edges.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if g.num_edges < 2:
        raise TooFewEdgesError("need at least two edges to split")
    order = np.random.default_rng(abs(seed)).permutation(g.num_edges).tolist()
    edges = tuple(map(g.edge_list.__getitem__, order))
    n_test = math.ceil(test_fraction * g.num_edges)
    return EdgePartition(train=edges[n_test:], test=edges[:n_test])


def sample_non_neighbor(g: Graph, starts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """For each dense index in ``starts``, a uniform draw from the nodes that are
    neither that start nor one of its neighbors, as dense indices.

    Rejection-samples in rounds: each round draws a uniform node for every
    entry still open and rejects those that :attr:`Graph.adjacency_matrix`
    marks as neighbors or that hit the start itself. Raises
    :class:`SaturatedNodeError` when a start is adjacent to every other node
    instead of looping forever, and :class:`IndexError` for an index outside
    ``[0, num_nodes)``.
    """
    starts = np.asarray(starts, dtype=np.intp)
    n = g.num_nodes
    if starts.size and not 0 <= starts.min() <= starts.max() < n:
        raise IndexError(f"dense index out of range [0, {n})")
    saturated = starts[g.degrees[starts] >= n - 1]
    if saturated.size:
        raise SaturatedNodeError(
            f"node {g.node_list[saturated[0]]} is adjacent to every other node")
    A = g.adjacency_matrix
    drawn = np.empty_like(starts)
    todo = np.arange(starts.size)
    while todo.size:
        at = starts[todo]
        redraw = rng.integers(n, size=todo.size)
        drawn[todo] = redraw
        todo = todo[A[at, redraw] | (redraw == at)]
    return drawn
