"""Undirected simple graphs: loading, queries, and train/test edge splits."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence, Union

import numpy as np

Edge = tuple[int, int]


class EdgeListParseError(ValueError):
    """An edge-list file could not be parsed."""


class TooFewEdgesError(ValueError):
    """A graph has too few edges or non-edges to split, embed, train or draw on."""


class SaturatedNodeError(RuntimeError):
    """A node is adjacent to every other node, so no non-neighbor exists."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _groups(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rank[i]``: the rank of ``values[i]`` among the distinct values, in
    ascending order; ``first[r]``: the first position of the value of rank r.

    Values that span at most twice their count (node ids of a graph: n ids
    over 2m ends) are grouped by counting: first positions go into a
    span-sized array, ranks are its running count of occupied slots. Wider
    values (pair keys: span near n^2 over m keys) and empty input take one
    sort. The span is taken from the min and max as Python ints, so int64
    extremes cannot overflow it.
    """
    n = len(values)
    if n:
        lo = int(values.min())
        span = int(values.max()) - lo + 1
        if span <= 2 * n:
            offset = values - lo
            first = np.full(span, n)
            np.minimum.at(first, offset, np.arange(n))
            occupied = first < n
            return (np.cumsum(occupied) - 1)[offset], first[occupied]
    order = np.argsort(values)  # not stable: ``first`` takes the minimum position
    ascending = values[order]
    new = np.ones(n, dtype=bool)
    new[1:] = ascending[1:] != ascending[:-1]
    rank = np.empty_like(order)
    rank[order] = np.cumsum(new) - 1
    first = np.full(np.count_nonzero(new), n)
    np.minimum.at(first, rank, np.arange(n))
    return rank, first


class Graph:
    """Immutable undirected simple graph over integer node ids, stored as two arrays.

    ``nodes``: the (n,) int64 node ids in first-seen order; a node's position
    is its dense index (id ranges may have gaps). ``edges``: the (m, 2) int64
    dense indices, one row per undirected edge in first-seen order and input
    orientation; duplicate pairs (either orientation) collapse to the first.
    Each is grouped by :func:`_groups`, of the ids or the pair keys: by
    counting where the values are compact, as ids numbered from 0 are, else
    by one sort. All else is derived on first read and cached; all is
    read-only, as every scorer reads it.
    """

    def __init__(self, pairs: Union[Sequence[Edge], np.ndarray]):
        ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        loops = ends[ends[:, 0] == ends[:, 1]]
        if len(loops):
            raise ValueError(
                f"self-loop ({loops[0, 0]}, {loops[0, 1]}) not allowed in a simple graph")
        rank, first = _groups(ends.ravel())
        order = np.argsort(first)  # ranks in first-seen order
        dense = np.argsort(order)[rank].reshape(-1, 2)
        _, keep = _groups(np.minimum(*dense.T) * len(first) + np.maximum(*dense.T))
        self.nodes: np.ndarray = _read_only(ends.ravel()[first[order]])
        self.edges: np.ndarray = _read_only(dense[np.sort(keep)])

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def node_list(self) -> tuple[int, ...]:
        """Node ids in dense-index order."""
        return tuple(self.nodes.tolist())

    @cached_property
    def edge_list(self) -> tuple[Edge, ...]:
        """Edges as (u, v) node-id pairs, in the order of ``edges``."""
        return tuple(map(tuple, self.nodes[self.edges].tolist()))

    @cached_property
    def dense_index(self) -> dict[int, int]:
        return dict(zip(self.node_list, range(self.num_nodes)))

    @cached_property
    def degrees(self) -> np.ndarray:
        """Degree of each node by dense index."""
        return _read_only(np.bincount(self.edges.ravel(), minlength=self.num_nodes))

    @cached_property
    def adjacency_matrix(self) -> np.ndarray:
        """(n, n) bool adjacency matrix over dense indices: entry [i, j] is
        True when nodes i and j are adjacent."""
        dense = np.zeros((self.num_nodes, self.num_nodes), dtype=bool)
        dense[self.edges, self.edges[:, ::-1]] = True
        return _read_only(dense)

    @cached_property
    def common_neighbor_counts(self) -> np.ndarray:
        """(n, n) float32 A @ A.T (= A @ A): [i, j] counts the common neighbors of
        i and j, [i, i] is the degree of i. Counts < 2^24 are exact in any sum order."""
        A = self.adjacency_matrix.astype(np.float32)
        return _read_only(A @ A.T)

    def __repr__(self) -> str:
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges})"


def load_edge_list(path: Union[str, Path]) -> tuple[Graph, int]:
    """Parse an edge-list file: one edge per line, two whitespace-separated ids,
    each an ASCII decimal integer with an optional sign.

    Blank lines are ignored. Self-loop lines are dropped; their count is
    returned alongside the graph. Node ids must lie in the signed 64-bit
    range. Raises :class:`EdgeListParseError` naming the offending line for
    malformed input, including bytes that are not UTF-8 text and ids out of
    that range.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # bytes.splitlines breaks lines where text mode does: at \n, \r and \r\n.
        lineno = len((data[: exc.start] + b"x").splitlines())
        raise EdgeListParseError(f"line {lineno}: not UTF-8 text") from None
    # int() alone also takes "1_000" and non-ASCII digits such as "٣"; a text
    # with neither an underscore nor a non-ASCII character holds no such id.
    suspect = "_" in text or not text.isascii()
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
            if suspect and ("_" in line or not (tokens[0] + tokens[1]).isascii()):
                raise ValueError
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(
                f"line {lineno}: non-integer node id in {line.strip()!r}"
            ) from None
        for x in (u, v):
            if not -2**63 <= x < 2**63:  # stored as int64
                raise EdgeListParseError(
                    f"line {lineno}: node id {x} is outside the signed 64-bit range")
        if u == v:
            dropped_self_loops += 1
            continue
        pairs.append((u, v))
    return Graph(pairs), dropped_self_loops


@dataclass(frozen=True, eq=False)
class EdgePartition:
    """A seeded train/test split of a graph's edges: two (k, 2) int64 arrays
    of node ids. Partitions with equal arrays are equal; none is hashable."""

    train: np.ndarray
    test: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgePartition):
            return NotImplemented
        return np.array_equal(self.train, other.train) and np.array_equal(self.test, other.test)


def split_edges(g: Graph, test_fraction: float, seed: int) -> EdgePartition:
    """Uniformly random edge partition, fully determined by ``seed``.

    The rows of ``g.edges`` are taken in the order of a uniform permutation
    from ``np.random.default_rng(abs(seed))``, so a seed and its negative
    give the same partition, and mapped to node ids. The test set gets the
    first ``ceil(test_fraction * num_edges)`` of them. Raises
    :class:`TooFewEdgesError` for a graph with fewer than two edges.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if g.num_edges < 2:
        raise TooFewEdgesError("need at least two edges to split")
    order = np.random.default_rng(abs(seed)).permutation(g.num_edges)
    edges = g.nodes[g.edges[order]]
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
