"""Undirected simple graphs: loading, queries, and train/test edge splits."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

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


# Bit i of byte b in np.packbits order (most significant bit first), as
# column b: a row of eight weights times this sums the weights a byte selects.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).T.astype(float)


class PairFeatures(NamedTuple):
    """What the local indices read at pairs ``(rows[i], cols[i])`` of dense
    indices, each array read-only and one entry (or row) per pair."""

    bits: np.ndarray  # (pairs, ceil(n / 64)) uint64: the AND of the two ``neighbor_bits`` rows
    counts: np.ndarray  # float64 popcount of ``bits``: the number of common neighbors
    row_degrees: np.ndarray  # ``degrees[rows]``
    col_degrees: np.ndarray  # ``degrees[cols]``


class Graph:
    """Immutable undirected simple graph over integer node ids, stored as two arrays.

    ``nodes``: the (n,) int64 node ids in first-seen order; a node's position
    is its dense index (id ranges may have gaps). ``edges``: the (m, 2) int64
    dense indices, one row per undirected edge in first-seen order and input
    orientation; duplicate pairs (either orientation) collapse to the first.
    ``pairs`` must be empty or (m, 2) integers that fit int64; other shapes
    and dtypes (floats, bools) raise :class:`ValueError`. The ids, then the
    pair keys ``min * n + max``, are grouped by ``np.unique``. Given
    ``nodes``, ``pairs`` must be distinct rows of dense indices into them, as
    :func:`split_edges` gives, and are kept as the ``edges`` ungrouped. All
    else is derived on first read and cached; all is read-only, as every
    scorer reads it. Common neighbors are counted at the
    pairs asked for (:meth:`common_neighbors`), from the packed adjacency
    rows of ``neighbor_bits``; no n x n product is formed. The
    :class:`PairFeatures` of the last pairs asked for (the AND, its counts
    and both endpoint degrees) are kept, so the levels of a trial, which
    score the same pairs, take them once. Adamic-Adar reads
    ``adamic_adar_table`` and RWR reads ``independent_set``, each built once
    for all of the graph's levels.
    """

    def __init__(self, pairs: Union[Sequence[Edge], np.ndarray],
                 nodes: Optional[np.ndarray] = None):
        ends = np.asarray(pairs)
        if not ends.size:
            ends = np.empty((0, 2), dtype=np.int64)
        elif (ends.ndim != 2 or ends.shape[1] != 2 or ends.dtype.kind not in "iu"
              or not np.can_cast(ends.dtype, np.int64)):
            raise ValueError(f"pairs must be (m, 2) int64 ids, got {ends.dtype} {ends.shape}")
        ends = ends.astype(np.int64, copy=False).view()  # frozen below, not the caller's array
        loops = ends[ends[:, 0] == ends[:, 1]]
        if len(loops):
            raise ValueError(
                f"self-loop ({loops[0, 0]}, {loops[0, 1]}) not allowed in a simple graph")
        if nodes is None:
            ids, first, rank = np.unique(ends.ravel(), return_index=True, return_inverse=True)
            order = np.argsort(first)  # ranks in first-seen order
            dense = np.argsort(order)[rank].reshape(-1, 2)
            _, keep = np.unique(np.minimum(*dense.T) * len(ids) + np.maximum(*dense.T),
                                return_index=True)
            nodes, ends = ids[order], dense[np.sort(keep)]
        self.nodes: np.ndarray = _read_only(np.asarray(nodes, dtype=np.int64).view())
        self.edges: np.ndarray = _read_only(ends)
        # The last pairs asked of pair_features: (key, PairFeatures).
        self._last_pairs: tuple = (None, None)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_list(self) -> tuple[Edge, ...]:
        """Edges as (u, v) node-id pairs, in the order of ``edges``."""
        return tuple(map(tuple, self.nodes[self.edges].tolist()))

    @cached_property
    def degrees(self) -> np.ndarray:
        """Degree of each node by dense index."""
        return _read_only(np.bincount(self.edges.ravel(), minlength=self.num_nodes))

    @cached_property
    def adjacency_matrix(self) -> np.ndarray:
        """(n, n) bool adjacency matrix over dense indices: entry [i, j] is
        True when nodes i and j are adjacent."""
        n = self.num_nodes
        u, v = self.edges.T
        flat = np.zeros(n * n, dtype=bool)
        flat[u * n + v] = flat[v * n + u] = True
        return _read_only(flat.reshape(n, n))

    @cached_property
    def neighbor_bits(self) -> np.ndarray:
        """(n, ceil(n / 64)) uint64: row i is row i of ``adjacency_matrix`` packed
        64 columns to a word, zero-padded past column n."""
        n = self.num_nodes
        packed = np.zeros((n, (n + 63) // 64 * 8), dtype=np.uint8)
        packed[:, :(n + 7) // 8] = np.packbits(self.adjacency_matrix, axis=1)
        return _read_only(packed.view(np.uint64))

    @cached_property
    def independent_set(self) -> np.ndarray:
        """Dense indices, ascending, of the maximal independent set that a greedy
        pass in ascending (degree, index) order takes. Built in rounds: each
        takes every live node whose (degree, index) is below that of each live
        neighbor, then retires it and its neighbors."""
        n = self.num_nodes
        key = self.degrees * n + np.arange(n)  # (degree, index) as one int; key % n is the index
        first, second = key[self.edges].T
        low, high = np.minimum(first, second) % n, np.maximum(first, second) % n
        live, taken = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
        while len(low):  # every edge left has two live ends
            now = live.copy()
            now[high] = False
            taken |= now
            live ^= now
            live[high[now[low]]] = False
            keep = live[low] & live[high]
            low, high = low[keep], high[keep]
        return _read_only(np.flatnonzero(taken | live))  # no live node has a live neighbor

    @cached_property
    def adamic_adar_table(self) -> np.ndarray:
        """(ceil(n / 8), 256) float64, read-only: entry [j, b] is the summed
        Adamic-Adar weight of the nodes 8j ... 8j + 7 set in byte b of a
        packed row of ``neighbor_bits`` (np.packbits order).

        A node of degree k > 1 weighs 1/log10 k, rounded to the nearest
        multiple of 2^-s, s = 51 - bit_length(n - 1) (off by at most
        2^-(s + 1)); one of degree 0 or 1 is never the common neighbor of
        two distinct nodes and weighs 0. A weight stays below 4, so any sum
        of at most n of them, < 4n <= 2^(53 - s), is exact in float64.
        Built from ``degrees`` alone and kept for the graph's lifetime:
        ceil(n / 8) * 256 doubles (86 KB at n = 332), as large as a table
        built per call would be.
        """
        k = self.degrees
        n = len(k)
        weight = np.divide(1.0, np.log10(np.maximum(k, 1)), out=np.zeros(n), where=k > 1)
        s = 51 - (n - 1).bit_length()
        grid = np.zeros(-(-n // 8) * 8)
        grid[:n] = np.ldexp(np.rint(np.ldexp(weight, s)), -s)
        return _read_only(grid.reshape(-1, 8) @ _BYTE_BITS)

    def pair_features(self, rows: np.ndarray, cols: np.ndarray) -> PairFeatures:
        """The :class:`PairFeatures` of pairs ``(rows[i], cols[i])`` of dense
        indices. Kept for the last pairs asked for, keyed by a copy of the
        dtypes and bytes of ``rows`` and ``cols``, and returned again for
        equal keys, so a caller that changes its arrays in place, or asks
        other pairs, gets features computed afresh."""
        key = (rows.dtype, rows.tobytes(), cols.dtype, cols.tobytes())
        if self._last_pairs[0] != key:
            bits, k = self.neighbor_bits, self.degrees
            both = bits.take(rows, axis=0) & bits.take(cols, axis=0)
            counts = np.bitwise_count(both) @ np.ones(both.shape[1])
            features = PairFeatures(*map(_read_only, (both, counts, k[rows], k[cols])))
            self._last_pairs = (key, features)
        return self._last_pairs[1]

    def common_neighbors(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Float64 count of the common neighbors of each pair ``(rows[i], cols[i])``
        of dense indices, read-only, kept with :meth:`pair_features`; a node
        has its degree in common with itself. Exact: each count is a sum of
        at most n small integers."""
        return self.pair_features(rows, cols).counts

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
            ids = tokens[0] + tokens[1]  # int() alone also takes "1_000" and "\u0663" (3)
            if "_" in ids or not ids.isascii():
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
    """A seeded train/test split of a graph's edges: two read-only (k, 2) int64
    arrays of its ``edges`` rows. Equal arrays make equal partitions; none is hashable."""

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
    give the same partition. The test set gets the first
    ``ceil(test_fraction * num_edges)`` of them, and ``Graph(partition.train,
    nodes=g.nodes)`` is the training graph over all of g's nodes. Raises
    :class:`TooFewEdgesError` for a graph with fewer than two edges.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if g.num_edges < 2:
        raise TooFewEdgesError("need at least two edges to split")
    order = np.random.default_rng(abs(seed)).permutation(g.num_edges)
    # take, not g.edges[order]: numpy's 2-D advanced indexing gathers these
    # rows in ~20 us on usair_like, take in ~2 us (numpy 2.4). Trial-path
    # gathers read rows by take and entries by flat index for the same reason.
    edges = g.edges.take(order, axis=0)
    n_test = math.ceil(test_fraction * g.num_edges)
    return EdgePartition(train=_read_only(edges[n_test:]), test=_read_only(edges[:n_test]))


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
            f"node {g.nodes[saturated[0]]} is adjacent to every other node")
    adjacent = g.adjacency_matrix.ravel()  # a view: the matrix is C-contiguous
    drawn = np.empty_like(starts)
    todo = np.arange(starts.size)
    while todo.size:
        at = starts[todo]
        redraw = rng.integers(n, size=todo.size)
        drawn[todo] = redraw
        todo = todo[adjacent.take(at * n + redraw) | (redraw == at)]
    return drawn
