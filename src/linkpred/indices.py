"""Neighborhood-based similarity scores for candidate edges.

All six scores share the signature ``(g, rows, cols) -> float array`` over
arrays of dense node indices (positions in ``Graph.nodes``): pair i is
``(rows[i], cols[i])``, with ``rows[i] != cols[i]`` in a simple undirected
graph; a pair at a node of degree 0 scores 0, with no warning. Five are
functions of the shared-neighbor count that ``Graph.common_neighbors`` takes
at the asked pairs from the graph's packed adjacency rows, built once per
graph. Adamic-Adar reads the same AND of packed rows
(``Graph.common_neighbor_bits``) a byte at a time through a table of summed
weights, with each weight 1/log10 k rounded to a fixed-point grid, so that
every score is an exact float64 sum: it has the same bits in any summation
order, and pairs whose shared neighbors have the same degrees tie exactly.
The graph keeps the AND and the counts of the last pairs asked for, so the
six levels of a trial, which score the same pairs, take them once.
Logarithms are base 10 throughout; AUC ranking is invariant to the base.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph


# Bit i of byte b in np.packbits order (most significant bit first), as
# column b: a row of eight weights times this sums the weights a byte selects.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).T.astype(float)

# Pairs per Adamic-Adar block, so that its temporaries stay small whatever the
# number of pairs: at n = 332 a block's table indices are 256 x 42 int32
# (43 KB) and the weights they pick 256 x 42 float64 (86 KB).
_AA_BLOCK = 256


def _adamic_adar(g: Graph, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    # A common neighbor of two distinct nodes has degree >= 2, so a degree-1
    # node's weight is never used. Each weight 1/log10 k is rounded to the
    # nearest multiple of 2^-s (off by at most 2^-(s + 1)); it stays below 4,
    # so any sum of at most n of them, < 4n <= 2^(53 - s), is exact in
    # float64: neither the table nor the row sums round.
    k = g.degrees
    n = len(k)
    weight = np.divide(1.0, np.log10(np.maximum(k, 1)), out=np.zeros(n), where=k > 1)
    s = 51 - (n - 1).bit_length()
    width = -(-n // 8)  # bytes of a packed row that hold columns; the rest are padding
    grid = np.zeros(width * 8)
    grid[:n] = np.ldexp(np.rint(np.ldexp(weight, s)), -s)
    # table[j * 256 + b]: the summed weight of nodes 8j ... 8j + 7 set in byte b
    table = (grid.reshape(-1, 8) @ _BYTE_BITS).ravel()
    offsets = np.arange(width, dtype=np.int32) * 256
    ones = np.ones(width)
    both = g.common_neighbor_bits(rows, cols).view(np.uint8)
    out = np.zeros(len(rows))
    shared = np.flatnonzero(g.common_neighbors(rows, cols))  # the rest score 0
    for i in range(0, len(shared), _AA_BLOCK):
        at = shared[i:i + _AA_BLOCK]
        out[at] = table.take(both[at, :width] + offsets) @ ones
    return out


def _shared_over(denominator):
    """Common neighbors over ``denominator(k_rows, k_cols)``, 0 where that is 0:
    at an end of degree 0 (and at two ends of degree 1, for lhn1_var's log)."""

    def index(g: Graph, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        d = denominator(g.degrees[rows], g.degrees[cols])
        return np.divide(g.common_neighbors(rows, cols), d, out=np.zeros(len(d)), where=d > 0)

    return index


LOCAL_INDICES = {
    "cn": Graph.common_neighbors,
    "hub_prom": _shared_over(np.minimum),
    "hub_depr": _shared_over(np.maximum),
    "lhn1": _shared_over(np.multiply),
    "aa": _adamic_adar,
    "lhn1_var": _shared_over(lambda a, b: np.log10(np.maximum(a * b, 1))),
}
