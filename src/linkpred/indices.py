"""Neighborhood-based similarity scores for candidate edges.

All six scores share the signature ``(g, rows, cols) -> float array`` over
arrays of dense node indices (positions in ``Graph.nodes``): pair i is
``(rows[i], cols[i])``, with ``rows[i] != cols[i]`` in a simple undirected
graph; a pair at a node of degree 0 scores 0, with no warning. Each is a
formula over the pairs' ``Graph.pair_features``: the AND of the two packed
adjacency rows, its popcount (the shared-neighbor count) and the two
endpoint degrees. The graph keeps them for the last pairs asked for, so the
six levels of a trial, which score the same pairs, take them once.
Adamic-Adar reads that AND a byte at a time through the graph's
``adamic_adar_table`` of summed weights, built once per graph, with each
weight 1/log10 k rounded to a fixed-point grid, so that every score is an
exact float64 sum: it has the same bits in any summation order, and pairs
whose shared neighbors have the same degrees tie exactly. Logarithms are
base 10 throughout; AUC ranking is invariant to the base.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph


# Pairs per Adamic-Adar block, so that its temporaries stay small whatever the
# number of pairs: at n = 332 a block's table indices are 256 x 42 int32
# (43 KB) and the weights they pick 256 x 42 float64 (86 KB).
_AA_BLOCK = 256


def _adamic_adar(g: Graph, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    table = g.adamic_adar_table  # taken at j * 256 + b for byte b of byte column j
    width = len(table)  # bytes of a packed row that hold columns; the rest are padding
    offsets = np.arange(width, dtype=np.int32) * 256
    ones = np.ones(width)
    features = g.pair_features(rows, cols)
    both = features.bits.view(np.uint8)
    out = np.zeros(len(rows))
    shared = np.flatnonzero(features.counts)  # the rest score 0
    for i in range(0, len(shared), _AA_BLOCK):
        at = shared[i:i + _AA_BLOCK]
        out[at] = table.take(both.take(at, axis=0)[:, :width] + offsets) @ ones
    return out


def _shared_over(denominator):
    """Common neighbors over ``denominator(k_rows, k_cols)``, 0 where that is 0:
    at an end of degree 0 (and at two ends of degree 1, for lhn1_var's log)."""

    def index(g: Graph, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        features = g.pair_features(rows, cols)
        d = denominator(features.row_degrees, features.col_degrees)
        return np.divide(features.counts, d, out=np.zeros(len(d)), where=d > 0)

    return index


LOCAL_INDICES = {
    "cn": Graph.common_neighbors,
    "hub_prom": _shared_over(np.minimum),
    "hub_depr": _shared_over(np.maximum),
    "lhn1": _shared_over(np.multiply),
    "aa": _adamic_adar,
    "lhn1_var": _shared_over(lambda a, b: np.log10(np.maximum(a * b, 1))),
}
