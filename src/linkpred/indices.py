"""Neighborhood-based similarity scores for candidate edges.

All six scores share the signature ``(g, rows, cols) -> float array`` over
arrays of dense node indices (positions in ``Graph.nodes``): pair i is
``(rows[i], cols[i])``, with ``rows[i] != cols[i]`` in a simple undirected
graph; a pair at a node of degree 0 scores 0, with no warning. Each is a
formula over the pairs' ``Graph.pair_features``: the AND of the two packed
adjacency rows, its popcount (the shared-neighbor count) and the two
endpoint degrees. The graph keeps them for the last pairs asked for, so the
six levels of a trial, which score the same pairs, take them once.
Adamic-Adar reads that AND one byte column at a time at the pairs with a
common neighbor: byte b of column j adds entry [j, b] of the graph's
``adamic_adar_table`` of summed weights, built once per graph, so that its
temporaries are a copy of those AND rows and one column's weights. Each
weight 1/log10 k is rounded to a fixed-point grid, so that every score is
an exact float64 sum: it has the same bits in any summation order, and
pairs whose shared neighbors have the same degrees tie exactly. Logarithms
are base 10 throughout; AUC ranking is invariant to the base.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph


def _adamic_adar(g: Graph, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    features = g.pair_features(rows, cols)
    shared = np.flatnonzero(features.counts > 0)  # the rest score 0
    both = features.bits.view(np.uint8).take(shared, axis=0)
    sums = np.zeros(len(shared))
    for j, weights in enumerate(g.adamic_adar_table):  # byte column j; the rest are padding
        sums += weights.take(both[:, j])
    out = np.zeros(len(rows))
    out[shared] = sums
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
