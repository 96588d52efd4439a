"""Neighborhood-based similarity scores for candidate edges.

All six scores share the signature ``(g, u, v) -> float`` and assume a
simple undirected graph with ``u != v`` and both degrees >= 1. Logarithms
are base 10 throughout; AUC ranking is invariant to the base.

``BATCH_INDICES`` holds the same six scores in batch form,
``(g, rows, cols) -> float array`` over arrays of dense node indices (see
``Graph.dense_index``): pair i is ``(rows[i], cols[i])``. They intersect
rows of ``Graph.packed_adjacency``; the per-pair functions in
``LOCAL_INDICES`` are their reference.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Graph


def common_neighbors(g: Graph, u: int, v: int) -> float:
    return float(len(g.shared_neighbors(u, v)))


def hub_promoted(g: Graph, u: int, v: int) -> float:
    """Shared-neighbor count normalized by the smaller endpoint degree."""
    return len(g.shared_neighbors(u, v)) / min(g.degree(u), g.degree(v))


def hub_depressed(g: Graph, u: int, v: int) -> float:
    """Shared-neighbor count normalized by the larger endpoint degree."""
    return len(g.shared_neighbors(u, v)) / max(g.degree(u), g.degree(v))


def lhn1(g: Graph, u: int, v: int) -> float:
    """Shared-neighbor count normalized by the product of endpoint degrees."""
    return len(g.shared_neighbors(u, v)) / (g.degree(u) * g.degree(v))


def adamic_adar(g: Graph, u: int, v: int) -> float:
    """Sum of 1/log10(degree) over the common neighbors.

    A common neighbor of two distinct nodes has degree >= 2 in a simple
    graph, so no term divides by zero.
    """
    score = 0.0
    for w in g.shared_neighbors(u, v):
        score += 1.0 / math.log10(g.degree(w))
    return score


def lhn1_variant(g: Graph, u: int, v: int) -> float:
    """Shared-neighbor count over log10 of the degree product.

    Both endpoints of degree 1 make the denominator 0 and yield score 0;
    any other degree product is >= 2, so the denominator is >= log10(2).
    """
    product = g.degree(u) * g.degree(v)
    if product == 1:
        return 0.0
    return len(g.shared_neighbors(u, v)) / math.log10(product)


LOCAL_INDICES = {
    "cn": common_neighbors,
    "hub_prom": hub_promoted,
    "hub_depr": hub_depressed,
    "lhn1": lhn1,
    "aa": adamic_adar,
    "lhn1_var": lhn1_variant,
}


def _shared(g: Graph, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(pairs, n) uint8: entry [i, w] is 1 when w neighbors rows[i] and cols[i]."""
    packed = g.packed_adjacency
    return np.unpackbits(packed[rows] & packed[cols], axis=1, count=g.num_nodes)


def _shared_count(g: Graph, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return np.count_nonzero(_shared(g, rows, cols), axis=1).astype(float)


def _adamic_adar_pairs(g: Graph, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    # A degree-1 node is nobody's common neighbor; its weight is never used.
    k = g.degrees
    weight = np.divide(1.0, np.log10(k), out=np.zeros(len(k)), where=k > 1)
    return np.einsum("ij,j->i", _shared(g, rows, cols), weight)


def _lhn1_variant_pairs(g: Graph, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    product = g.degrees[rows] * g.degrees[cols]
    return np.divide(_shared_count(g, rows, cols), np.log10(product),
                     out=np.zeros(len(product)), where=product > 1)


BATCH_INDICES = {
    "cn": _shared_count,
    "hub_prom": lambda g, rows, cols: _shared_count(g, rows, cols)
    / np.minimum(g.degrees[rows], g.degrees[cols]),
    "hub_depr": lambda g, rows, cols: _shared_count(g, rows, cols)
    / np.maximum(g.degrees[rows], g.degrees[cols]),
    "lhn1": lambda g, rows, cols: _shared_count(g, rows, cols)
    / (g.degrees[rows] * g.degrees[cols]),
    "aa": _adamic_adar_pairs,
    "lhn1_var": _lhn1_variant_pairs,
}
