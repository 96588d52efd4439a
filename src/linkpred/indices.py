"""Neighborhood-based similarity scores for candidate edges.

All six scores share the signature ``(g, u, v) -> float`` and assume a
simple undirected graph with ``u != v`` and both degrees >= 1. Logarithms
are base 10 throughout; AUC ranking is invariant to the base.
"""

from __future__ import annotations

import math

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
