"""Neighborhood-based similarity scores for candidate edges.

All six scores share the signature ``(g, rows, cols) -> float array`` over
arrays of dense node indices (positions in ``Graph.nodes``): pair i is
``(rows[i], cols[i])``, with ``rows[i] != cols[i]`` and both degrees >= 1 in
a simple undirected graph. Five are functions of the shared-neighbor count
that ``Graph.common_neighbors`` takes at the asked pairs from the graph's
packed adjacency rows, built once per graph; Adamic-Adar unpacks the same
AND of packed rows (``Graph.common_neighbor_bits``), ``_AA_BLOCK`` pairs at
a time, so that its temporaries stay small whatever the number of pairs.
The graph keeps the AND and the counts of the last pairs asked for, so the
six levels of a trial, which score the same pairs, take them once.
Logarithms are base 10 throughout; AUC ranking is invariant to the base.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph


# Rows per Adamic-Adar block. Unpacking all 2,000 pairs of a trial at once
# builds a (pairs x n) bool temporary, 664 KB at n = 332, which the allocator
# returns to the OS and page-faults back in on every trial; 256 rows keep it
# under 85 KB. A pair's score depends on its own row only, so blocking
# changes no value.
_AA_BLOCK = 256


def _adamic_adar(g: Graph, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    # A common neighbor of two distinct nodes has degree >= 2, so a degree-1
    # node's weight is never used.
    k = g.degrees
    weight = np.divide(1.0, np.log10(k), out=np.zeros(len(k)), where=k > 1)
    both = g.common_neighbor_bits(rows, cols).view(np.uint8)
    out = np.empty(len(rows))
    for i in range(0, len(rows), _AA_BLOCK):
        # count=n drops the padding bits: the rows of A[r] & A[c], as bools
        shared = np.unpackbits(both[i:i + _AA_BLOCK], axis=1, count=len(k)).view(bool)
        out[i:i + _AA_BLOCK] = np.einsum("ij,j->i", shared, weight)
    return out


def _lhn1_variant(g: Graph, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    # Both endpoints of degree 1 make log10 of the product 0: the score is 0.
    product = g.degrees[rows] * g.degrees[cols]
    return np.divide(g.common_neighbors(rows, cols), np.log10(product),
                     out=np.zeros(len(product)), where=product > 1)


LOCAL_INDICES = {
    "cn": Graph.common_neighbors,
    "hub_prom": lambda g, rows, cols: g.common_neighbors(rows, cols)
    / np.minimum(g.degrees[rows], g.degrees[cols]),
    "hub_depr": lambda g, rows, cols: g.common_neighbors(rows, cols)
    / np.maximum(g.degrees[rows], g.degrees[cols]),
    "lhn1": lambda g, rows, cols: g.common_neighbors(rows, cols)
    / (g.degrees[rows] * g.degrees[cols]),
    "aa": _adamic_adar,
    "lhn1_var": _lhn1_variant,
}
