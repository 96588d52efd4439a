"""Random-walk-with-restart similarity via the dense resolvent matrix.

A surfer at node i moves to a uniform neighbor with probability c and jumps
back to its start node with probability 1 - c. The stationary distribution
for start node x is column x of M = (1 - c) (I - c P^T)^{-1}, where P is the
row-stochastic transition matrix. The pair score is M[u, v] + M[v, u].
Rows and columns are the graph's dense indices (``Graph.dense_index``).
"""

from __future__ import annotations

import numpy as np

from .graph import Graph


def build_transition(g: Graph) -> np.ndarray:
    """Row-stochastic transition matrix: P[i, j] = 1/k_i for each edge (i, j)."""
    if g.num_nodes == 0:
        raise ValueError("cannot build a transition matrix for an empty graph")
    adjacency = np.unpackbits(g.packed_adjacency, axis=1, count=g.num_nodes)
    return adjacency / g.degrees[:, None]


def build_rwr(g: Graph, c: float) -> np.ndarray:
    """Solve for the resolvent M = (1 - c) (I - c P^T)^{-1} by dense LU.

    Valid for 0 <= c < 1, where the spectral radius of c P^T is c < 1. Each
    column of M is a probability vector (sums to 1); column x is the
    stationary distribution for start node ``g.node_list[x]``.
    """
    if not 0.0 <= c < 1.0:
        raise ValueError(f"restart complement c must be in [0, 1), got {c}")
    P = build_transition(g)
    n = P.shape[0]
    A = np.eye(n) - c * P.T
    return (1.0 - c) * np.linalg.solve(A, np.eye(n))
