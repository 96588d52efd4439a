"""Random-walk-with-restart similarity via the dense resolvent matrix.

A surfer at node i moves to a uniform neighbor with probability c and jumps
back to its start node with probability 1 - c. The stationary distribution
for start node x is column x of M = (1 - c) (I - c P^T)^{-1}, where P is the
row-stochastic transition matrix. The pair score is M[u, v] + M[v, u].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph


@dataclass(frozen=True)
class RwrModel:
    c: float
    resolvent: np.ndarray  # (1 - c) (I - c P^T)^{-1}; column x is q_x
    index: dict[int, int]  # node id -> dense row/column


def build_transition(g: Graph) -> np.ndarray:
    """Row-stochastic transition matrix: P[i, j] = 1/k_i for each edge (i, j)."""
    if g.num_nodes == 0:
        raise ValueError("cannot build a transition matrix for an empty graph")
    n = g.num_nodes
    degrees = np.array([len(g.adjacency[u]) for u in g.node_list])
    if not degrees.all():
        u = g.node_list[int(np.argmin(degrees))]
        raise ValueError(f"degree-zero node {u}: transition row undefined")
    index = g.dense_index
    rows = np.repeat(np.arange(n), degrees)
    cols = np.fromiter(
        (index[v] for u in g.node_list for v in g.adjacency[u]),
        dtype=np.intp,
        count=len(rows),
    )
    P = np.zeros((n, n))
    P[rows, cols] = 1.0 / degrees[rows]
    return P


def build_rwr(g: Graph, c: float) -> RwrModel:
    """Solve for the resolvent M = (1 - c) (I - c P^T)^{-1} by dense LU.

    Valid for 0 <= c < 1, where the spectral radius of c P^T is c < 1. Each
    column of M is a probability vector (sums to 1).
    """
    if not 0.0 <= c < 1.0:
        raise ValueError(f"restart complement c must be in [0, 1), got {c}")
    P = build_transition(g)
    n = P.shape[0]
    A = np.eye(n) - c * P.T
    M = (1.0 - c) * np.linalg.solve(A, np.eye(n))
    return RwrModel(c=c, resolvent=M, index=dict(g.dense_index))


def rwr_score(model: RwrModel, u: int, v: int) -> float:
    """Symmetric stationary-probability score M[u, v] + M[v, u]."""
    i = model.index[u]
    j = model.index[v]
    return float(model.resolvent[i, j] + model.resolvent[j, i])
