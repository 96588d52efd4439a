"""Random-walk-with-restart similarity: one block-recursive inverse per level.

A surfer at node i moves to a uniform neighbor with probability c and jumps
back to its start node with probability 1 - c. The stationary distribution
for start node x is column x of M = (1 - c) (I - c P^T)^{-1}, where P = D^-1 A
is the row-stochastic transition matrix. The pair score is M[u, v] + M[v, u].
Rows and columns are the graph's dense indices (``Graph.dense_index``).

P^T = D^1/2 N D^-1/2 with N = D^-1/2 A D^-1/2 symmetric, so

    M = (1 - c) D^1/2 X D^-1/2,  X = (I - c N)^{-1}.

N has its eigenvalues in [-1, 1] and c < 1, so B = I - c N is symmetric
positive definite. It is inverted by 2x2 block (Schur-complement) steps of
matrix products, at n = 332 cheaper than an LU solve of I - c P^T; an eigh of
N that a c sweep could share takes ~14-18 ms, against ~2 ms for one inverse
(one BLAS thread), so no call keeps anything. ``build_rwr`` returns X, which
is symmetric to a few ulps; a scorer scales only the entries it reads, and
its score is exactly symmetric because its two terms swap under u <-> v.
Entries between two components are exactly 0: every product reaching them
multiplies a structural zero. N is written over P on its 2m edge entries
only, and the inverse in place, since a second n x n buffer is page-faulted
in on every call at about the products' cost. The same holds across levels:
``evaluate.run_experiment`` drops each level's X before it builds the next,
so a c sweep holds one resolvent at a time.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

_LEAF = 48  # blocks up to this order are inverted by LAPACK


def build_transition(g: Graph) -> np.ndarray:
    """Row-stochastic transition matrix P = D^-1 A, a new writable array on
    every call: P[i, j] = 1/k_i for each edge (i, j), scattered from
    ``Graph.edges`` into zeros (every node of a graph has k >= 1)."""
    if g.num_nodes == 0:
        raise ValueError("cannot build a transition matrix for an empty graph")
    u, v = g.edges.T
    P = np.zeros((g.num_nodes, g.num_nodes))
    P[u, v], P[v, u] = 1.0 / g.degrees[u], 1.0 / g.degrees[v]
    return P


def _spd_inverse(B: np.ndarray) -> np.ndarray:
    """Overwrite a symmetric positive definite B with its inverse and return it.

    With B = [[B11, B12], [B12^T, B22]], W = B11^-1 B12 and the Schur
    complement S = B22 - B12^T W, the inverse is
    [[B11^-1 + W S^-1 W^T, -W S^-1], [-(W S^-1)^T, S^-1]]. Only B11, B12 and
    B22 are read, so a Schur complement a few ulps from symmetric is inverted
    as it stands; the result is symmetric to a few ulps, not exactly.
    """
    n = B.shape[0]
    if n <= _LEAF:
        B[...] = np.linalg.inv(B)
        return B
    h = n // 2
    B11, B12, B21, B22 = B[:h, :h], B[:h, h:], B[h:, :h], B[h:, h:]
    _spd_inverse(B11)
    W = B11 @ B12
    B22 -= B12.T @ W
    _spd_inverse(B22)
    np.matmul(W, B22, out=B12)  # W S^-1
    B11 += B12 @ W.T
    B21[...] = np.negative(B12, out=B12).T
    return B


def check_restart(c: float) -> None:
    """Raise ValueError unless 0 <= c < 1."""
    if not 0.0 <= c < 1.0:
        raise ValueError(f"restart complement c must be in [0, 1), got {c}")


def build_rwr(g: Graph, c: float) -> np.ndarray:
    """X = (I - c N)^{-1}, for 0 <= c < 1; M = (1 - c) D^1/2 X D^-1/2.

    M[i, j] = X[i, j] (1 - c) sqrt(k_i) / sqrt(k_j), and column x of M is the
    stationary distribution (sums to 1) for start node ``g.node_list[x]``.
    At c = 0, X is exactly the identity.
    """
    check_restart(c)
    B = build_transition(g)
    u, v = g.edges.T
    B[u, v] = B[v, u] = np.sqrt(B[u, v] * B[v, u])  # N: 1 / sqrt(k_i k_j) per edge
    B *= -c  # over all of B, so a non-edge is -0.0 as in a dense sqrt(P * P.T) * -c
    B.flat[:: B.shape[0] + 1] += 1.0
    return _spd_inverse(B)
