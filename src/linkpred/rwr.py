"""Random-walk-with-restart similarity: an LU solve, or one eigh per graph for many c.

A surfer at node i moves to a uniform neighbor with probability c and jumps
back to its start node with probability 1 - c. The stationary distribution
for start node x is column x of M = (1 - c) (I - c P^T)^{-1}, where P = D^-1 A
is the row-stochastic transition matrix. The pair score is M[u, v] + M[v, u].
Rows and columns are the graph's dense indices (``Graph.dense_index``).

P^T = D^1/2 N D^-1/2 with N = D^-1/2 A D^-1/2 symmetric, so N = U diag(lam) U^T
gives, for every c at once,

    M = (1 - c) (I + D^1/2 U diag(c lam / (1 - c lam)) U^T D^-1/2).

The eigenvalues lie in [-1, 1] and c < 1, so 1 - c lam > 0. On a 332-node
graph one eigh and a matrix product per level cost about as much as two LU
solves of I - c P^T and clearly less than three, so the factors pay off only
on a graph asked for three or more levels, as a c sweep asks of each training
graph. The last graph asked for is kept with its level count: its third level
factors it, and the next graph is factored on its first level if the last
one was asked for three or more; every other level is an LU solve. Tong,
Faloutsos & Pan ("Fast Random Walk with Restart", ICDM 2006) likewise reuse
one decomposition per graph for every query.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

Factors = tuple[np.ndarray, np.ndarray, np.ndarray]

# (graph, levels asked of it, its factors or None) of the last graph asked
# for. The graph is held, not its id, so a new graph can never match a freed
# one's entry; Graph is immutable, so a held entry never goes stale.
_last: tuple[Graph, int, Factors | None] | None = None
_FACTOR_AT = 3  # levels per graph from which one eigh costs less than LU solves


def build_transition(g: Graph) -> np.ndarray:
    """Row-stochastic transition matrix P = D^-1 A: ``Graph.adjacency_matrix``
    with row i divided by k_i, so P[i, j] = 1/k_i for each edge (i, j)."""
    if g.num_nodes == 0:
        raise ValueError("cannot build a transition matrix for an empty graph")
    return g.adjacency_matrix / g.degrees[:, None]


def _factors(g: Graph) -> Factors:
    """(lam, U, sqrt_k) with D^-1/2 A D^-1/2 = U diag(lam) U^T."""
    N = build_transition(g)
    sqrt_k = np.sqrt(g.degrees)
    N *= sqrt_k[:, None]
    N /= sqrt_k
    lam, U = np.linalg.eigh(N)
    np.clip(lam, -1.0, 1.0, out=lam)
    return lam, U, sqrt_k


def build_rwr(g: Graph, c: float) -> np.ndarray:
    """The resolvent M = (1 - c) (I - c P^T)^{-1}, by dense LU or from spectral factors.

    Valid for 0 <= c < 1. Each column of M is a probability vector (sums to
    1); column x is the stationary distribution for start node
    ``g.node_list[x]``. At c = 0, M is exactly the identity.
    """
    global _last
    if not 0.0 <= c < 1.0:
        raise ValueError(f"restart complement c must be in [0, 1), got {c}")
    if _last is not None and _last[0] is g:
        levels, factors = _last[1] + 1, _last[2]
        expected = levels
    else:  # expect as many levels as were asked of the graph before
        levels, factors = 1, None
        expected = _last[1] if _last is not None else 1
        _last = None  # hold one factorization at a time
    if factors is None and expected >= _FACTOR_AT:
        factors = _factors(g)
    _last = (g, levels, factors)
    if factors is None:
        A = build_transition(g).T * -c
        n = A.shape[0]
        A.flat[:: n + 1] += 1.0
        M = np.linalg.solve(A, np.eye(n))
        M *= 1.0 - c
        return M
    lam, U, sqrt_k = factors
    left = U * (c * lam / (1.0 - c * lam))
    left *= sqrt_k[:, None]
    M = left @ U.T
    M /= sqrt_k
    M.flat[:: M.shape[0] + 1] += 1.0
    M *= 1.0 - c
    return M
