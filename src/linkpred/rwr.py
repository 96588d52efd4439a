"""Random-walk-with-restart similarity: one in-place inverse per level.

A surfer at node i moves to a uniform neighbor with probability c and jumps
back to its start node with probability 1 - c. The stationary distribution
for start node x is column x of M = (1 - c) (I - c P^T)^{-1}, where P = D^-1 A
is the row-stochastic transition matrix. The pair score is M[u, v] + M[v, u].
Rows and columns are the graph's dense indices (positions in ``Graph.nodes``).

P^T = D^1/2 N D^-1/2 with N = D^-1/2 A D^-1/2 symmetric, so

    M = (1 - c) D^1/2 X D^-1/2,  X = (I - c N)^{-1}.

N has its eigenvalues in [-1, 1] and c < 1, so B = I - c N is symmetric
positive definite. N has a zero diagonal, so on a maximal independent set I
(``Graph.independent_set``) B is exactly the identity. With I first and the
rest C after it, one Schur step eliminates I with no inverse of that block,
and only S = B_CC - W^T W, W = B_IC, is inverted, by 2x2 block
(Schur-complement) steps of matrix products. On ``usair_like`` I holds ~110
of 332 nodes, and the inverse runs at order ~220. A set of at most
``_LEAF`` nodes saves less than the permutation costs, and B is inverted as
it stands. Block steps beat an LU solve of I - c P^T and an eigh of N that
a c sweep could share (~12-18 ms, against ~2 ms for one inverse at
n = 332, one BLAS thread); the set is all that the levels share. X is
symmetric to a few ulps; a level scores through :func:`pair_scores`, which
scales only the entries it reads, and its score is exactly symmetric because
its two terms swap under u <-> v.
Entries between two components are exactly 0: every product reaching them
multiplies a structural zero. N is written over P on its 2m edge entries
only, and the inverse in place, since a second n x n buffer is page-faulted
in on every call at about the products' cost. The same holds across levels:
``evaluate.run_experiment`` drops each level's X before it builds the next,
so a c sweep holds one resolvent at a time.
"""

from __future__ import annotations

import numpy as np

from .evaluate import PairsFn
from .graph import Graph

_LEAF = 48  # blocks up to this order are inverted by LAPACK


def build_transition(g: Graph) -> np.ndarray:
    """Transition matrix P = D^-1 A, a new writable array on every call:
    P[i, j] = 1/k_i for each edge (i, j), scattered from ``Graph.edges`` into
    zeros, so a row sums to 1 at a node with a neighbor and is 0 at degree 0."""
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


def _eliminate(B: np.ndarray, k: int) -> np.ndarray:
    """Overwrite a symmetric positive definite B whose leading k x k block is
    exactly the identity with its inverse, and return it: one Schur step with
    W = B12 and S = B22 - W^T W gives [[I + W S^-1 W^T, -W S^-1],
    [-(W S^-1)^T, S^-1]], and only S goes to :func:`_spd_inverse`."""
    W, B21, S = B[:k, k:], B[k:, :k], B[k:, k:]
    S -= W.T @ W
    _spd_inverse(S)
    WS = W @ S
    B[:k, :k] += WS @ W.T
    B21[...] = np.negative(WS, out=W).T
    return B


def check_restart(c: float) -> None:
    """Raise ValueError unless 0 <= c < 1."""
    if not 0.0 <= c < 1.0:
        raise ValueError(f"restart complement c must be in [0, 1), got {c}")


def build_rwr(g: Graph, c: float) -> tuple[np.ndarray, np.ndarray]:
    """``(X, pos)``, X[pos[i], pos[j]] = (I - c N)^{-1}[i, j] for dense indices
    i, j and 0 <= c < 1, so M[i, j] = X[pos[i], pos[j]] (1 - c) sqrt(k_i) /
    sqrt(k_j); column x of M is the stationary distribution (sums to 1) for
    start node ``g.nodes[x]`` when x has a neighbor, and at c = 0 X is exactly
    the identity. ``pos``
    puts ``g.independent_set`` first when it has more than ``_LEAF`` nodes,
    and is the identity otherwise."""
    check_restart(c)
    B = build_transition(g)
    n = B.shape[0]
    lead = g.independent_set if n > _LEAF else ()
    k = len(lead) if len(lead) > _LEAF else 0
    flat = B.reshape(-1, copy=False)  # a view, or an error: the writes must reach B
    u, v = g.edges.T
    N = np.sqrt(flat.take(u * n + v) * flat.take(v * n + u))  # 1 / sqrt(k_i k_j) per edge
    pos = np.arange(n)
    if k:
        rest = np.ones(n, dtype=bool)
        rest[lead] = False
        pos[np.concatenate((lead, np.flatnonzero(rest)))] = np.arange(n)
        flat[u * n + v] = flat[v * n + u] = 0.0
        u, v = pos[u], pos[v]
    flat[u * n + v] = flat[v * n + u] = N
    B *= -c  # over all of B, so a non-edge is -0.0 as in a dense sqrt(P * P.T) * -c
    B.flat[:: n + 1] += 1.0
    return (_eliminate(B, k) if k else _spd_inverse(B)), pos


def pair_scores(g: Graph, c: float) -> PairsFn:
    """The RWR level's batch scorer on ``g``: M[i, j] + M[j, i] at each pair
    i, j = rows, cols of dense indices, read from one :func:`build_rwr` with
    each entry scaled as a full scaling of X would scale it. A node of degree
    0 is scaled as one of degree 1, so each pair at it scores X's exact 0."""
    X, pos = build_rwr(g, c)
    flat, n = X.ravel(), len(X)  # a view: X is build_transition's C-contiguous array
    s = np.sqrt(np.maximum(g.degrees, 1))
    a = (1.0 - c) * s

    def pairs(rows, cols):
        r, q = pos[rows], pos[cols]
        return flat.take(r * n + q) * a[rows] / s[cols] + flat.take(q * n + r) * a[cols] / s[rows]

    return pairs
