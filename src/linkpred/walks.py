"""Walk corpora for embedding training.

Two walk laws: second-order (p, q)-weighted walks with O(1) alias draws, and
restart walks that jump back to their start node. A walk of length ``l``
visits ``l + 1`` nodes (start plus l steps). Every node in a walk, a row or
a table entry is a dense index: a position in ``Graph.nodes``.

Neighbor rows are CSR arrays ``(indptr, targets)``: the neighbors of x are
``targets[indptr[x]:indptr[x + 1]]``, ascending, and a position in
``targets`` is one directed move. :func:`generate_corpus` moves every walker
of the corpus one step per round, all drawn from one numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph

Walk = list[int]


@dataclass(frozen=True)
class WalkParams:
    """Corpus-generation settings.

    ``mode`` is "alias" for (p, q)-biased second-order walks or
    "restart" for walks that return to their start node with probability
    1 - c at each step.
    """

    length: int
    walks_per_node: int
    p: float = 1.0
    q: float = 1.0
    c: float = 0.9
    mode: str = "alias"

    def __post_init__(self):
        if self.mode not in ("alias", "restart"):
            raise ValueError(f"unknown walk mode {self.mode!r}")
        if self.length < 1:
            raise ValueError("walk length must be >= 1")
        if self.walks_per_node < 1:
            raise ValueError("walks_per_node must be >= 1")
        _check_p_q(self.p, self.q)
        if not 0.0 <= self.c <= 1.0:
            raise ValueError("restart parameter c must be in [0, 1]")


def _check_p_q(p: float, q: float) -> None:
    """p, q and the walk weights 1/p, 1/q must be positive and finite."""
    for name, x in (("p", p), ("q", q)):
        if not (0.0 < x < math.inf and 1.0 / x < math.inf):
            raise ValueError(
                f"{name} must be positive and finite with a finite reciprocal, got {x!r}")


def sorted_neighbors(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, targets)``: each dense index's neighbors, ascending, as CSR rows."""
    indptr = np.concatenate(([0], np.cumsum(g.degrees)))
    return indptr, np.nonzero(g.adjacency_matrix)[1]


def _vose(weights: list[float]) -> tuple[list[float], list[int]]:
    """prob/alias columns encoding the normalized ``weights`` (Vose's method)."""
    n = len(weights)
    total = sum(weights)
    if not total * n < math.inf:  # every w * n below must stay finite
        raise ValueError("p or q is so small that the walk weights overflow")
    scaled = [w * n / total for w in weights]
    prob = [0.0] * n
    alias = list(range(n))
    small = [i for i, s in enumerate(scaled) if s < 1.0]
    large = [i for i, s in enumerate(scaled) if s >= 1.0]
    while small and large:
        lo = small.pop()
        hi = large.pop()
        prob[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
        if scaled[hi] < 1.0:
            small.append(hi)
        else:
            large.append(hi)
    for leftover in (large, small):
        while leftover:
            prob[leftover.pop()] = 1.0
    return prob, alias


def build_alias_table(g: Graph, p: float, q: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat alias columns ``(start, prob, alias)`` for every directed move of ``g``.

    Slot s is the move t -> x at position s of :func:`sorted_neighbors`'
    ``targets``. It owns the entries ``start[s] + i``, one for each column i
    of x's row: the walker keeps column i with probability ``prob`` there and
    otherwise takes the column ``alias`` there. The law over x's neighbors w
    weights w 1/p if it is t itself, 1 if it is also a neighbor of t, and 1/q
    otherwise, normalized.
    """
    _check_p_q(p, q)
    indptr, targets = sorted_neighbors(g)
    degree = np.diff(indptr)
    sizes = degree[targets]
    start = np.cumsum(sizes) - sizes
    slot = np.repeat(np.arange(len(targets)), sizes)  # each entry's slot
    w = targets[indptr[targets[slot]] + np.arange(len(slot)) - start[slot]]
    t = np.repeat(np.arange(g.num_nodes), degree)[slot]
    weights = np.where(w == t, 1.0 / p, np.where(g.adjacency_matrix[t, w], 1.0, 1.0 / q))
    weights, prob, alias = weights.tolist(), [], []
    for a, b in zip(start.tolist(), (start + sizes).tolist()):
        slot_prob, slot_alias = _vose(weights[a:b])
        prob += slot_prob
        alias += slot_alias
    return start, np.array(prob), np.array(alias, dtype=np.int64)


def generate_corpus(g: Graph, params: WalkParams, seed: int) -> list[Walk]:
    """r walks per start node, ordered as r passes over the dense indices.

    All r·n walkers step together, one round per step, from one
    ``np.random.default_rng(seed)``; ``seed`` must be non-negative. Each step
    draws a uniform column of the walker's row. A weighted walker then keeps
    that column or takes its alias, reading the slot of its last move (its
    first step stays uniform). A restart walker moves there with probability
    c and otherwise returns to its start.
    """
    rng = np.random.default_rng(seed)
    indptr, targets = sorted_neighbors(g)
    degree = np.diff(indptr)
    homes = np.tile(np.arange(g.num_nodes), params.walks_per_node)
    walks = np.empty((len(homes), params.length + 1), dtype=np.int64)
    walks[:, 0] = homes
    if params.mode == "alias":
        start, prob, alias = build_alias_table(g, params.p, params.q)
    slot = None
    for step in range(1, params.length + 1):
        curr = walks[:, step - 1]
        col = rng.integers(degree[curr])
        if params.mode == "restart":
            moved = targets[indptr[curr] + col]
            walks[:, step] = np.where(rng.random(len(homes)) < params.c, moved, homes)
            continue
        if slot is not None:
            entry = start[slot] + col
            col = np.where(rng.random(len(homes)) < prob[entry], col, alias[entry])
        slot = indptr[curr] + col
        walks[:, step] = targets[slot]
    return walks.tolist()
