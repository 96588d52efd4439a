"""Walk corpora for embedding training.

Two walk laws: second-order (p, q)-weighted walks, stepped by rejection
against a per-move weight bound, and restart walks that jump back to their
start node. A walk of length ``l`` visits ``l + 1`` nodes (start plus l
steps). Every node in a walk or a row is a dense index: a position in
``Graph.nodes``.

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


def build_alias_table(g: Graph, p: float, q: float) -> np.ndarray:
    """Weight bound of every directed move of ``g``, for rejection steps.

    Entry s is the move t -> x at position s of :func:`sorted_neighbors`'
    ``targets``: the largest weight among x's next moves, where a neighbor w
    of x weighs 1/p if it is t itself, 1 if it is also a neighbor of t, and
    1/q otherwise. Going back to t is always possible; the other two terms
    count only when x has such a neighbor. The name dates from the alias
    columns this array replaced, and stays because ``--mode alias`` is this
    walk and the benchmark's ``walks.alias_table`` span patches it here.
    """
    _check_p_q(p, q)
    t, x = np.nonzero(g.adjacency_matrix)
    common = g.common_neighbor_counts[t, x]
    return np.maximum(np.maximum(1.0 / p, (common > 0) * 1.0), (g.degrees[x] - 1 > common) / q)


def generate_corpus(g: Graph, params: WalkParams, seed: int) -> list[Walk]:
    """r walks per start node, ordered as r passes over the dense indices.

    All r·n walkers step together, one round per step, from one
    ``np.random.default_rng(seed)``; ``seed`` must be non-negative. Each step
    draws a uniform column of every walker's row. A restart walker moves there
    with probability c and otherwise returns to its start. A weighted walker
    past its first step keeps its column x with probability w / bound, one
    uniform each, where w is x's node2vec weight after the move prev -> curr
    and bound is that move's entry of :func:`build_alias_table`; the rejected
    walkers alone draw a new column and a new uniform, until none is left.
    That is the exact (p, q) law, and at p = q = 1 every column is kept.
    """
    rng = np.random.default_rng(seed)
    indptr, targets = sorted_neighbors(g)
    degree = np.diff(indptr)
    homes = np.tile(np.arange(g.num_nodes), params.walks_per_node)
    walks = np.empty((len(homes), params.length + 1), dtype=np.int64)
    walks[:, 0] = homes
    if params.mode == "alias":
        bound = build_alias_table(g, params.p, params.q)
        back, away = 1.0 / params.p, 1.0 / params.q
    for step in range(1, params.length + 1):
        curr = walks[:, step - 1]
        col = rng.integers(degree[curr])
        if params.mode == "restart":
            moved = targets[indptr[curr] + col]
            walks[:, step] = np.where(rng.random(len(homes)) < params.c, moved, homes)
            continue
        todo = np.arange(len(homes) if step > 1 else 0)  # a first step has no prev: uniform
        while len(todo):
            prev, x = walks[todo, step - 2], targets[indptr[curr[todo]] + col[todo]]
            w = np.where(x == prev, back, np.where(g.adjacency_matrix[prev, x], 1.0, away))
            todo = todo[rng.random(len(todo)) * bound[slot[todo]] >= w]
            col[todo] = rng.integers(degree[curr[todo]])
        slot = indptr[curr] + col
        walks[:, step] = targets[slot]
    return walks.tolist()
