"""Walk corpora for embedding training.

Two samplers: second-order (p, q)-weighted walks with O(1) alias draws, and
restart walks that jump back to their start node. A walk of length ``l``
visits ``l + 1`` nodes (start plus l steps). Every node in a walk, a row or
a table key is a dense index: a position in ``Graph.nodes``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .graph import Graph

Walk = list[int]
# Each dense index's neighbors, ascending by node id; the samplers' column order.
Neighbors = dict[int, tuple[int, ...]]
# (prev, curr) -> (prob, alias): column i of nbrs[curr] is kept with
# probability prob[i] and otherwise replaced by the node alias[i].
AliasTable = dict[tuple[int, int], tuple[list[float], list[int]]]


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


def sorted_neighbors(g: Graph) -> Neighbors:
    """Neighbor rows keyed by dense index, each ascending by node id: both edge
    orientations sorted by (source, target's id rank), cut at the degree offsets."""
    n, rank = g.num_nodes, np.argsort(np.argsort(g.nodes))
    ends = np.concatenate((g.edges, g.edges[:, ::-1]))
    targets = ends[np.argsort(ends[:, 0] * n + rank[ends[:, 1]]), 1].tolist()
    stops = np.cumsum(g.degrees).tolist()
    return {x: tuple(targets[a:b]) for x, (a, b) in enumerate(zip([0, *stops], stops))}


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


def build_alias_table(nbrs: Neighbors, p: float, q: float) -> AliasTable:
    """Precompute the alias columns for both orientations of every edge of the
    graph whose :func:`sorted_neighbors` rows are ``nbrs``.

    For the directed orientation (t, x) the distribution over N(x) weights a
    neighbor 1/p if it is t itself, 1 if it is also a neighbor of t, and 1/q
    otherwise, normalized.
    """
    _check_p_q(p, q)
    members = {x: set(row) for x, row in nbrs.items()}
    table: AliasTable = {}
    for curr, row in nbrs.items():
        for prev in row:
            prev_nbrs = members[prev]
            weights = [
                1.0 / p if w == prev else 1.0 if w in prev_nbrs else 1.0 / q
                for w in row
            ]
            prob, alias = _vose(weights)
            table[(prev, curr)] = (prob, [row[i] for i in alias])
    return table


def weighted_walk(
    nbrs: Neighbors, table: AliasTable, x: int, length: int, rng: random.Random
) -> Walk:
    """Second-order walk from dense index x: first step uniform, then O(1)
    alias draws (a uniform column, then keep it or take its alias)."""
    first = nbrs[x]  # an unknown start raises KeyError even at length 0
    walk = [x, rng.choice(first)] if length else [x]
    for _ in range(length - 1):
        prev, curr = walk[-2], walk[-1]
        prob, alias = table[(prev, curr)]
        row = nbrs[curr]
        i = rng.randrange(len(row))
        walk.append(row[i] if rng.random() < prob[i] else alias[i])
    return walk


def restart_walk(nbrs: Neighbors, x: int, length: int, c: float, rng: random.Random) -> Walk:
    """Walk from dense index x that moves to a uniform neighbor with
    probability c and otherwise returns to x."""
    if x not in nbrs:
        raise KeyError(x)
    walk = [x]
    for _ in range(length):
        walk.append(rng.choice(nbrs[walk[-1]]) if rng.random() < c else x)
    return walk


def generate_corpus(g: Graph, params: WalkParams, seed: int) -> list[Walk]:
    """r walks per start node, iterated as r outer passes over the dense indices.

    Deterministic for a fixed seed; one RNG drives the whole corpus.
    """
    rng = random.Random(seed)
    nbrs = sorted_neighbors(g)
    table = None
    if params.mode == "alias":
        table = build_alias_table(nbrs, params.p, params.q)
    corpus: list[Walk] = []
    for _ in range(params.walks_per_node):
        for x in range(g.num_nodes):
            if table is not None:
                corpus.append(weighted_walk(nbrs, table, x, params.length, rng))
            else:
                corpus.append(restart_walk(nbrs, x, params.length, params.c, rng))
    return corpus
