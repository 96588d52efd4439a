"""Sampling AUC estimation and the repeated-partition experiment harness.

AUC is estimated by n paired draws: a uniform withheld edge against a
sampled nonexistent pair, tallying wins, ties and losses of the withheld
edge. Experiments use a paired design: every level (index kind, c value,
dimension, ...) is evaluated on the same train/test partitions, trial by
trial. Per trial, the training graph is built once and the n draws are made
once, as an (n, 4) array of the training graph's dense node indices; every
level scores that same graph and those same draws as two score arrays; a
scorer without a batch form (``Scorer.pairs``) is called once per pair.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .graph import (
    EdgePartition,
    Graph,
    SaturatedNodeError,
    TooFewEdgesError,
    sample_non_neighbor,
    split_edges,
)

ScoreFn = Callable[[Graph, int, int], float]
PairsFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class AucTally:
    wins: int  # withheld edge scored strictly greater than the non-edge
    ties: int  # scored equal
    losses: int  # scored less (or unordered, e.g. NaN)

    @property
    def n(self) -> int:
        return self.wins + self.ties + self.losses

    @property
    def auc(self) -> float:
        """(wins + 0.5 (ties + losses)) / n: losses are credited 0.5 like
        ties, so a random scorer gets about 0.75, not 0.5."""
        return (self.wins + 0.5 * (self.ties + self.losses)) / self.n

    @property
    def auc_ties_only(self) -> float:
        """(wins + 0.5 ties) / n, the Lü–Zhou form: a random scorer gets
        about 0.5."""
        return (self.wins + 0.5 * self.ties) / self.n


@dataclass(frozen=True)
class Scorer:
    """A pair-scoring function over a training graph, with an identity tag.

    ``score(g, u, v)`` scores one pair of node ids. The optional batch form
    ``pairs(rows, cols)`` scores pairs ``(rows[i], cols[i])`` of dense
    indices of the training graph it was built on and returns a float
    array; it must agree with ``score`` pair by pair. :func:`estimate_auc`
    uses it when set; otherwise it calls ``score`` on each withheld pair,
    then on each non-edge. Every built-in factory sets it; the RWR and
    embedding scorers define ``score`` as ``pairs`` applied to one pair.
    """

    tag: str
    score: ScoreFn
    pairs: Optional[PairsFn] = None


@dataclass(frozen=True)
class ScorerFactory:
    """Builds a Scorer from a training graph; ``build(g_train, seed)``.

    The seed covers any internal randomness (walk generation, negative
    sampling); stateless scorers ignore it.
    """

    tag: str
    build: Callable[[Graph, int], Scorer]


def derive_seed(seed: int, *labels: object) -> int:
    """Stable sub-seed so distinct random streams never share state."""
    digest = hashlib.sha256(repr((seed, labels)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def draw_comparisons(
    partition: EdgePartition,
    g_train: Graph,
    n: int = 1000,
    seed: int = 0,
) -> np.ndarray:
    """n (withheld edge, sampled non-edge) draws for :func:`estimate_auc`.

    Returns an (n, 4) int array of ``g_train.dense_index`` positions with
    columns (withheld u, withheld v, non-edge a, non-edge b). The withheld
    edge is a uniform test edge; its columns hold -1, -1 when an endpoint
    is absent from the training graph (it then scores 0). The nonexistent pair
    is a uniform training node that has a non-neighbor plus a uniform
    non-neighbor of it (not uniform over all non-edges; it leans toward
    pairs incident to sparse neighborhoods). Raises
    :class:`TooFewEdgesError` when the training graph has no edge and
    :class:`SaturatedNodeError` when every training node is adjacent to
    every other. Deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError("need at least one comparison")
    if not partition.test:
        raise ValueError("empty test set")
    if g_train.num_edges == 0:
        raise TooFewEdgesError("empty training graph")
    full_degree = g_train.num_nodes - 1
    starts = [u for u in g_train.node_list if len(g_train.adjacency[u]) < full_degree]
    if not starts:
        raise SaturatedNodeError("every training node is adjacent to every other node")
    index = g_train.dense_index
    rng = random.Random(seed)
    draws: list[tuple[int, int, int, int]] = []
    for _ in range(n):
        u, v = rng.choice(partition.test)
        withheld = (index[u], index[v]) if u in index and v in index else (-1, -1)
        a = rng.choice(starts)
        b = sample_non_neighbor(g_train, a, rng)
        draws.append((*withheld, index[a], index[b]))
    return np.array(draws, dtype=np.intp)


def _per_pair_batch(g_train: Graph, score: ScoreFn) -> PairsFn:
    """Batch form of a per-pair scorer: ``score`` called on each pair's node ids."""
    nodes = g_train.node_list

    def pairs(rows, cols):
        return np.array([score(g_train, nodes[u], nodes[v])
                         for u, v in zip(rows.tolist(), cols.tolist())], dtype=float)

    return pairs


def estimate_auc(g_train: Graph, draws: np.ndarray, scorer: Scorer) -> AucTally:
    """Score each drawn pair on ``g_train`` and tally the comparisons.

    A withheld edge marked -1 scores 0. Any score that does not compare
    (NaN) counts as a loss.
    """
    pairs = scorer.pairs or _per_pair_batch(g_train, scorer.score)
    present = draws[:, 0] >= 0
    existing = np.zeros(len(draws))
    existing[present] = pairs(draws[present, 0], draws[present, 1])
    nonexistent = pairs(draws[:, 2], draws[:, 3])
    wins = int(np.count_nonzero(existing > nonexistent))
    ties = int(np.count_nonzero(existing == nonexistent))
    return AucTally(wins=wins, ties=ties, losses=len(draws) - wins - ties)


@dataclass(frozen=True)
class TrialRecord:
    trial_seed: int
    level: str
    tally: AucTally

    @property
    def auc(self) -> float:
        return self.tally.auc


@dataclass(frozen=True)
class ExperimentResult:
    records: tuple[TrialRecord, ...]

    def levels(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.level, None)
        return tuple(seen)

    def aucs(self, level: str) -> tuple[float, ...]:
        return tuple(r.auc for r in self.records if r.level == level)


def run_experiment(
    g_full: Graph,
    levels: Sequence[ScorerFactory],
    trials: int = 100,
    test_fraction: float = 0.1,
    comparisons: int = 1000,
    base_seed: int = 0,
) -> ExperimentResult:
    """Paired repeated-partition experiment.

    Trial t uses partition seed base_seed + t. The trial's training graph is
    built once and its comparisons are drawn once; every level is built on
    that graph and scores those same draws, so per-trial differences are
    within-partition. Level tags must be distinct: records are grouped by
    tag. Deterministic end to end.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not levels:
        raise ValueError("no levels to evaluate")
    tags = [factory.tag for factory in levels]
    for tag in tags:
        if tags.count(tag) > 1:
            raise ValueError(f"level tag {tag!r} is repeated; records would merge")
    records: list[TrialRecord] = []
    for t in range(trials):
        part_seed = base_seed + t
        partition = split_edges(g_full, test_fraction, part_seed)
        g_train = Graph(partition.train)
        draws = draw_comparisons(
            partition, g_train, comparisons, derive_seed(part_seed, "auc")
        )
        for factory in levels:
            scorer = factory.build(g_train, derive_seed(part_seed, "build", factory.tag))
            records.append(TrialRecord(part_seed, factory.tag,
                                       estimate_auc(g_train, draws, scorer)))
    return ExperimentResult(tuple(records))


@dataclass(frozen=True)
class LevelSummary:
    level: str
    mean: float
    std: float
    stderr: float
    ci_low: float
    ci_high: float


def _mean_std_stderr(values: list[float]) -> tuple[float, float, float]:
    """Mean, unbiased standard deviation and standard error of two or more values."""
    m = len(values)
    mean = sum(values) / m
    std = math.sqrt(sum((x - mean) ** 2 for x in values) / (m - 1))
    return mean, std, std / math.sqrt(m)


def summarize(result: ExperimentResult) -> dict[str, LevelSummary]:
    """Per-level mean, unbiased std, standard error, and normal 95% CI."""
    by_level: dict[str, list[float]] = {}
    for record in result.records:
        by_level.setdefault(record.level, []).append(record.auc)
    summaries: dict[str, LevelSummary] = {}
    for level, values in by_level.items():
        if len(values) < 2:
            raise ValueError(f"level {level!r} has {len(values)} trial(s); need at least 2")
        mean, std, stderr = _mean_std_stderr(values)
        summaries[level] = LevelSummary(level, mean, std, stderr,
                                        mean - 1.96 * stderr, mean + 1.96 * stderr)
    return summaries


def paired_difference(
    result: ExperimentResult, level_a: str, level_b: str
) -> tuple[float, float]:
    """Mean and standard error of per-trial AUC differences (a - b).

    Trials are matched by partition seed; raises if the two levels were not
    run on identical partitions.
    """
    a = {r.trial_seed: r.auc for r in result.records if r.level == level_a}
    b = {r.trial_seed: r.auc for r in result.records if r.level == level_b}
    if not a or a.keys() != b.keys():
        raise ValueError(f"levels {level_a!r} and {level_b!r} are not paired")
    diffs = [a[s] - b[s] for s in a]
    if len(diffs) < 2:
        raise ValueError("need at least two paired trials")
    mean, _, stderr = _mean_std_stderr(diffs)
    return mean, stderr


def write_records_csv(result: ExperimentResult, path: Union[str, Path]) -> None:
    """Per-trial CSV: header trial_seed,level,auc,wins,ties,losses; UTF-8
    with LF endings."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["trial_seed", "level", "auc", "wins", "ties", "losses"])
        for r in result.records:
            writer.writerow([r.trial_seed, r.level, repr(r.auc), *astuple(r.tally)])


def write_summary_csv(
    summaries: dict[str, LevelSummary], path: Union[str, Path]
) -> None:
    """Summary CSV: level,mean,std,stderr,ci_low,ci_high."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["level", "mean", "std", "stderr", "ci_low", "ci_high"])
        for summary in summaries.values():
            level, *values = astuple(summary)
            writer.writerow([level, *map(repr, values)])
