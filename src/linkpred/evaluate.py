"""Sampling AUC estimation and the repeated-partition experiment harness.

AUC is estimated by n paired draws: a uniform withheld edge against a
sampled nonexistent pair, tallying wins, ties and losses of the withheld
edge. Each trial's randomness comes from numpy Generators: ``split_edges``
permutes the edge list under the absolute partition seed, and
``draw_comparisons`` makes all n draws in batch, with the same sampling law
as one draw at a time. Experiments use a paired design: every level (index
kind, c value, dimension, ...) is evaluated on the same train/test
partitions, trial by trial. A study has one node set: per trial, the
training graph is built once, from the split's training rows of the full
graph's ``edges`` over all of its nodes (one whose edges were all withheld
has degree 0), and the n draws are made once, as an (n, 4) array of those
dense indices, and laid out once as 2n pairs (:func:`comparison_pairs`),
the withheld pairs in draw order, then the non-edges. Every level scores
that same graph and those same pairs in one call; a scorer without a batch
form (``Scorer.pairs``) is called once per pair, in that order. Scorers
never see node ids. The graph caches what scorers read from it (its
adjacency matrix, packed adjacency rows and Adamic-Adar weight table) and
keeps the features of the last pairs asked for (the AND of the packed
rows, its counts and both endpoint degrees), so the levels of a trial build
each once and intersect the rows and gather the degrees of its pairs once.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import astuple, dataclass
from functools import partial
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


def _score_one(pairs: PairsFn, g: Graph, i: int, j: int) -> float:
    return float(pairs(np.array([i]), np.array([j]))[0])


@dataclass(frozen=True)
class Scorer:
    """A pair-scoring function over a training graph, with an identity tag.

    Both forms take dense indices of the training graph it was built on.
    ``score(g, i, j)`` scores one pair; the batch form ``pairs(rows, cols)``
    scores pairs ``(rows[i], cols[i])`` and returns a float array. They must
    agree pair by pair; an omitted ``score`` is ``pairs`` on one pair, as
    every built-in factory leaves it. :func:`estimate_auc` calls ``pairs``
    when set, else ``score`` on each pair in turn, withheld pairs first.
    """

    tag: str
    score: Optional[ScoreFn] = None
    pairs: Optional[PairsFn] = None

    def __post_init__(self):
        if self.score is None:
            if self.pairs is None:
                raise ValueError(f"scorer {self.tag!r} has neither score nor pairs")
            object.__setattr__(self, "score", partial(_score_one, self.pairs))


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
    """n (withheld edge, sampled non-edge) draws, which :func:`comparison_pairs`
    lays out for :func:`estimate_auc`.

    Returns an (n, 4) int array of dense indices with columns (withheld u,
    withheld v, non-edge a, non-edge b). ``g_train`` holds every node of the
    graph that ``partition`` split, as :func:`run_experiment` builds it, so
    the withheld edge is a uniform test row as it stands. The nonexistent
    pair is a uniform training node that has a non-neighbor plus a uniform
    non-neighbor of it (not uniform over all non-edges; it leans toward pairs
    incident to sparse neighborhoods). All three columns
    are drawn in batch from one ``np.random.Generator`` seeded with ``seed``
    (a non-negative int); the non-neighbors come from one
    :func:`~linkpred.graph.sample_non_neighbor` call. Raises
    :class:`TooFewEdgesError` when the training graph has no edge and
    :class:`SaturatedNodeError` when every training node is adjacent to
    every other. Deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError("need at least one comparison")
    if not len(partition.test):
        raise ValueError("empty test set")
    if g_train.num_edges == 0:
        raise TooFewEdgesError("empty training graph")
    starts = np.flatnonzero(g_train.degrees < g_train.num_nodes - 1)
    if not starts.size:
        raise SaturatedNodeError("every training node is adjacent to every other node")
    rng = np.random.default_rng(seed)
    draws = np.empty((n, 4), dtype=np.intp)
    draws[:, :2] = partition.test.take(rng.integers(len(partition.test), size=n), axis=0)
    draws[:, 2] = starts[rng.integers(starts.size, size=n)]
    draws[:, 3] = sample_non_neighbor(g_train, draws[:, 2], rng)
    return draws


def _per_pair_batch(g_train: Graph, score: ScoreFn) -> PairsFn:
    """Batch form of a per-pair scorer: ``score`` called on each pair."""

    def pairs(rows, cols):
        return np.array([score(g_train, i, j) for i, j in zip(rows.tolist(), cols.tolist())],
                        dtype=float)

    return pairs


def comparison_pairs(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` of the 2n pairs that (n, 4) ``draws`` compare, as
    :func:`estimate_auc` takes them: pair i < n is withheld draw i's
    (u, v), pair n + i is its non-edge (a, b). Both arrays are read-only,
    as every level of a trial scores them."""
    rows = np.concatenate((draws[:, 0], draws[:, 2]))
    cols = np.concatenate((draws[:, 1], draws[:, 3]))
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def estimate_auc(g_train: Graph, rows: np.ndarray, cols: np.ndarray, scorer: Scorer) -> AucTally:
    """Score the 2n pairs ``(rows[i], cols[i])`` on ``g_train`` in one call and
    tally the n comparisons of pair i with pair n + i.

    The first half are the withheld pairs and the second the non-edges, as
    :func:`comparison_pairs` lays them out. Any score that does not compare
    (NaN) counts as a loss.
    """
    pairs = scorer.pairs or _per_pair_batch(g_train, scorer.score)
    n = len(rows) // 2
    scores = pairs(rows, cols)
    existing, nonexistent = scores[:n], scores[n:]
    wins = int(np.count_nonzero(existing > nonexistent))
    ties = int(np.count_nonzero(existing == nonexistent))
    return AucTally(wins=wins, ties=ties, losses=n - wins - ties)


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


def check_split_settings(
    trials: int, test_fraction: float, comparisons: int, base_seed: int
) -> None:
    """Raise ValueError unless trials >= 1, 0 < test_fraction < 1, comparisons >= 1
    and the trial seeds base_seed, ..., base_seed + trials - 1 have distinct
    absolute values: a seed and its negative give the same partition, so
    such trials would repeat one."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if base_seed < 0 < base_seed + trials - 1:
        raise ValueError(
            f"trial seeds {base_seed}..{base_seed + trials - 1} include both -1 and 1; "
            "a seed and its negative give the same partition")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if comparisons < 1:
        raise ValueError("need at least one comparison")


def run_experiment(
    g_full: Graph,
    levels: Sequence[ScorerFactory],
    trials: int = 100,
    test_fraction: float = 0.1,
    comparisons: int = 1000,
    base_seed: int = 0,
) -> ExperimentResult:
    """Paired repeated-partition experiment.

    Trial t uses partition seed base_seed + t; no two trial seeds may share
    an absolute value (see :func:`check_split_settings`). The trial's
    training graph is built once, its comparisons are drawn once and laid
    out once as pairs; every level is built on that graph and scores those
    same pairs, so per-trial differences are within-partition. Each level's
    scorer is dropped once its tally is taken, before the next level is
    built, so at most one level's matrices (an RWR resolvent is n x n) are
    alive at a time. Level tags must be distinct: records are grouped by
    tag. Deterministic end to end.
    """
    check_split_settings(trials, test_fraction, comparisons, base_seed)
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
        g_train = Graph(partition.train, nodes=g_full.nodes)
        rows, cols = comparison_pairs(draw_comparisons(
            partition, g_train, comparisons, derive_seed(part_seed, "auc")
        ))
        for factory in levels:
            scorer = factory.build(g_train, derive_seed(part_seed, "build", factory.tag))
            records.append(TrialRecord(part_seed, factory.tag,
                                       estimate_auc(g_train, rows, cols, scorer)))
            del scorer  # free an RWR level's n x n resolvent before the next is built
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
