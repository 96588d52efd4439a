import random

import numpy as np
import pytest

from linkpred import datasets, evaluate
from linkpred.evaluate import (
    AucTally,
    ExperimentResult,
    Scorer,
    ScorerFactory,
    TrialRecord,
    draw_comparisons,
    estimate_auc,
    paired_difference,
    run_experiment,
    write_records_csv,
)
from linkpred.graph import EdgePartition, Graph, SaturatedNodeError, split_edges
from linkpred.indices import LOCAL_INDICES
from linkpred.pipelines import embedding_factory, local_index_factory, rwr_factory
from linkpred.predictor import OPERATORS
from linkpred.skipgram import TrainConfig
from linkpred.walks import WalkParams

# Per-trial AUCs of run_experiment(g(1), GOLDEN_LEVELS, trials=3) as a
# harness that rebuilt the training graph and redrew the comparisons per
# level gave them; sharing both across levels must not move a single value.
GOLDEN = {
    "usair_like": {
        "cn": (0.85, 0.85, 0.84),
        "hub_prom": (0.8645, 0.875, 0.8675),
        "hub_depr": (0.844, 0.8535, 0.8365),
        "lhn1": (0.8305, 0.851, 0.8335),
        "aa": (0.877, 0.882, 0.8695),
        "lhn1_var": (0.8715, 0.872, 0.8655),
        "rwr_c=0.1": (0.8945, 0.92, 0.9015),
        "rwr_c=0.5": (0.9005, 0.925, 0.9035),
        "rwr_c=0.9": (0.902, 0.91, 0.9055),
    },
    "florida_like": {
        "cn": (0.8225, 0.8195, 0.8245),
        "hub_prom": (0.8225, 0.831, 0.8345),
        "hub_depr": (0.8025, 0.806, 0.804),
        "lhn1": (0.745, 0.748, 0.7745),
        "aa": (0.8365, 0.829, 0.8335),
        "lhn1_var": (0.8305, 0.8315, 0.8335),
        "rwr_c=0.1": (0.828, 0.8215, 0.829),
        "rwr_c=0.5": (0.83, 0.829, 0.8375),
        "rwr_c=0.9": (0.8325, 0.8445, 0.8435),
    },
}
GOLDEN_LEVELS = [local_index_factory(k) for k in LOCAL_INDICES] + [
    rwr_factory(c) for c in (0.1, 0.5, 0.9)
]
# Per-trial (wins, ties, losses) of run_experiment(chesapeake_like(),
# EMBED_LEVELS, trials=3) as embedding scorers that built each pair's feature
# vector and probability one pair at a time gave them; the batch form must
# reproduce every tally.
GOLDEN_EMBED = {
    "hadamard": ((577, 2, 421), (734, 2, 264), (631, 7, 362)),
    "average": ((637, 2, 361), (698, 2, 300), (636, 7, 357)),
    "abs_diff": ((587, 2, 411), (444, 2, 554), (518, 7, 475)),
}
EMBED_LEVELS = [
    embedding_factory(WalkParams(10, 2), TrainConfig(dim=16, window=3, epochs=2), op, tag=op)
    for op in OPERATORS
]


def _wheel(n):
    """Hub 0 joined to every node of the cycle 1..n-1."""
    return Graph([(0, i) for i in range(1, n)] + [(i, i % (n - 1) + 1) for i in range(1, n)])


def _random_factory(tag):
    def build(g_train, seed):
        rng = random.Random(seed)
        return Scorer(tag, lambda g, u, v: rng.random())

    return ScorerFactory(tag, build)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_per_trial_aucs(name):
    result = run_experiment(getattr(datasets, name)(1), GOLDEN_LEVELS, trials=3)
    assert {level: result.aucs(level) for level in result.levels()} == GOLDEN[name]


def test_golden_embedding_tallies():
    result = run_experiment(datasets.chesapeake_like(), EMBED_LEVELS, trials=3)
    tallies = {}
    for r in result.records:
        tallies.setdefault(r.level, []).append((r.tally.wins, r.tally.ties, r.tally.losses))
    assert {level: tuple(t) for level, t in tallies.items()} == GOLDEN_EMBED


def test_repeated_level_tags_raise():
    levels = [local_index_factory("cn"), local_index_factory("aa"), local_index_factory("cn")]
    with pytest.raises(ValueError, match="'cn' is repeated"):
        run_experiment(datasets.chesapeake_like(), levels, trials=2)


def test_levels_see_identical_pairs():
    seen = {}

    def recording(tag):
        def build(g_train, seed):
            calls = seen.setdefault(tag, [])
            return Scorer(tag, lambda g, u, v: calls.append((u, v)) or 0.0)

        return ScorerFactory(tag, build)

    run_experiment(datasets.usair_like(2), [recording("a"), recording("b")],
                   trials=2, comparisons=50)
    assert len(seen["a"]) > 100
    assert seen["a"] == seen["b"]


def test_training_graph_built_once_per_trial(monkeypatch):
    calls = []

    def counting_graph(pairs):
        calls.append(1)
        return Graph(pairs)

    monkeypatch.setattr(evaluate, "Graph", counting_graph)
    run_experiment(datasets.florida_like(2), GOLDEN_LEVELS[:3], trials=4, comparisons=20)
    assert len(calls) == 4


TALLY_SCORES = {(0, 1): 2.0, (0, 2): 1.0, (1, 2): 1.0, (0, 3): 1.0, (1, 3): 0.5,
                (2, 3): float("nan")}


def _table_score(g, u, v):
    return TALLY_SCORES[(u, v)]


def _table_batch(rows, cols):
    return np.array([TALLY_SCORES[(i, j)] for i, j in zip(rows.tolist(), cols.tolist())])


@pytest.mark.parametrize("scorer", [Scorer("per_pair", _table_score),
                                    Scorer("batch", _table_score, _table_batch)],
                         ids=lambda scorer: scorer.tag)
def test_tally_counts_wins_ties_losses(scorer):
    g = Graph([(0, 1), (1, 2), (2, 3)])  # dense index i is node i
    # win, tie, 0 vs 0.5, and 2 vs NaN: a NaN score never wins or ties
    draws = np.array([[0, 1, 0, 2], [1, 2, 0, 3], [-1, -1, 1, 3], [0, 1, 2, 3]])
    tally = estimate_auc(g, draws, scorer)
    assert tally == AucTally(wins=1, ties=1, losses=2)
    assert tally.n == 4
    assert tally.auc == 0.625
    assert tally.auc_ties_only == 0.375


def test_batch_form_replaces_per_pair_calls():
    g = Graph([(0, 1), (1, 2), (2, 3)])  # dense index i is node i
    draws = np.array([[0, 1, 0, 2], [1, 2, 0, 3], [-1, -1, 1, 3], [0, 1, 1, 3]])
    scores = {(0, 1): 2.0, (0, 2): 1.0, (1, 2): 1.0, (0, 3): 1.0, (1, 3): float("nan")}

    def pairs(rows, cols):
        return np.array([scores[(i, j)] for i, j in zip(rows.tolist(), cols.tolist())])

    def per_pair(g, u, v):
        raise AssertionError("per-pair score called although a batch form is set")

    # win, tie, 0 vs NaN and 2 vs NaN: a NaN score never wins or ties
    tally = estimate_auc(g, draws, Scorer("t", per_pair, pairs))
    assert tally == AucTally(wins=1, ties=1, losses=2)


def test_builtin_scorers_have_a_batch_form():
    g = datasets.chesapeake_like()
    for factory in GOLDEN_LEVELS + EMBED_LEVELS:
        assert factory.build(g, 0).pairs is not None, factory.tag


def test_score_is_the_batch_form_on_one_pair():
    g = datasets.chesapeake_like()
    ordered = [(u, v) for u in g.node_list for v in g.node_list if u != v]
    rows = np.array([g.dense_index[u] for u, _ in ordered])
    cols = np.array([g.dense_index[v] for _, v in ordered])
    for factory in [rwr_factory(0.5)] + EMBED_LEVELS:
        scorer = factory.build(g, 0)
        assert scorer.pairs(rows, cols).tolist() == [scorer.score(g, u, v) for u, v in ordered]


def test_records_carry_the_tally(tmp_path):
    result = run_experiment(datasets.chesapeake_like(), GOLDEN_LEVELS[:2], trials=2,
                            comparisons=200)
    path = tmp_path / "trials.csv"
    write_records_csv(result, path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == "trial_seed,level,auc,wins,ties,losses"
    assert len(rows) == len(result.records) == 4
    for record, row in zip(result.records, rows):
        tally = record.tally
        assert tally.wins + tally.ties + tally.losses == 200
        assert record.auc == AucTally(tally.wins, tally.ties, tally.losses).auc
        assert row == (f"{record.trial_seed},{record.level},{record.auc!r},"
                       f"{tally.wins},{tally.ties},{tally.losses}")


def _record(seed, level, auc):
    # (wins + 0.5 ties) / 10 is exactly auc for the tenths from 0.5 to 1.0 used here
    wins = round(20 * auc) - 10
    record = TrialRecord(seed, level, AucTally(wins, ties=10 - wins, losses=0))
    assert record.auc == auc
    return record


class TestPairedDifference:
    def test_mean_and_stderr(self):
        # a - b per trial: 0.1, 0.3, 0.2 -> mean 0.2, std 0.1, stderr 0.1 / sqrt(3)
        aucs = {0: (0.8, 0.7), 1: (0.9, 0.6), 2: (0.7, 0.5)}
        result = ExperimentResult(tuple(
            _record(seed, level, auc)
            for seed, pair in aucs.items() for level, auc in zip("ab", pair)
        ))
        mean, stderr = paired_difference(result, "a", "b")
        assert mean == pytest.approx(0.2, abs=1e-12)
        assert stderr == pytest.approx(0.1 / 3 ** 0.5, abs=1e-12)

    def test_unpaired_levels_raise(self):
        result = ExperimentResult((_record(0, "a", 0.8), _record(1, "a", 0.7),
                                   _record(0, "b", 0.6), _record(2, "b", 0.5)))
        with pytest.raises(ValueError, match="not paired"):
            paired_difference(result, "a", "b")
        with pytest.raises(ValueError, match="not paired"):
            paired_difference(result, "a", "missing")

    def test_one_trial_raises(self):
        result = ExperimentResult((_record(0, "a", 0.8), _record(0, "b", 0.6)))
        with pytest.raises(ValueError, match="at least two"):
            paired_difference(result, "a", "b")


def test_random_scorer_pins_both_estimators():
    # auc credits losses 0.5 like ties, so a random scorer gets about 0.75;
    # auc_ties_only (Lü–Zhou) gets about 0.5.
    partition = split_edges(datasets.usair_like(3), 0.1, 0)
    g_train = Graph(partition.train)
    draws = draw_comparisons(partition, g_train, 20000, seed=0)
    tally = estimate_auc(g_train, draws, _random_factory("r").build(g_train, 7))
    assert tally.auc == pytest.approx(0.75, abs=0.01)
    assert tally.auc_ties_only == pytest.approx(0.5, abs=0.02)


class TestDrawComparisons:
    def test_deterministic_and_valid(self):
        g = datasets.florida_like(2)
        partition = split_edges(g, 0.1, 5)
        g_train = Graph(partition.train)
        draws = draw_comparisons(partition, g_train, 300, seed=9)
        assert np.array_equal(draws, draw_comparisons(partition, g_train, 300, seed=9))
        assert len(draws) == 300
        nodes = g_train.node_list
        for u, v, a, b in draws.tolist():
            assert (nodes[u], nodes[v]) in partition.test
            assert a != b and not g_train.has_edge(nodes[a], nodes[b])

    def test_saturated_hub_is_skipped(self):
        # Withholding a rim edge leaves hub 0 adjacent to every other node.
        g = _wheel(12)
        rim = g.edge_list.index((1, 2))
        partition = EdgePartition(train=g.edge_list[:rim] + g.edge_list[rim + 1:],
                                  test=((1, 2),))
        g_train = Graph(partition.train)
        assert g_train.degree(0) == g_train.num_nodes - 1
        draws = draw_comparisons(partition, g_train, 500, seed=3)
        assert g_train.dense_index[0] not in draws[:, 2:]

    def test_complete_training_graph_raises(self):
        partition = EdgePartition(train=((0, 1), (0, 2), (1, 2)), test=((2, 3),))
        with pytest.raises(SaturatedNodeError):
            draw_comparisons(partition, Graph(partition.train), 10, seed=0)

    @pytest.mark.parametrize("n, test, train", [
        (0, ((0, 2),), ((0, 1),)),
        (10, (), ((0, 1),)),
        (10, ((0, 1),), ()),
    ])
    def test_rejects_empty_inputs(self, n, test, train):
        partition = EdgePartition(train=train, test=test)
        with pytest.raises(ValueError):
            draw_comparisons(partition, Graph(train), n, seed=0)
