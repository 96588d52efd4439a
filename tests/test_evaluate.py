import hashlib
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import neighbor_sets, train_graph, with_a_degree_zero_node
from linkpred import datasets, evaluate
from linkpred.evaluate import (
    AucTally,
    ExperimentResult,
    Scorer,
    ScorerFactory,
    TrialRecord,
    comparison_pairs,
    derive_seed,
    draw_comparisons,
    estimate_auc,
    paired_difference,
    run_experiment,
    summarize,
    write_records_csv,
)
from linkpred.graph import EdgePartition, Graph, SaturatedNodeError, split_edges
from linkpred.indices import LOCAL_INDICES
from linkpred.pipelines import embedding_factory, local_index_factory, rwr_factory
from linkpred.predictor import OPERATORS
from linkpred.skipgram import TrainConfig
from linkpred.walks import WalkParams

# Per-trial AUCs of run_experiment(g(1), GOLDEN_LEVELS, trials=3), recorded
# from one run of the numpy-Generator split and draws. Any change to the
# partition, the draws or a scorer's arithmetic moves these values.
GOLDEN = {
    "usair_like": {
        "cn": (0.8155, 0.839, 0.833),
        "hub_prom": (0.839, 0.862, 0.8515),
        "hub_depr": (0.818, 0.8255, 0.83),
        "lhn1": (0.8165, 0.817, 0.823),
        "aa": (0.849, 0.8695, 0.867),
        "lhn1_var": (0.84, 0.8655, 0.853),
        "rwr_c=0.1": (0.895, 0.9, 0.8905),
        "rwr_c=0.5": (0.8965, 0.901, 0.9025),
        "rwr_c=0.9": (0.881, 0.9045, 0.912),
    },
    "florida_like": {
        "cn": (0.8155, 0.8175, 0.8135),
        "hub_prom": (0.8135, 0.822, 0.82),
        "hub_depr": (0.802, 0.799, 0.7945),
        "lhn1": (0.7505, 0.7495, 0.776),
        "aa": (0.832, 0.8355, 0.826),
        "lhn1_var": (0.828, 0.8315, 0.826),
        "rwr_c=0.1": (0.815, 0.8245, 0.818),
        "rwr_c=0.5": (0.8225, 0.834, 0.831),
        "rwr_c=0.9": (0.825, 0.836, 0.8335),
    },
}
GOLDEN_LEVELS = [local_index_factory(k) for k in LOCAL_INDICES] + [
    rwr_factory(c) for c in (0.1, 0.5, 0.9)
]
# Per-trial (wins, ties, losses) of run_experiment(chesapeake_like(),
# EMBED_LEVELS, trials=3), recorded the same way as GOLDEN.
GOLDEN_EMBED = {
    "hadamard": ((698, 3, 299), (672, 10, 318), (605, 2, 393)),
    "average": ((672, 3, 325), (597, 10, 393), (604, 2, 394)),
    "abs_diff": ((644, 3, 353), (679, 10, 311), (672, 2, 326)),
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


# sha256 over trials 0-19 of run_experiment's defaults on each stand-in at its
# default seed (test fraction 0.1, 1,000 comparisons): (split, draws), the
# split digest over each trial's train then test rows and the draws digest
# over each trial's (n, 4) draws, every array as its dtype, shape and bytes.
# They pin every row of the split and every draw bit for bit, so a change
# that claims to keep them (a faster gather, say) must leave them unedited.
SPLIT_AND_DRAWS_SHA256 = {
    "chesapeake_like": (
        "857efe7bac8807d98fa1fef6ca2a1fb552705a558a8aed59d93aef0c97eda8d2",
        "393972f446cebf521c1bef0b334575385c48cb15144c3e16a7025ffd6a3e1c36"),
    "usair_like": (
        "24521e0e1bb6ddc56c7206ff5f40da2df8cbd6edc768443c65be1f9f175fdd4e",
        "366c80f29b691bd0bcb1773303c7b2e82cc7114bbf98c927302be16e1968d74f"),
    "florida_like": (
        "a076467cf503b68dab53aacee69dc6a61d9b3e88f12e671beac3bb5bc1e1c469",
        "4e58a608001869e3ad7dfefb514b24bc0e4ffbd25e5c267633a34e56cee648d0"),
    "embedding_benchmark_graph": (
        "c9bc91b354fd625deccacc274101ba6a25a690be0e2a8c753dac523a9a72923b",
        "5964b11c1f46bc9e444a74783d36caa5fe3be94e76d6368859ef152f92be5a03"),
}


@pytest.mark.parametrize("name", sorted(SPLIT_AND_DRAWS_SHA256))
def test_golden_splits_and_draws(name):
    g = getattr(datasets, name)()
    split, draws = hashlib.sha256(), hashlib.sha256()
    for t in range(20):
        partition = split_edges(g, 0.1, t)
        drawn = draw_comparisons(partition, Graph(partition.train, nodes=g.nodes), 1000,
                                 derive_seed(t, "auc"))
        for h, a in ((split, partition.train), (split, partition.test), (draws, drawn)):
            h.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    assert (split.hexdigest(), draws.hexdigest()) == SPLIT_AND_DRAWS_SHA256[name]


def test_rwr_sweep_frees_each_level_before_the_next():
    # One level's resolvent and its build buffer are two n x n float64
    # matrices; holding the previous level's resolvent as well makes three.
    g = datasets.usair_like(1)
    n = train_graph(g, 0.1, 0).num_nodes
    levels = [rwr_factory(c) for c in (0.1, 0.5, 0.9)]
    tracemalloc.start()
    try:
        run_experiment(g, levels, trials=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * 8


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
    # Each trial's training graph takes the full graph's node array as it is.
    g = datasets.florida_like(2)
    calls = []

    def counting_graph(pairs, nodes):
        calls.append(nodes)
        return Graph(pairs, nodes=nodes)

    monkeypatch.setattr(evaluate, "Graph", counting_graph)
    run_experiment(g, GOLDEN_LEVELS[:3], trials=4, comparisons=20)
    assert len(calls) == 4
    assert all(nodes is g.nodes for nodes in calls)


def test_no_trial_groups_node_ids(monkeypatch):
    # Every training graph is given the full graph's nodes, so no trial runs
    # the np.unique grouping of Graph(pairs).
    built = []

    class GivenNodesOnly(Graph):
        def __init__(self, pairs, nodes=None):
            assert nodes is not None, "a trial grouped node ids"
            built.append(nodes)
            super().__init__(pairs, nodes)

    monkeypatch.setattr(evaluate, "Graph", GivenNodesOnly)
    result = run_experiment(datasets.usair_like(), GOLDEN_LEVELS, trials=2)
    assert len(built) == 2
    assert len(result.records) == 2 * len(GOLDEN_LEVELS)


TALLY_SCORES = {(0, 1): 2.0, (0, 2): 1.0, (1, 2): 1.0, (0, 3): 1.0, (1, 3): 0.5,
                (2, 3): float("nan")}


def _table_score(g, i, j):
    return TALLY_SCORES[(i, j)]


def _table_batch(rows, cols):
    return np.array([TALLY_SCORES[(i, j)] for i, j in zip(rows.tolist(), cols.tolist())])


@pytest.mark.parametrize("scorer", [Scorer("per_pair", _table_score),
                                    Scorer("batch", _table_score, _table_batch)],
                         ids=lambda scorer: scorer.tag)
def test_tally_counts_wins_ties_losses(scorer):
    g = Graph([(0, 1), (1, 2), (2, 3)])  # dense index i is node i
    # win, tie, 0.5 vs 1, and 2 vs NaN: a NaN score never wins or ties
    draws = np.array([[0, 1, 0, 2], [1, 2, 0, 3], [1, 3, 0, 3], [0, 1, 2, 3]])
    tally = estimate_auc(g, *comparison_pairs(draws), scorer)
    assert tally == AucTally(wins=1, ties=1, losses=2)
    assert tally.n == 4
    assert tally.auc == 0.625
    assert tally.auc_ties_only == 0.375


def test_batch_form_replaces_per_pair_calls():
    g = Graph([(0, 1), (1, 2), (2, 3)])  # dense index i is node i
    draws = np.array([[0, 1, 0, 2], [1, 2, 0, 3], [0, 2, 1, 3], [0, 1, 1, 3]])
    scores = {(0, 1): 2.0, (0, 2): 1.0, (1, 2): 1.0, (0, 3): 1.0, (1, 3): float("nan")}

    def pairs(rows, cols):
        return np.array([scores[(i, j)] for i, j in zip(rows.tolist(), cols.tolist())])

    def per_pair(g, u, v):
        raise AssertionError("per-pair score called although a batch form is set")

    # win, tie, 1 vs NaN and 2 vs NaN: a NaN score never wins or ties
    tally = estimate_auc(g, *comparison_pairs(draws), Scorer("t", per_pair, pairs))
    assert tally == AucTally(wins=1, ties=1, losses=2)


def test_one_scoring_call_per_level_withheld_pairs_first():
    g = datasets.usair_like(1)
    partition = split_edges(g, 0.1, 0)
    g_train = Graph(partition.train, nodes=g.nodes)
    draws = draw_comparisons(partition, g_train, 300, seed=3)
    calls, scored = [], []

    def pairs(rows, cols):
        calls.append((rows.tolist(), cols.tolist()))
        return np.ones(len(rows))

    def per_pair(g, i, j):
        scored.append((i, j))
        return 1.0

    batch = estimate_auc(g_train, *comparison_pairs(draws), Scorer("batch", per_pair, pairs))
    # the withheld pairs in draw order, then the non-edges
    assert calls == [(draws[:, 0].tolist() + draws[:, 2].tolist(),
                      draws[:, 1].tolist() + draws[:, 3].tolist())]
    assert scored == []
    # a per-pair scorer is called on the same dense pairs, in the same order
    single = estimate_auc(g_train, *comparison_pairs(draws), Scorer("per_pair", per_pair))
    assert scored == list(map(tuple, draws[:, :2].tolist() + draws[:, 2:].tolist()))
    # every score is 1: every row ties
    assert batch == single == AucTally(wins=0, ties=300, losses=0)


def test_builtin_scorers_have_a_batch_form():
    g = datasets.chesapeake_like()
    for factory in GOLDEN_LEVELS + EMBED_LEVELS:
        assert factory.build(g, 0).pairs is not None, factory.tag


def test_scorer_needs_score_or_pairs():
    with pytest.raises(ValueError, match="neither score nor pairs"):
        Scorer("empty")


def test_score_is_the_batch_form_on_one_pair():
    g = datasets.chesapeake_like()
    rows, cols = np.nonzero(~np.eye(g.num_nodes, dtype=bool))  # every ordered dense pair
    local = [local_index_factory(k) for k in LOCAL_INDICES]
    for factory in local + [rwr_factory(0.5)] + EMBED_LEVELS:
        scorer = factory.build(g, 0)
        expected = [scorer.score(g, i, j) for i, j in zip(rows.tolist(), cols.tolist())]
        assert scorer.pairs(rows, cols).tolist() == expected


def test_degree_zero_node_scores_zero_at_every_local_and_rwr_level():
    g = with_a_degree_zero_node()
    assert g.degrees.tolist() == [2, 2, 3, 2, 1, 0]
    without = Graph(g.edges)  # the same graph without node 5
    rows, cols = np.nonzero(~np.eye(g.num_nodes, dtype=bool))  # every ordered dense pair
    at_5 = (rows == 5) | (cols == 5)
    local = [local_index_factory(k) for k in LOCAL_INDICES]
    for factory in local + [rwr_factory(0.1), rwr_factory(0.9)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = factory.build(g, 0).pairs(rows, cols)
            rest = factory.build(without, 0).pairs(rows[~at_5], cols[~at_5])
        assert scores[at_5].tolist() == [0.0] * at_5.sum(), factory.tag
        if factory in local:
            assert scores[~at_5].tolist() == rest.tolist(), factory.tag
        else:
            assert scores[~at_5] == pytest.approx(rest, rel=1e-12), factory.tag


def test_embedding_level_builds_with_a_degree_zero_node():
    g = with_a_degree_zero_node()
    rows, cols = np.nonzero(~np.eye(g.num_nodes, dtype=bool))
    restart = embedding_factory(WalkParams(10, 2, mode="restart"),
                                TrainConfig(dim=16, window=3, epochs=2), tag="restart")
    for factory in EMBED_LEVELS + [restart]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = factory.build(g, 0).pairs(rows, cols)
        assert np.isfinite(scores).all(), factory.tag


def _reference_tally(draws, scorer):
    """The tally of every row, with the withheld pairs and the non-edges
    scored in two separate calls."""
    existing = scorer.pairs(draws[:, 0], draws[:, 1])
    nonexistent = scorer.pairs(draws[:, 2], draws[:, 3])
    wins = int(np.count_nonzero(existing > nonexistent))
    ties = int(np.count_nonzero(existing == nonexistent))
    return AucTally(wins, ties, len(draws) - wins - ties)


@pytest.mark.parametrize("name, levels", [("usair_like", GOLDEN_LEVELS),
                                          ("chesapeake_like", GOLDEN_LEVELS + EMBED_LEVELS)])
def test_tally_matches_the_masked_reference(name, levels):
    # The one call per level gives the tally of separate calls. Each level is
    # also scored pair by pair through its derived ``score`` alone, as a
    # scorer that wraps it (the bench's traced run) does.
    g = getattr(datasets, name)(1)
    partition = split_edges(g, 0.1, 0)
    g_train = Graph(partition.train, nodes=g.nodes)
    draws = draw_comparisons(partition, g_train, 1000, seed=3)
    for factory in levels:
        scorer = factory.build(g_train, 0)
        per_pair = Scorer(factory.tag, scorer.score)
        expected = _reference_tally(draws, scorer)
        assert estimate_auc(g_train, *comparison_pairs(draws), scorer) == expected, factory.tag
        assert estimate_auc(g_train, *comparison_pairs(draws), per_pair) == expected, factory.tag


@pytest.mark.parametrize("base_seed, trials", [(-1, 3), (-2, 5), (-9, 11)])
def test_trial_seeds_sharing_an_absolute_value_raise(base_seed, trials):
    # split_edges(g, f, s) == split_edges(g, f, -s): such trials repeat a partition.
    with pytest.raises(ValueError, match="same partition"):
        run_experiment(datasets.chesapeake_like(), GOLDEN_LEVELS[:1], trials=trials,
                       base_seed=base_seed)


@pytest.mark.parametrize("base_seed, trials", [(-3, 3), (-1, 2), (0, 3), (-5, 1)])
def test_trial_seeds_with_distinct_absolute_values_run(base_seed, trials):
    result = run_experiment(datasets.chesapeake_like(), GOLDEN_LEVELS[:1], trials=trials,
                            comparisons=10, base_seed=base_seed)
    assert [r.trial_seed for r in result.records] == list(range(base_seed, base_seed + trials))


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


class TestSummarize:
    def test_mean_std_stderr_and_ci(self):
        result = ExperimentResult((_record(0, "a", 0.6), _record(1, "a", 0.7),
                                   _record(2, "a", 1.0), _record(0, "b", 0.5),
                                   _record(1, "b", 0.5)))
        summaries = summarize(result)
        assert list(summaries) == ["a", "b"]
        a = summaries["a"]
        # mean 2.3 / 3; std sqrt(0.26 / 3 / 2) with n - 1 = 2; stderr std / sqrt(3)
        assert a.level == "a"
        assert a.mean == pytest.approx(0.7666666666666667, rel=1e-12)
        assert a.std == pytest.approx(0.2081665999466133, rel=1e-12)
        assert a.stderr == pytest.approx(0.1201850425154663, rel=1e-12)
        assert a.ci_low == pytest.approx(0.7666666666666667 - 1.96 * 0.1201850425154663,
                                         rel=1e-12)
        assert a.ci_high == pytest.approx(0.7666666666666667 + 1.96 * 0.1201850425154663,
                                          rel=1e-12)
        b = summaries["b"]
        assert (b.mean, b.std, b.stderr, b.ci_low, b.ci_high) == (0.5, 0.0, 0.0, 0.5, 0.5)

    def test_one_trial_level_raises(self):
        result = ExperimentResult((_record(0, "a", 0.6), _record(1, "a", 0.7),
                                   _record(0, "b", 0.5)))
        with pytest.raises(ValueError, match="'b' has 1 trial"):
            summarize(result)


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


def _reference_draws(partition, g_train, n, seed):
    """The per-draw Python loop that draw_comparisons replaced: the same law
    from ``random.Random``, one withheld edge, start and non-neighbor at a time."""
    full_degree = g_train.num_nodes - 1
    adjacency = neighbor_sets(g_train)
    ids = g_train.nodes.tolist()
    starts = [u for u in ids if len(adjacency[u]) < full_degree]
    index = {u: i for i, u in enumerate(ids)}
    test = partition.test.tolist()
    rng = random.Random(seed)
    draws = []
    for _ in range(n):
        u, v = rng.choice(test)
        a = rng.choice(starts)
        while True:
            b = rng.choice(ids)
            if b != a and b not in adjacency[a]:
                break
        draws.append((u, v, index[a], index[b]))
    return np.array(draws, dtype=np.intp)


def _partition(train, test):
    """An EdgePartition of two (k, 2) dense-index arrays from pair sequences."""
    return EdgePartition(train=np.array(train, dtype=np.int64).reshape(-1, 2),
                         test=np.array(test, dtype=np.int64).reshape(-1, 2))


def _split_rows(g, test_rows):
    """The partition of ``g`` that withholds the rows ``test_rows`` of its
    edges, and its training graph over all of g's nodes."""
    test = np.isin(np.arange(g.num_edges), test_rows)
    partition = EdgePartition(train=g.edges[~test], test=g.edges[test])
    return partition, Graph(partition.train, nodes=g.nodes)


def test_draw_law():
    # 0..6 and 9 have training degrees 6, 2, 3, 2, 2, 2, 1, 0 in an 8-node
    # graph: hub 0 lacks only 9, and 9 lost its one edge (2, 9) to the test set.
    g = Graph(tuple((0, i) for i in range(1, 7)) + ((1, 2), (2, 3), (4, 5))
              + ((1, 3), (3, 4), (2, 9)))
    partition, g_train = _split_rows(g, [9, 10, 11])
    assert g_train.degrees.tolist() == [6, 2, 3, 2, 2, 2, 1, 0]
    nodes = g_train.nodes.tolist()
    index = {u: i for i, u in enumerate(nodes)}
    adjacency = neighbor_sets(g_train)
    draws = draw_comparisons(partition, g_train, 200_000, seed=11)
    assert draws.shape == (200_000, 4) and draws.dtype == np.intp
    total = len(draws)

    def within_4_sigma(count, p):
        return abs(count / total - p) <= 4 * (p * (1 - p) / total) ** 0.5

    withheld = {(index[1], index[3]): 0, (index[3], index[4]): 0, (index[2], index[9]): 0}
    for row, count in zip(*np.unique(draws[:, :2], axis=0, return_counts=True)):
        assert tuple(row.tolist()) in withheld
        withheld[tuple(row.tolist())] = count
    assert all(within_4_sigma(count, 1 / 3) for count in withheld.values())

    starts = [a for a in nodes if len(adjacency[a]) < len(nodes) - 1]
    assert len(starts) == 8
    expected = {(index[a], index[b]): 1 / len(starts) / (len(nodes) - 1 - len(adjacency[a]))
                for a in starts for b in nodes if b != a and b not in adjacency[a]}
    pairs, counts = np.unique(draws[:, 2:], axis=0, return_counts=True)
    assert {tuple(p) for p in pairs.tolist()} == set(expected)
    for pair, count in zip(pairs.tolist(), counts.tolist()):
        assert within_4_sigma(count, expected[tuple(pair)]), (pair, count)


def _law_auc(partition, g_train, scorer):
    """The expected ``auc`` of one draw of draw_comparisons' law, summed
    exactly: a uniform test row against every non-edge (a, b), weighted by
    the chance that a is the uniform start and b its uniform non-neighbor."""
    n, k = g_train.num_nodes, g_train.degrees
    starts = k < n - 1
    rows, cols = np.nonzero(~g_train.adjacency_matrix & ~np.eye(n, dtype=bool)
                            & starts[:, None])
    chance = 1 / starts.sum() / (n - 1 - k[rows])
    non_edge = scorer.pairs(rows, cols)
    wins = np.mean([chance @ (w > non_edge) for w in scorer.pairs(*partition.test.T)])
    return 0.5 + 0.5 * wins


@pytest.mark.parametrize("name", ["usair_like", "florida_like"])
def test_batch_draws_agree_with_the_reference_loop(name):
    # Over 20 partitions, the mean AUC difference of the batch draws from the
    # exact expectation of the law, and that of the reference loop, each lies
    # within 3 standard errors of 0 for each index.
    g = getattr(datasets, name)(1)
    diffs = {}
    for p in range(20):
        partition = split_edges(g, 0.1, p)
        g_train = Graph(partition.train, nodes=g.nodes)
        seed = evaluate.derive_seed(p, "auc")
        batch = draw_comparisons(partition, g_train, 1000, seed)
        loop = _reference_draws(partition, g_train, 1000, seed)
        for kind in ("cn", "aa", "lhn1"):
            scorer = local_index_factory(kind).build(g_train, 0)
            law = _law_auc(partition, g_train, scorer)
            for form, draws in (("batch", batch), ("loop", loop)):
                diffs.setdefault((kind, form), []).append(
                    estimate_auc(g_train, *comparison_pairs(draws), scorer).auc - law)
    for key, d in diffs.items():
        stderr = np.std(d, ddof=1) / len(d) ** 0.5
        assert abs(np.mean(d)) <= 3 * stderr, (key, np.mean(d), stderr)


def test_random_scorer_pins_both_estimators():
    # auc credits losses 0.5 like ties, so a random scorer gets about 0.75;
    # auc_ties_only (Lü–Zhou) gets about 0.5.
    g = datasets.usair_like(3)
    partition = split_edges(g, 0.1, 0)
    g_train = Graph(partition.train, nodes=g.nodes)
    draws = draw_comparisons(partition, g_train, 20000, seed=0)
    tally = estimate_auc(g_train, *comparison_pairs(draws), _random_factory("r").build(g_train, 7))
    assert tally.auc == pytest.approx(0.75, abs=0.01)
    assert tally.auc_ties_only == pytest.approx(0.5, abs=0.02)


class TestDrawComparisons:
    def test_deterministic_and_valid(self):
        g = datasets.florida_like(2)
        partition = split_edges(g, 0.1, 5)
        g_train = Graph(partition.train, nodes=g.nodes)
        draws = draw_comparisons(partition, g_train, 300, seed=9)
        assert np.array_equal(draws, draw_comparisons(partition, g_train, 300, seed=9))
        assert len(draws) == 300
        nodes, adjacency = g_train.nodes.tolist(), neighbor_sets(g_train)
        test = set(map(tuple, g.nodes[partition.test].tolist()))
        for u, v, a, b in draws.tolist():
            assert (nodes[u], nodes[v]) in test
            assert a != b and nodes[b] not in adjacency[nodes[a]]

    def test_saturated_hub_is_skipped(self):
        # Withholding a rim edge leaves hub 0 adjacent to every other node.
        g = _wheel(12)
        partition, g_train = _split_rows(g, [g.edge_list.index((1, 2))])
        assert len(neighbor_sets(g_train)[0]) == g_train.num_nodes - 1
        draws = draw_comparisons(partition, g_train, 500, seed=3)
        assert g.nodes.tolist().index(0) not in draws[:, 2:]

    def test_complete_training_graph_raises(self):
        partition = _partition(((0, 1), (0, 2), (1, 2)), ((2, 3),))
        with pytest.raises(SaturatedNodeError):
            draw_comparisons(partition, Graph(partition.train), 10, seed=0)

    @pytest.mark.parametrize("n, test, train", [
        (0, ((0, 2),), ((0, 1),)),
        (10, (), ((0, 1),)),
        (10, ((0, 1),), ()),
    ])
    def test_rejects_empty_inputs(self, n, test, train):
        partition = _partition(train, test)
        with pytest.raises(ValueError):
            draw_comparisons(partition, Graph(partition.train), n, seed=0)
