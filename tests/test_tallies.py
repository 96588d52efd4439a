"""The (wins, ties, losses) of every local and RWR level, pinned per trial.

``tallies.json`` holds them for 20 trials of ``run_experiment`` on each of
the four stand-in graphs at their default seed (1,000 comparisons, test
fraction 0.1, trial seeds 0-19). A change that claims to move no score must
leave every tally equal. A change that moves scores on purpose (a new
estimator, a new sampling law) re-records the file with

    PYTHONPATH=src python3 tests/test_tallies.py

and says which tallies moved and why.
"""

import json
from pathlib import Path

from linkpred import datasets
from linkpred.evaluate import run_experiment
from linkpred.indices import LOCAL_INDICES
from linkpred.pipelines import local_index_factory, rwr_factory

FIXTURE = Path(__file__).with_name("tallies.json")
GRAPHS = ("chesapeake_like", "usair_like", "florida_like", "embedding_benchmark_graph")
TRIALS = 20
LEVELS = [local_index_factory(k) for k in LOCAL_INDICES] + [
    rwr_factory(c) for c in (0.1, 0.5, 0.9)
]


def tallies() -> dict[str, dict[str, list[list[int]]]]:
    """graph -> level -> one [wins, ties, losses] per trial, in trial order."""
    out: dict[str, dict[str, list[list[int]]]] = {}
    for name in GRAPHS:
        result = run_experiment(getattr(datasets, name)(), LEVELS, trials=TRIALS)
        by_level = out.setdefault(name, {})
        for r in result.records:
            by_level.setdefault(r.level, []).append([r.tally.wins, r.tally.ties, r.tally.losses])
    return out


def _dump(data: dict[str, dict[str, list[list[int]]]]) -> str:
    """JSON with one line per (graph, level)."""
    graphs = (f'  "{name}": {{\n' + ",\n".join(
        f'    "{level}": {json.dumps(per_trial, separators=(",", ":"))}'
        for level, per_trial in levels.items()) + "\n  }" for name, levels in data.items())
    return "{\n" + ",\n".join(graphs) + "\n}\n"


def test_no_tally_moved():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = tallies()
    assert {name: list(levels) for name, levels in got.items()} == {
        name: list(levels) for name, levels in expected.items()}
    moved = [(name, level, t, pinned, now)
             for name, levels in expected.items()
             for level, per_trial in levels.items()
             for t, (pinned, now) in enumerate(zip(per_trial, got[name][level], strict=True))
             if pinned != now]
    assert not moved, (f"{len(moved)} tallies moved; (graph, level, trial, pinned, now): "
                       f"{moved[:10]}")


if __name__ == "__main__":
    FIXTURE.write_text(_dump(tallies()), encoding="utf-8")
