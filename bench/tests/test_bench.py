"""Self-tests of the benchmark: metric names and units, the gate, spans.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from linkpred import datasets, evaluate, graph  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(name):
    result = workloads.run_untraced(name, seed=3, seconds=0.0, setup_reps=1)
    assert {k: u for k, (_, u) in result.metrics.items()} == _units("end_to_end")
    assert all(v > 0 for v, _ in result.metrics.values())
    assert result.failed == 0 and result.attempted >= 2


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced_run_emits_every_per_layer_metric(name):
    result = workloads.run_traced(name, seed=3, seconds=0.0, setup_reps=1)
    assert {k: u for k, (_, u) in result.metrics.items()} == _units("per_layer")
    assert result.failed == 0


def test_gate_trips_on_a_wrong_reference():
    gate = workloads.Gate.load()
    wrong = json.loads(json.dumps(gate.references))
    wrong["rwr_sweep"]["usair_like"]["rwr_c=0.5"]["auc"] += 0.3
    bad_gate = dataclasses.replace(gate, references=wrong)
    graphs = {"usair_like": datasets.usair_like(3)}
    factories = workloads.WORKLOADS["rwr_sweep"].factories()
    good = workloads.run_trial("rwr_sweep", graphs, factories, gate, 3, 1)
    bad = workloads.run_trial("rwr_sweep", graphs, factories, bad_gate, 3, 1)
    assert not good.failed
    assert bad.failed and len(bad.problems) == 1 and "rwr_c=0.5" in bad.problems[0]


def _random_factory(tag):
    def build(g_train, seed):
        rng = random.Random(seed)
        return evaluate.Scorer(tag, lambda g, u, v: rng.random())

    return evaluate.ScorerFactory(tag, build)


def test_gate_trips_on_a_random_scorer():
    # A random scorer's AUC is about 0.75 (ties and losses both count 0.5),
    # within the per-trial tolerance of most references; the level means
    # of even a two-trial run must still give it away.
    gate = workloads.Gate.load()
    local = workloads.WORKLOADS["local_study"]
    graphs = {name: getattr(datasets, name)(3) for name in local.graphs}
    random_levels = [_random_factory(f.tag) for f in local.factories()]
    real = [workloads.run_trial(local.name, graphs, local.factories(), gate, 3, t) for t in (0, 1)]
    fake = [workloads.run_trial(local.name, graphs, random_levels, gate, 3, t) for t in (0, 1)]
    assert gate.check_means(local.name, real) == []
    assert gate.check_means(local.name, fake)
    attempted, failed, _ = workloads._tally(gate, local.name, fake)
    assert failed == attempted == 2


def test_raising_trial_counts_as_failed():
    def build(g_train, seed):
        raise graph.SaturatedNodeError("node 0 is adjacent to every other node")

    outcome = workloads.run_trial("local_study", {"usair_like": datasets.usair_like(3)},
                                  [evaluate.ScorerFactory("cn", build)],
                                  workloads.Gate.load(), 3, 1)
    assert outcome.seconds is None and outcome.failed
    assert "SaturatedNodeError" in outcome.problems[0]


def test_span_self_times_are_nonnegative_and_nested():
    tracer = spans.Tracer()
    graphs = {"usair_like": datasets.usair_like(3)}
    for name in ("local_study", "rwr_sweep"):
        levels = workloads.WORKLOADS[name].levels()
        factories = [spans.traced_factory(tracer, f, s) for f, s in levels]
        with spans.instrument(tracer), tracer.span("trial"):
            workloads.run_trial(name, graphs, factories, workloads.Gate.load(), 3, 1)
    by_id = {s.id: s for s in tracer.spans}
    assert {"trial", "graph.split", "graph.train_graph", "evaluate.auc", "pipelines.build",
            "rwr.build", "rwr.transition"} <= {s.name for s in tracer.spans}
    for s in tracer.spans:
        assert s.self_s >= 0.0
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
    assert all(calls > 0 and total >= 0.0 for calls, total in tracer.leaves.values())


def test_wrappers_are_removed_afterwards():
    patched = [(m, a) for m, a, *_ in spans.PATCHES + spans.LEAF_PATCHES]
    before = {(m.__name__, a): getattr(m, a) for m, a in patched}
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.instrument(tracer):
            assert evaluate.Graph is not graph.Graph
            raise RuntimeError("leave the block early")
    assert {(m.__name__, a): getattr(m, a) for m, a in patched} == before
    assert evaluate.Graph is graph.Graph
