"""The benchmark's workloads, set-up, correctness gate and measured loops.

Every workload drives the public API: a ``linkpred.datasets`` generator,
an edge-list file written and parsed back with ``graph.load_edge_list``,
then ``evaluate.run_experiment`` over ``pipelines`` factories. One trial is
one paired train/test partition per graph, every level of the workload
evaluated on it. The load is a closed loop: one process runs trials back to
back, each starting when the previous one ends.
"""

from __future__ import annotations

import ctypes
import importlib.util
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from linkpred import datasets, evaluate, graph, indices, pipelines, skipgram, walks
from linkpred.evaluate import ScorerFactory
from spans import Tracer, instrument, traced_factory

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"

COMPARISONS = 1000
TEST_FRACTION = 0.1
SETUP_REPS = 5  # set-up repetitions per run; setup_s reports their median
_TIME_IMPORT = ("import sys, time; sys.path[:0] = sys.argv[1:]; t0 = time.perf_counter(); "
                "import workloads; print(time.perf_counter() - t0)")
RWR_C = (0.1, 0.5, 0.9)
# Reduced embedding config: SGNS at the default config (l=80, r=10, k=10,
# d=128, 10 epochs) runs for hours with the pure-Python kernel.
REDUCED_TRAIN = skipgram.TrainConfig(dim=32, window=2, epochs=1, negatives=5)
REDUCED_WALKS = {
    "embed_alias": walks.WalkParams(length=10, walks_per_node=1, p=1.0, q=1.0),
    "embed_restart": walks.WalkParams(length=10, walks_per_node=1, c=0.9, mode="restart"),
}
# The CLI's default walk settings, used only to count default pairs.
DEFAULT_WALKS = walks.WalkParams(length=80, walks_per_node=10)

Level = tuple[ScorerFactory, str]  # factory, span name of its pair score


def _local_levels() -> list[Level]:
    return [(pipelines.local_index_factory(k), f"indices.score.{k}") for k in indices.LOCAL_INDICES]


def _rwr_levels() -> list[Level]:
    return [(pipelines.rwr_factory(c), "rwr.score") for c in RWR_C]


def _embed_levels() -> list[Level]:
    return [
        (pipelines.embedding_factory(params, REDUCED_TRAIN, "hadamard", classifier_epochs=500, tag=tag),
         "predictor.score")
        for tag, params in REDUCED_WALKS.items()
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    graphs: tuple[str, ...]  # generator names in linkpred.datasets
    levels: Callable[[], list[Level]]

    def factories(self) -> list[ScorerFactory]:
        return [factory for factory, _ in self.levels()]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("local_study", ("usair_like", "florida_like"), _local_levels),
        Workload("rwr_sweep", ("usair_like",), _rwr_levels),
        Workload("embed_reduced", ("embedding_benchmark_graph",), _embed_levels),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_kprobe": "1/kprobe",
    "trial_p50_in_probes": "probe",
    "trial_p90_in_probes": "probe",
    "peak_rss_mb": "MB",
}
WALL_UNITS = {"trials_per_s": "1/s", "trial_ms_p50": "ms", "trial_ms_p90": "ms"}


PER_LAYER_UNITS = {
    "datasets.generate_ms": "ms",
    "graph.parse_ms": "ms",
    "graph.split_ms": "ms",
    "graph.train_graph_ms": "ms",
    "graph.train_graph_builds": "count",
    "graph.non_neighbor_us": "us",
    **{f"indices.score_us.{k}": "us" for k in indices.LOCAL_INDICES},
    "rwr.transition_ms": "ms",
    "rwr.solve_ms": "ms",
    "rwr.score_us": "us",
    "walks.alias_table_ms": "ms",
    "walks.corpus_ms": "ms",
    "walks.steps": "count",
    "skipgram.pairs_per_epoch": "count",
    "skipgram.train_ms": "ms",
    "skipgram.us_per_pair": "us",
    "skipgram.final_loss": "nats",
    "skipgram.default_build_est_s": "s",
    "predictor.training_set_ms": "ms",
    "predictor.fit_ms": "ms",
    "predictor.score_us": "us",
    "pipelines.build_ms": "ms",
    "evaluate.auc_ms": "ms",
    "evaluate.us_per_comparison": "us",
    "evaluate.comparisons": "count",
    "evaluate.build_share": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.coverage": "fraction",
}


# ---------------------------------------------------------------- gate


@dataclass(frozen=True)
class Gate:
    """Committed reference AUC per (workload, graph, level), with its spread.

    A trial fails when it raises or when any level's AUC lies farther than
    ``trial_tolerance`` from its reference (gross errors). Every trial of a
    run fails when a level's mean AUC over the run's partitions lies farther
    than ``max(min_tolerance, z * sqrt(sd_seed**2 + sd_trial**2 / n))`` from
    its reference, where n is the number of partitions and the spreads come
    from ``bench/calibrate.py``.
    """

    trial_tolerance: float
    z: float
    min_tolerance: float
    references: dict[str, dict[str, dict[str, dict[str, float]]]]  # workload -> graph -> level

    @classmethod
    def load(cls, path: Path = REFERENCES) -> "Gate":
        data = json.loads(path.read_text(encoding="utf-8"))
        return cls(data["trial_tolerance"], data["z"], data["min_tolerance"], data["workloads"])

    def check_trial(self, workload: str, aucs: dict[tuple[str, str], float]) -> list[str]:
        problems = []
        for (graph_name, level), auc in aucs.items():
            ref = self.references[workload][graph_name][level]["auc"]
            if abs(auc - ref) > self.trial_tolerance:
                problems.append(f"{graph_name}/{level}: auc {auc:.4f} is more than "
                                f"{self.trial_tolerance} from reference {ref:.4f}")
        return problems

    def check_means(self, workload: str, outcomes: list["Outcome"]) -> list[str]:
        """Each level's mean AUC over the distinct partitions of ``outcomes``."""
        by_partition = {o.t: o.aucs for o in outcomes if o.seconds is not None}
        values: dict[tuple[str, str], list[float]] = {}
        for aucs in by_partition.values():
            for key, auc in aucs.items():
                values.setdefault(key, []).append(auc)
        problems = []
        for (graph_name, level), aucs in values.items():
            ref = self.references[workload][graph_name][level]
            spread = math.sqrt(ref["sd_seed"] ** 2 + ref["sd_trial"] ** 2 / len(aucs))
            tolerance = max(self.min_tolerance, self.z * spread)
            mean = statistics.fmean(aucs)
            if abs(mean - ref["auc"]) > tolerance:
                problems.append(f"{graph_name}/{level}: mean auc {mean:.4f} over {len(aucs)} "
                                f"partitions is more than {tolerance:.4f} from reference "
                                f"{ref['auc']:.4f}")
        return problems


@dataclass(frozen=True)
class Outcome:
    t: int  # partition offset from the workload seed
    seconds: float | None  # wall time of the trial; None if it raised
    aucs: dict[tuple[str, str], float]  # (graph, level) -> AUC
    problems: list[str]

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_trial(
    workload: str,
    graphs: dict[str, graph.Graph],
    factories: list[ScorerFactory],
    gate: Gate,
    seed: int,
    t: int,
) -> Outcome:
    """One paired trial: partition ``seed + t`` of every graph, all levels."""
    t0 = perf_counter()
    try:
        results = {
            name: evaluate.run_experiment(
                g, factories, trials=1, test_fraction=TEST_FRACTION,
                comparisons=COMPARISONS, base_seed=seed + t,
            )
            for name, g in graphs.items()
        }
    except Exception as exc:  # a raising trial counts as failed; the run goes on
        return Outcome(t, None, {}, [f"trial {t} raised {type(exc).__name__}: {exc}"])
    seconds = perf_counter() - t0
    aucs = {(name, r.level): r.auc for name, result in results.items() for r in result.records}
    return Outcome(t, seconds, aucs, gate.check_trial(workload, aucs))


# ---------------------------------------------------------------- set-up


@dataclass
class Setup:
    graphs: dict[str, graph.Graph]
    seconds: list[float] = field(default_factory=list)  # one per repetition
    generate_s: list[float] = field(default_factory=list)
    parse_s: list[float] = field(default_factory=list)
    warmups: list[Outcome] = field(default_factory=list)


def set_up(workload: Workload, seed: int, gate: Gate, reps: int = SETUP_REPS) -> Setup:
    """Generate, write, parse and warm up ``reps`` times; time each repetition."""
    setup = Setup(graphs={})
    factories = workload.factories()
    with tempfile.TemporaryDirectory(prefix=".edges-", dir=BENCH_DIR) as tmp:
        for _ in range(reps):
            t_rep = perf_counter()
            generate = parse = 0.0
            for name in workload.graphs:
                t0 = perf_counter()
                generated = getattr(datasets, name)(seed)
                generate += perf_counter() - t0
                path = Path(tmp) / f"{name}.txt"
                datasets.write_edge_list(generated, path)
                t0 = perf_counter()
                loaded, dropped = graph.load_edge_list(path)
                parse += perf_counter() - t0
                if dropped or loaded.edge_list != generated.edge_list:
                    raise RuntimeError(f"{name}: edge list did not survive write + parse")
                setup.graphs[name] = loaded
            setup.warmups.append(run_trial(workload.name, setup.graphs, factories, gate, seed, 0))
            setup.seconds.append(perf_counter() - t_rep)
            setup.generate_s.append(generate)
            setup.parse_s.append(parse)
    return setup


# ---------------------------------------------------------------- loops


# The host's speed changes by tens of percent within seconds (other tenants
# of the machine), so a trial's wall time says as much about the host as
# about the program. A fixed probe that touches no linkpred code runs right
# after every trial, and a trial is also timed in units of that probe: trial
# wall time / probe wall time, a plain ratio taken trial by trial. The probe
# mixes the two kinds of work the workloads do: interpreted set and dict
# work like the local indices, and a dense solve like RWR.
def _probe_adjacency(nodes: int = 300, draws: int = 2400) -> dict[int, set[int]]:
    rng = random.Random(12345)
    adj: dict[int, set[int]] = {u: set() for u in range(nodes)}
    for _ in range(draws):
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


_PROBE_ADJ = _probe_adjacency()  # every degree is at least 5 at this seed
_PROBE_A = np.random.default_rng(0).random((150, 150)) + 150.0 * np.eye(150)
_PROBE_B = np.eye(150)


def probe_s() -> float:
    t0 = perf_counter()
    rng = random.Random(7)
    total = 0.0
    for _ in range(400):
        common = _PROBE_ADJ[rng.randrange(300)] & _PROBE_ADJ[rng.randrange(300)]
        total += len(common) + sum(1.0 / math.log(len(_PROBE_ADJ[w])) for w in common)
    np.linalg.solve(_PROBE_A, _PROBE_B)
    return perf_counter() - t0


@dataclass
class Loop:
    outcomes: list[list[Outcome]]  # per variant, in trial order
    probes: list[list[float]]  # per variant: seconds of the probe after each trial
    trial_s: float  # loop wall time minus probe time

    def in_probes(self, variant: int) -> list[float]:
        """Each completed trial's wall time over its probe's."""
        return [o.seconds / p for o, p in zip(self.outcomes[variant], self.probes[variant])
                if o.seconds is not None]


def measure(
    workload: str,
    graphs: dict[str, graph.Graph],
    variants: list[tuple[list[ScorerFactory], Callable]],
    gate: Gate,
    seed: int,
    seconds: float,
    first: int = 1,
) -> Loop:
    """Closed loop from partition ``first`` until ``seconds`` have passed (at
    least one trial). Each trial runs every (factories, context) variant in
    turn on the same partition, each variant followed by the probe.
    """
    loop = Loop([[] for _ in variants], [[] for _ in variants], 0.0)
    start = perf_counter()
    t = first
    while True:
        for (factories, context), out, probes in zip(variants, loop.outcomes, loop.probes):
            with context():
                out.append(run_trial(workload, graphs, factories, gate, seed, t))
            probes.append(probe_s())
        t += 1
        wall = perf_counter() - start
        if wall >= seconds:
            loop.trial_s = wall - sum(map(sum, loop.probes))
            return loop


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


# ---------------------------------------------------------------- per layer


def count_pairs(corpus, window: int) -> int:
    return sum(1 for _ in skipgram.pair_stream(corpus, window))


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-call layer metrics from one tracer; ``None`` where a layer never ran."""
    totals = tracer.totals()

    def mean(name: str, scale: float, own: bool = False) -> float | None:
        calls, total, self_s = totals.get(name, (0, 0.0, 0.0))
        return (self_s if own else total) / calls * scale if calls else None

    metrics: dict[str, float | None] = {
        "graph.split_ms": mean("graph.split", 1e3),
        "graph.train_graph_ms": mean("graph.train_graph", 1e3),
        "graph.non_neighbor_us": mean("graph.non_neighbor", 1e6),
    }
    for k in indices.LOCAL_INDICES:
        metrics[f"indices.score_us.{k}"] = mean(f"indices.score.{k}", 1e6)
    metrics.update({
        "rwr.transition_ms": mean("rwr.transition", 1e3),
        "rwr.solve_ms": mean("rwr.build", 1e3, own=True),
        "rwr.score_us": mean("rwr.score", 1e6),
        "walks.alias_table_ms": mean("walks.alias_table", 1e3),
        "walks.corpus_ms": mean("walks.corpus", 1e3, own=True),
        "walks.steps": statistics.fmean(tracer.counts["walks.steps"])
        if "walks.steps" in tracer.counts else None,
        "skipgram.train_ms": mean("skipgram.train", 1e3),
        "predictor.training_set_ms": mean("predictor.training_set", 1e3),
        "predictor.fit_ms": mean("predictor.fit", 1e3),
        "predictor.score_us": mean("predictor.score", 1e6),
        "pipelines.build_ms": mean("pipelines.build", 1e3),
        "evaluate.auc_ms": mean("evaluate.auc", 1e3, own=True),
        "evaluate.us_per_comparison": mean("evaluate.auc", 1e6 / COMPARISONS),
    })
    trains = tracer.counts.get("skipgram.train", [])
    if trains:
        pairs = [count_pairs([range(n) for n in lengths], window)
                 for lengths, window, _, _ in trains]
        pair_updates = sum(p * epochs for p, (_, _, epochs, _) in zip(pairs, trains))
        metrics["skipgram.pairs_per_epoch"] = statistics.fmean(pairs)
        metrics["skipgram.us_per_pair"] = totals["skipgram.train"][1] / pair_updates * 1e6
        metrics["skipgram.final_loss"] = statistics.fmean(t[3] for t in trains)
    else:
        metrics.update(dict.fromkeys(
            ("skipgram.pairs_per_epoch", "skipgram.us_per_pair", "skipgram.final_loss")))
    return metrics


def default_build_estimate_s(seed: int) -> float:
    """Seconds one SGNS build would take at the default config; never run.

    d=128 microseconds per pair, measured on the reduced alias corpus, times
    the pairs per epoch that ``pair_stream`` yields on the default corpus
    (l=80, r=10, k=10), times the default 10 epochs.
    """
    default = skipgram.TrainConfig()
    g = datasets.embedding_benchmark_graph(seed)
    reduced = walks.generate_corpus(g, REDUCED_WALKS["embed_alias"], seed)
    probe = skipgram.TrainConfig(
        dim=default.dim, window=REDUCED_TRAIN.window, epochs=1,
        negatives=default.negatives, seed=seed,
    )
    t0 = perf_counter()
    skipgram.train(reduced, probe)
    seconds_per_pair = (perf_counter() - t0) / count_pairs(reduced, probe.window)
    full = walks.generate_corpus(g, DEFAULT_WALKS, seed)
    return seconds_per_pair * count_pairs(full, default.window) * default.epochs


# ---------------------------------------------------------------- runs


@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str]
    notes: list[str]  # human-readable lines printed before the result


def _tally(gate: Gate, workload: str, outcomes: list[Outcome]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems); a level mean off its reference fails
    every trial of the run."""
    problems = [p for o in outcomes for p in o.problems]
    mean_problems = gate.check_means(workload, outcomes)
    failed = len(outcomes) if mean_problems else sum(o.failed for o in outcomes)
    return len(outcomes), failed, problems + mean_problems


def time_import_s() -> float:
    """Seconds to import numpy and every linkpred layer in a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, "-c", _TIME_IMPORT, str(BENCH_DIR), str(REPO / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(child.stdout)


def run_untraced(name: str, seed: int, seconds: float, setup_reps: int = SETUP_REPS) -> RunResult:
    """Set up ``setup_reps`` times, each followed by an equal share of the
    measured loop. Spreading the set-up samples over the run keeps one
    slow phase of the host from moving all of them."""
    workload = WORKLOADS[name]
    gate = Gate.load()
    factories = workload.factories()
    import_s: list[float] = []
    setups: list[Setup] = []
    outcomes: list[Outcome] = []
    ratios: list[float] = []
    probes: list[float] = []
    trial_s = 0.0
    for _ in range(setup_reps):
        import_s.append(time_import_s())
        setups.append(set_up(workload, seed, gate, 1))
        loop = measure(name, setups[-1].graphs, [(factories, nullcontext)], gate, seed,
                       seconds / setup_reps, first=len(outcomes) + 1)
        outcomes += loop.outcomes[0]
        ratios += loop.in_probes(0)
        probes += loop.probes[0]
        trial_s += loop.trial_s
    setup_s = [s.seconds[0] for s in setups]
    ms = [1e3 * o.seconds for o in outcomes if o.seconds is not None]
    if not ms:
        raise RuntimeError(f"{name}: every measured trial raised")
    metrics = {
        "setup_s": statistics.median(import_s) + statistics.median(setup_s),
        "trials_per_kprobe": 1e3 * len(ratios) / sum(ratios),
        "trial_p50_in_probes": statistics.median(ratios),
        "trial_p90_in_probes": _p90(ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = {
        "trials_per_s": len(ms) / trial_s,
        "trial_ms_p50": statistics.median(ms),
        "trial_ms_p90": _p90(ms),
    }
    attempted, failed, problems = _tally(gate, name, [s.warmups[0] for s in setups] + outcomes)
    notes = [
        f"trials measured={len(ms)} in {trial_s:.3f} s"
        + ("" if len(ms) >= 100 else "; fewer than 100, so the p90 figures are no tail estimate"),
        f"probe median {1e3 * statistics.median(probes):.4f} ms",
        *(f"{k} {v:.6g} {WALL_UNITS[k]} (wall time)" for k, v in wall.items()),
        f"setup median import {statistics.median(import_s):.4f} s + median set-up "
        f"repetition {statistics.median(setup_s):.4f} s, {setup_reps} of each",
        f"failed_frac {failed / attempted:.6g} fraction "
        f"({failed}/{attempted} trials, warm-ups included)",
    ]
    return RunResult({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
                     attempted, failed, problems, notes)


def run_traced(name: str, seed: int, seconds: float, setup_reps: int = SETUP_REPS) -> RunResult:
    """Alternate untraced and traced trials on the same partitions.

    Layers the workload never reaches are filled from one traced trial of
    each other workload, so every per-layer metric is a measurement.
    """
    workload = WORKLOADS[name]
    gate = Gate.load()
    setup = set_up(workload, seed, gate, setup_reps)
    tracer = Tracer()
    levels = workload.levels()

    @contextmanager
    def traced():
        with instrument(tracer), tracer.span("trial"):
            yield

    variants = [
        (workload.factories(), nullcontext),
        ([traced_factory(tracer, f, span) for f, span in levels], traced),
    ]
    loop = measure(name, setup.graphs, variants, gate, seed, seconds)
    plain, with_trace = loop.outcomes

    companion = Tracer()
    extra: dict[str, list[Outcome]] = {}
    for other in WORKLOADS.values():
        if other.name == name:
            continue
        graphs = {g: getattr(datasets, g)(seed) for g in other.graphs}
        # untraced warm-up first: a layer's first call pays one-off costs
        warmup = run_trial(other.name, graphs, other.factories(), gate, seed, 0)
        factories = [traced_factory(companion, f, span) for f, span in other.levels()]
        with instrument(companion), companion.span("trial"):
            extra[other.name] = [warmup, run_trial(other.name, graphs, factories, gate, seed, 1)]

    own, filled = layer_metrics(tracer), layer_metrics(companion)
    metrics = {k: own[k] if own[k] is not None else filled[k] for k in own}
    totals = tracer.totals()
    trials, trial_s, trial_self_s = totals["trial"]
    metrics.update({
        "datasets.generate_ms": 1e3 * statistics.median(setup.generate_s),
        "graph.parse_ms": 1e3 * statistics.median(setup.parse_s),
        "graph.train_graph_builds": totals["graph.train_graph"][0] / trials,
        "evaluate.comparisons": totals["evaluate.auc"][0] * COMPARISONS / trials,
        "evaluate.build_share": totals["pipelines.build"][1] / trial_s,
        "trace.coverage": 1.0 - trial_self_s / trial_s,
        "trace.overhead_frac": statistics.median(loop.in_probes(1))
        / statistics.median(loop.in_probes(0)) - 1.0,
        "skipgram.default_build_est_s": default_build_estimate_s(seed),
    })
    missing = [k for k in PER_LAYER_UNITS if metrics.get(k) is None]
    if missing:
        raise RuntimeError(f"{name}: no measurement for {missing}")
    attempted, failed, problems = _tally(gate, name, setup.warmups + plain + with_trace)
    for other, outcomes in extra.items():
        tally = _tally(gate, other, outcomes)
        attempted, failed, problems = attempted + tally[0], failed + tally[1], problems + tally[2]
    notes = [f"span {span} calls={calls} total_ms={1e3 * total:.3f} self_ms={1e3 * own_s:.3f}"
             for span, (calls, total, own_s) in sorted(totals.items(), key=lambda kv: -kv[1][2])]
    notes.append(f"trials traced={len(with_trace)} untraced={len(plain)}")
    return RunResult({k: (metrics[k], u) for k, u in PER_LAYER_UNITS.items()},
                     attempted, failed, problems, notes)


# ---------------------------------------------------------------- environment


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if its library is found."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _openblas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "blas_threads": _openblas_threads() or os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "git_sha": _git_sha(),
        "seed": seed,
    }
