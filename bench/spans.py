"""In-memory span tracing for the benchmark's traced run.

The tracer wraps public functions of the ``linkpred`` layers where their
callers look them up (module attributes), so the package itself carries no
instrumentation. Spans record (id, name, start, end, parent, self time);
self time is the span's duration minus the time covered by its child
spans. Calls that take about a microsecond and run thousands of times per
trial (pair scoring, non-neighbor draws) are leaves: they add to their
parent's child time and to a per-name (calls, total) aggregate instead of
being stored one by one, which keeps a traced run's memory bounded.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, NamedTuple

from linkpred import evaluate, predictor, rwr, skipgram, walks
from linkpred.evaluate import Scorer, ScorerFactory


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    self_s: float


class Tracer:
    """Span stack plus closed spans, leaf aggregates and boundary counts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.leaves: dict[str, list[float]] = {}  # name -> [calls, total seconds]
        self.counts: dict[str, list] = {}  # name -> one observation per call
        self._open: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 0

    def begin(self, name: str) -> None:
        self._open.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        end = perf_counter()
        span_id, name, start, child = self._open.pop()
        duration = end - start
        parent = None
        if self._open:
            self._open[-1][3] += duration
            parent = self._open[-1][0]
        self.spans.append(Span(span_id, name, start, end, parent, duration - child))

    def leaf(self, name: str, duration: float) -> None:
        if self._open:
            self._open[-1][3] += duration
        entry = self.leaves.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += duration

    def count(self, name: str, value) -> None:
        self.counts.setdefault(name, []).append(value)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) over spans and leaves."""
        out: dict[str, list] = {}
        for s in self.spans:
            entry = out.setdefault(s.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += s.end - s.start
            entry[2] += s.self_s
        for name, (calls, total) in self.leaves.items():
            out[name] = [calls, total, total]
        return {name: tuple(v) for name, v in out.items()}


def _traced(tracer: Tracer, name: str, fn: Callable, observe: Callable | None = None):
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if observe is not None:
            observe(tracer, result, *args)
        return result

    return wrapper


def _traced_leaf(tracer: Tracer, name: str, fn: Callable):
    def wrapper(*args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            tracer.leaf(name, perf_counter() - t0)

    return wrapper


def _observe_corpus(tracer, corpus, *args):
    tracer.count("walks.steps", sum(len(w) - 1 for w in corpus))


def _observe_sgns(tracer, model, corpus, config):
    # Pairs are counted after the run from the walk lengths, so counting
    # costs nothing inside the timed spans.
    lengths = tuple(len(w) for w in corpus)
    tracer.count("skipgram.train", (lengths, config.window, config.epochs, model.epoch_losses[-1]))


# (module, attribute, span name, observer); each attribute is patched where
# its caller looks it up: evaluate imported these names from graph, rwr and
# walks call build_transition / build_alias_table as module globals, and
# pipelines reaches walks, skipgram, predictor and rwr through the modules.
PATCHES = (
    (evaluate, "Graph", "graph.train_graph", None),
    (evaluate, "split_edges", "graph.split", None),
    (evaluate, "estimate_auc", "evaluate.auc", None),
    (rwr, "build_rwr", "rwr.build", None),
    (rwr, "build_transition", "rwr.transition", None),
    (walks, "generate_corpus", "walks.corpus", _observe_corpus),
    (walks, "build_alias_table", "walks.alias_table", None),
    (skipgram, "train", "skipgram.train", _observe_sgns),
    (predictor, "build_training_set", "predictor.training_set", None),
    (predictor, "train_logistic", "predictor.fit", None),
)
LEAF_PATCHES = ((evaluate, "sample_non_neighbor", "graph.non_neighbor"),)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Patch the layer functions to record into ``tracer``; always restore."""
    saved = []
    try:
        for module, attr, name, observe in PATCHES:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _traced(tracer, name, original, observe))
        for module, attr, name in LEAF_PATCHES:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _traced_leaf(tracer, name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def traced_factory(tracer: Tracer, factory: ScorerFactory, score_span: str) -> ScorerFactory:
    """Factory whose build is a ``pipelines.build`` span and whose Scorer
    records each pair score as a ``score_span`` leaf."""

    def build(g_train, seed):
        tracer.begin("pipelines.build")
        try:
            scorer = factory.build(g_train, seed)
        finally:
            tracer.end()
        return Scorer(scorer.tag, _traced_leaf(tracer, score_span, scorer.score))

    return ScorerFactory(factory.tag, build)
