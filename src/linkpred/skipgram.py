"""Skip-gram with negative sampling over walk corpora.

A corpus is a 2-D int array, a walk per row, and an entry is a table row:
walks carry the graph's dense indices, so row i of either table is node
``Graph.nodes[i]``. The embedding lives in the input table; the output table
is the context side. Training is plain sequential SGD over the shuffled
(center, context) pairs, with negatives drawn from the corpus unigram
distribution raised to the 0.75 power. Every update, in :func:`train` and in
:func:`sgns_step`, is the same numpy arithmetic on one pair at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

# Dot products are clamped to this magnitude before the sigmoid to keep the
# exp/log arithmetic finite.
SCORE_CLAMP = 30.0
LR_INITIAL = 0.025
LR_FINAL = 0.0001


@dataclass
class TrainConfig:
    dim: int = 128
    window: int = 10
    epochs: int = 10
    negatives: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")


@dataclass
class EmbeddingModel:
    """Node vectors plus trainer state.

    ``input_vectors`` holds the embeddings; ``output_vectors`` is the context
    table. Row i of each belongs to corpus entry i.
    """

    input_vectors: np.ndarray
    output_vectors: np.ndarray
    epoch_losses: tuple[float, ...] = field(default=())

    @property
    def dim(self) -> int:
        return int(self.input_vectors.shape[1])


def pair_stream(corpus: Iterable[Sequence[int]], window: int) -> Iterator[tuple[int, int]]:
    """(center, context) row pairs within ``window`` positions, clipped at walk
    ends, walk by walk: :func:`train`'s pair order, kept as the tests'
    reference for that order and as the benchmark's pair counter."""
    if window < 1:
        raise ValueError("window must be >= 1")
    for walk in corpus:
        n = len(walk)
        for i in range(n):
            lo = max(i - window, 0)
            hi = min(i + window, n - 1)
            for j in range(lo, hi + 1):
                if j != i:
                    yield walk[i], walk[j]


def sgns_step(
    model: EmbeddingModel,
    center: int,
    context: int,
    negatives: Sequence[int],
    lr: float,
) -> float:
    """One SGD update for a positive row pair against sampled negative rows.

    Loss: -log sigmoid(u_ctx . v_cen) - sum over negatives of
    log sigmoid(-u_neg . v_cen). Gradients are evaluated at the pre-update
    state and applied afterwards, accumulating over repeated rows. Returns
    the pre-update loss.
    """
    rows = np.array([context, *negatives])
    return _update(model.input_vectors, model.output_vectors, center, rows, lr)


def _update(inp: np.ndarray, out: np.ndarray, cen: int, rows: np.ndarray, lr: float) -> float:
    """:func:`sgns_step` on the tables: ``rows`` is the context row, then the
    negative rows. Updates ``inp`` and ``out`` in place."""
    v = inp[cen].copy()
    ctx = out[rows]
    # minimum/maximum rather than np.clip: same values, half the call overhead
    z = np.minimum(np.maximum(ctx @ v, -SCORE_CLAMP), SCORE_CLAMP)
    sig = 1.0 / (1.0 + np.exp(-z))
    loss = -np.log(sig[0]) - np.log(1.0 - sig[1:]).sum()
    coeff = sig.copy()
    coeff[0] -= 1.0
    grad_v = coeff @ ctx
    np.add.at(out, rows, -lr * np.outer(coeff, v))
    inp[cen] -= lr * grad_v
    return float(loss)


def train(walks: np.ndarray, config: TrainConfig) -> EmbeddingModel:
    """Train embeddings over ``walks``: table rows, a walk per row of a 2-D
    int array (ragged walks are not accepted). The pairs are
    :func:`pair_stream`'s, in its order, gathered from one column template.

    The tables get ``max(row) + 1`` rows; a row that no walk visits keeps
    its initial vector and is never drawn as a negative. Input vectors start
    uniform in [-0.5/dim, 0.5/dim), output vectors at zero. Runs ``epochs``
    passes over the shuffled pair stream with the learning rate decaying
    linearly from LR_INITIAL to LR_FINAL across all steps. Raises
    ValueError when either table holds a non-finite value at the end of an
    epoch, rather than return vectors that would be written out as NaN.
    Single-threaded and deterministic for a fixed config seed.
    """
    walks = np.atleast_2d(np.asarray(walks, dtype=np.int64))
    counts = np.bincount(walks.ravel())
    a = np.arange(walks.shape[1])
    i, j = np.nonzero((abs(a[:, None] - a) <= config.window) & (a[:, None] != a))
    centers_arr, contexts_arr = walks[:, i].ravel(), walks[:, j].ravel()
    if not centers_arr.size:
        raise ValueError("corpus yields no context pairs")

    n_nodes = len(counts)
    n_pairs = centers_arr.shape[0]

    rng = np.random.default_rng(config.seed)
    inp = (rng.random((n_nodes, config.dim)) - 0.5) / config.dim
    out = np.zeros((n_nodes, config.dim))

    noise = counts.astype(float) ** 0.75
    noise /= noise.sum()

    total_steps = config.epochs * n_pairs
    decay_denom = max(total_steps - 1, 1)
    losses = []
    done = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_pairs)
        negatives = rng.choice(n_nodes, size=(n_pairs, config.negatives), p=noise)
        lrs = LR_INITIAL + (LR_FINAL - LR_INITIAL) * (
            np.arange(done, done + n_pairs, dtype=float) / decay_denom
        )
        rows = np.column_stack((contexts_arr[order], negatives))
        epoch_loss = 0.0
        # Diverging updates overflow to inf and then NaN; the check after the
        # epoch reports that as a ValueError, not a warning per pair.
        with np.errstate(over="ignore", invalid="ignore"):
            for cen, pair_rows, lr in zip(centers_arr[order].tolist(), rows, lrs.tolist()):
                epoch_loss += _update(inp, out, cen, pair_rows, lr)
        if not (np.isfinite(inp).all() and np.isfinite(out).all()):
            raise ValueError(f"skip-gram diverged: non-finite vectors after epoch {epoch}")
        losses.append(epoch_loss / n_pairs)
        done += n_pairs
    return EmbeddingModel(input_vectors=inp, output_vectors=out, epoch_losses=tuple(losses))


def save_embedding(model: EmbeddingModel, nodes: Sequence[int], path: Union[str, Path]) -> None:
    """Write "<count> <dim>" then one "<node> <v1> ... <vd>" line per row i,
    with ``nodes[i]`` as its node (``Graph.nodes`` for a graph's corpus).

    Values are rendered with shortest-round-trip precision, so parsing them
    as floats reproduces the vectors exactly.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{len(nodes)} {model.dim}\n")
        for node, vector in zip(nodes, model.input_vectors.tolist(), strict=True):
            handle.write(f"{node} {' '.join(map(repr, vector))}\n")

