"""Skip-gram with negative sampling over walk corpora.

The embedding lives in the input table; the output table is the context
side. Training is plain sequential SGD over the shuffled (center, context)
pair stream, with negatives drawn from the corpus unigram distribution
raised to the 0.75 power. Every update, in :func:`train` and in
:func:`sgns_step`, is the same numpy arithmetic on one pair at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence, Union

import numpy as np

from .walks import Walk

# Dot products are clamped to this magnitude before the sigmoid to keep the
# exp/log arithmetic finite.
SCORE_CLAMP = 30.0


@dataclass
class TrainConfig:
    dim: int = 128
    window: int = 10
    epochs: int = 10
    negatives: int = 5
    lr_initial: float = 0.025
    lr_final: float = 0.0001
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
        if not self.lr_initial >= self.lr_final > 0:
            raise ValueError("need lr_initial >= lr_final > 0")


@dataclass
class EmbeddingModel:
    """Node vectors plus trainer state.

    ``input_vectors`` holds the embeddings; ``output_vectors`` is the context
    table. ``vocab`` maps node id to table row.
    """

    input_vectors: np.ndarray
    output_vectors: np.ndarray
    vocab: dict[int, int]
    epoch_losses: tuple[float, ...] = field(default=())

    @property
    def dim(self) -> int:
        return int(self.input_vectors.shape[1])


def pair_stream(corpus: Iterable[Walk], window: int) -> Iterator[tuple[int, int]]:
    """(center, context) pairs within ``window`` positions, clipped at walk ends."""
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
    """One SGD update for a positive pair against sampled negatives.

    Loss: -log sigmoid(u_ctx . v_cen) - sum over negatives of
    log sigmoid(-u_neg . v_cen). Gradients are evaluated at the pre-update
    state and applied afterwards, accumulating over repeated rows. Returns
    the pre-update loss.
    """
    vocab = model.vocab
    rows = np.array([vocab[context]] + [vocab[x] for x in negatives])
    return _update(model.input_vectors, model.output_vectors, vocab[center], rows, lr)


def _update(inp: np.ndarray, out: np.ndarray, cen: int, rows: np.ndarray, lr: float) -> float:
    """:func:`sgns_step` in table rows: ``rows`` is the context row, then the
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


def train(corpus: Iterable[Walk], config: TrainConfig) -> EmbeddingModel:
    """Train embeddings over a walk corpus.

    Input vectors start uniform in [-0.5/dim, 0.5/dim), output vectors at
    zero. Runs ``epochs`` passes over the shuffled pair stream with the
    learning rate decaying linearly from lr_initial to lr_final across all
    steps. Single-threaded and deterministic for a fixed config seed.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("empty corpus")

    vocab: dict[int, int] = {}
    counts: list[int] = []
    for walk in corpus:
        for node in walk:
            row = vocab.setdefault(node, len(counts))
            if row == len(counts):
                counts.append(0)
            counts[row] += 1

    centers: list[int] = []
    contexts: list[int] = []
    for center, context in pair_stream(corpus, config.window):
        centers.append(vocab[center])
        contexts.append(vocab[context])
    if not centers:
        raise ValueError("corpus yields no context pairs")

    centers_arr = np.array(centers, dtype=np.int64)
    contexts_arr = np.array(contexts, dtype=np.int64)
    n_nodes = len(counts)
    n_pairs = centers_arr.shape[0]

    rng = np.random.default_rng(config.seed)
    inp = (rng.random((n_nodes, config.dim)) - 0.5) / config.dim
    out = np.zeros((n_nodes, config.dim))

    noise = np.array(counts, dtype=float) ** 0.75
    noise /= noise.sum()

    total_steps = config.epochs * n_pairs
    decay_denom = max(total_steps - 1, 1)
    losses = []
    done = 0
    for _ in range(config.epochs):
        order = rng.permutation(n_pairs)
        negatives = rng.choice(n_nodes, size=(n_pairs, config.negatives), p=noise)
        lrs = config.lr_initial + (config.lr_final - config.lr_initial) * (
            np.arange(done, done + n_pairs, dtype=float) / decay_denom
        )
        rows = np.column_stack((contexts_arr[order], negatives))
        epoch_loss = 0.0
        for cen, pair_rows, lr in zip(centers_arr[order].tolist(), rows, lrs.tolist()):
            epoch_loss += _update(inp, out, cen, pair_rows, lr)
        losses.append(epoch_loss / n_pairs)
        done += n_pairs
    return EmbeddingModel(
        input_vectors=inp, output_vectors=out, vocab=vocab,
        epoch_losses=tuple(losses),
    )


def save_embedding(model: EmbeddingModel, sink: Union[str, Path, IO[str]]) -> None:
    """Write "<count> <dim>" then one "<node> <v1> ... <vd>" line per node.

    Values are rendered with shortest-round-trip precision, so parsing them
    as floats reproduces the vectors exactly.
    """
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="\n") as handle:
            save_embedding(model, handle)
        return
    sink.write(f"{len(model.vocab)} {model.dim}\n")
    for node, row in model.vocab.items():
        rendered = " ".join(repr(float(x)) for x in model.input_vectors[row])
        sink.write(f"{node} {rendered}\n")

