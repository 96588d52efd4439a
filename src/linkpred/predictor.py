"""Edge scores from node embeddings: feature operators plus a logistic classifier."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .graph import Edge, Graph, TooFewEdgesError

OPERATORS = ("hadamard", "average", "abs_diff")


def edge_features(
    vectors: np.ndarray, rows: np.ndarray, cols: np.ndarray, operator: str = "hadamard"
) -> np.ndarray:
    """Symmetric feature vector of each pair (vectors[rows[i]], vectors[cols[i]])."""
    a = vectors[rows]
    b = vectors[cols]
    if operator == "hadamard":
        return a * b
    if operator == "average":
        return (a + b) / 2.0
    if operator == "abs_diff":
        return np.abs(a - b)
    raise ValueError(f"unknown operator {operator!r}")


def build_training_set(
    g_train: Graph,
    vectors: np.ndarray,
    operator: str = "hadamard",
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced classifier data: every edge of ``g_train`` plus as many sampled
    non-edges, featurized from ``vectors`` (row i is the node at dense index i).

    Negatives are distinct unordered non-edges of the training graph, drawn
    by rejection; they may coincide with withheld test edges, which the
    scorer never sees. Raises :class:`TooFewEdgesError` when the graph has
    no edge or fewer non-edges than edges. Deterministic for a fixed seed.
    """
    wanted = g_train.num_edges
    if not wanted:
        raise TooFewEdgesError("no training edges")
    n_nodes = g_train.num_nodes
    available = n_nodes * (n_nodes - 1) // 2 - wanted
    if available < wanted:
        raise TooFewEdgesError(
            f"graph too dense: {available} distinct non-edges available, need {wanted}"
        )
    rng = random.Random(seed)
    nodes = g_train.node_list
    seen: set[frozenset[int]] = set()
    negatives: list[Edge] = []
    while len(negatives) < wanted:
        u = rng.choice(nodes)
        v = rng.choice(nodes)
        if u == v or g_train.has_edge(u, v):
            continue
        key = frozenset((u, v))
        if key in seen:
            continue
        seen.add(key)
        negatives.append((u, v))
    index = g_train.dense_index
    rows, cols = np.array(
        [(index[u], index[v]) for u, v in (*g_train.edge_list, *negatives)]
    ).T
    features = edge_features(vectors, rows, cols, operator)
    labels = np.concatenate([np.ones(wanted), np.zeros(wanted)])
    return features, labels


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # clamp keeps exp finite; sigmoid is flat to double precision beyond +-36
    return 1.0 / (1.0 + np.exp(-np.clip(z, -36.0, 36.0)))


def logistic_loss_and_grad(
    weights: np.ndarray,
    bias: float,
    features: np.ndarray,
    labels: np.ndarray,
    reg_lambda: float,
) -> tuple[float, np.ndarray, float]:
    """Mean cross-entropy + (reg_lambda/2) ||w||^2, with its exact gradient."""
    z = features @ weights + bias
    loss = float(
        np.mean(np.logaddexp(0.0, z) - labels * z)
        + 0.5 * reg_lambda * float(weights @ weights)
    )
    residual = (_sigmoid(z) - labels) / labels.shape[0]
    grad_w = features.T @ residual + reg_lambda * weights
    grad_b = float(residual.sum())
    return loss, grad_w, grad_b


def check_classifier_settings(reg_lambda: float, lr: float, epochs: int) -> None:
    """Raise ValueError unless reg_lambda is finite and >= 0, lr is finite
    and > 0, and epochs >= 1."""
    if not 0.0 <= reg_lambda < np.inf:
        raise ValueError(f"reg_lambda must be finite and >= 0, got {reg_lambda}")
    if not 0.0 < lr < np.inf:
        raise ValueError(f"classifier lr must be finite and > 0, got {lr}")
    if epochs < 1:
        raise ValueError(f"classifier epochs must be >= 1, got {epochs}")


def train_logistic(
    features: np.ndarray,
    labels: np.ndarray,
    reg_lambda: float = 1e-4,
    lr: float = 0.1,
    epochs: int = 500,
) -> LogisticModel:
    """Full-batch gradient descent from a zero start; deterministic."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("features must be a nonempty 2-D array")
    if features.shape[0] != labels.shape[0]:
        raise ValueError("features and labels disagree on row count")
    if not np.all(np.isfinite(features)):
        raise ValueError("non-finite feature values")
    check_classifier_settings(reg_lambda, lr, epochs)
    weights = np.zeros(features.shape[1])
    bias = 0.0
    for _ in range(epochs):
        _, grad_w, grad_b = logistic_loss_and_grad(
            weights, bias, features, labels, reg_lambda
        )
        weights -= lr * grad_w
        bias -= lr * grad_b
    return LogisticModel(weights=weights, bias=bias)


def predict(model: LogisticModel, features: np.ndarray) -> np.ndarray:
    """Edge probability sigmoid(w . x + bias) of each feature row x, in [0, 1]."""
    if features.shape[1:] != model.weights.shape:
        raise ValueError(
            f"feature rows {features.shape[1:]} do not match model {model.weights.shape}"
        )
    # A row sum, not features @ weights: BLAS rounds a row by its position in
    # the batch, so one pair could score differently alone and in a batch.
    return _sigmoid((features * model.weights).sum(axis=1) + model.bias)
