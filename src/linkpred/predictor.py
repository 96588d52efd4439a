"""Edge scores from node embeddings: feature operators plus a logistic classifier."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Edge, Graph
from .skipgram import EmbeddingModel

OPERATORS = ("hadamard", "average", "abs_diff")


def edge_features(
    model: EmbeddingModel, u: int, v: int, operator: str = "hadamard"
) -> np.ndarray:
    """Combine two node vectors into one symmetric edge feature vector."""
    a = model.vector(u)
    b = model.vector(v)
    if operator == "hadamard":
        return a * b
    if operator == "average":
        return (a + b) / 2.0
    if operator == "abs_diff":
        return np.abs(a - b)
    raise ValueError(f"unknown operator {operator!r}")


def build_training_set(
    train_edges: Sequence[Edge],
    g_train: Graph,
    model: EmbeddingModel,
    operator: str = "hadamard",
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced classifier data: every train edge plus as many sampled non-edges.

    Negatives are distinct unordered non-edges of the training graph, drawn
    by rejection; they may coincide with withheld test edges, which the
    scorer never sees. Deterministic for a fixed seed.
    """
    train_edges = list(train_edges)
    if not train_edges:
        raise ValueError("no training edges")
    n_nodes = g_train.num_nodes
    available = n_nodes * (n_nodes - 1) // 2 - g_train.num_edges
    wanted = len(train_edges)
    if available < wanted:
        raise ValueError(
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
    features = np.vstack(
        [edge_features(model, u, v, operator) for u, v in train_edges + negatives]
    )
    labels = np.concatenate([np.ones(wanted), np.zeros(wanted)])
    return features, labels


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    reg_lambda: float


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
    if reg_lambda < 0:
        raise ValueError("reg_lambda must be >= 0")
    weights = np.zeros(features.shape[1])
    bias = 0.0
    for _ in range(epochs):
        _, grad_w, grad_b = logistic_loss_and_grad(
            weights, bias, features, labels, reg_lambda
        )
        weights -= lr * grad_w
        bias -= lr * grad_b
    return LogisticModel(weights=weights, bias=bias, reg_lambda=reg_lambda)


def predict_score(model: LogisticModel, feature: np.ndarray) -> float:
    """Edge probability sigmoid(w . feature + bias), in [0, 1]."""
    feature = np.asarray(feature, dtype=float)
    if feature.shape != model.weights.shape:
        raise ValueError(
            f"feature dimension {feature.shape} does not match model {model.weights.shape}"
        )
    z = float(model.weights @ feature + model.bias)
    z = min(36.0, max(-36.0, z))
    return 1.0 / (1.0 + math.exp(-z))
