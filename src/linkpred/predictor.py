"""Edge scores from node embeddings: feature operators plus a logistic classifier,
fit on every training edge and as many non-edges drawn in batch from a numpy
Generator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, TooFewEdgesError

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

    Negatives are a uniform random sample of distinct unordered non-edges of
    the training graph: node pairs drawn in rounds from one numpy Generator,
    the self-pairs and edges dropped, and each repeat after its first draw.
    They may coincide with withheld test edges, which the scorer never sees.
    Raises :class:`TooFewEdgesError` when the graph has no edge or fewer
    non-edges than edges. Deterministic for a fixed non-negative seed.
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
    rng = np.random.default_rng(seed)
    keys = np.empty(0, dtype=np.int64)  # min * n + max of each negative, first-seen order
    while len(keys) < wanted:
        lo, hi = np.sort(rng.integers(n_nodes, size=(2, 2 * wanted)), axis=0)
        valid = (lo != hi) & ~g_train.adjacency_matrix[lo, hi]
        keys = np.concatenate((keys, lo[valid] * n_nodes + hi[valid]))
        keys = keys[np.sort(np.unique(keys, return_index=True)[1])]
    negatives = np.column_stack(np.divmod(keys[:wanted], n_nodes))
    rows, cols = np.concatenate((g_train.edges, negatives)).T
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


def logistic_gradient(
    weights: np.ndarray,
    bias: float,
    features: np.ndarray,
    labels: np.ndarray,
    reg_lambda: float,
) -> tuple[np.ndarray, float]:
    """Gradient of mean cross-entropy + (reg_lambda/2) ||w||^2 in (w, bias)."""
    z = features @ weights + bias
    residual = (_sigmoid(z) - labels) / labels.shape[0]
    grad_w = features.T @ residual + reg_lambda * weights
    grad_b = float(residual.sum())
    return grad_w, grad_b


def check_classifier_settings(reg_lambda: float, epochs: int) -> None:
    """Raise ValueError unless reg_lambda is finite and > 0 and epochs >= 1."""
    if not 0.0 < reg_lambda < np.inf:
        raise ValueError(f"reg_lambda must be finite and > 0, got {reg_lambda}")
    if epochs < 1:
        raise ValueError(f"classifier epochs must be >= 1, got {epochs}")


GRAD_TOL = 1e-10  # train_logistic stops once its gradient's norm is below this


def train_logistic(
    features: np.ndarray,
    labels: np.ndarray,
    reg_lambda: float = 1e-4,
    epochs: int = 500,
) -> LogisticModel:
    """Newton (IRLS) fit from a zero start to the minimum of mean cross-entropy
    + (reg_lambda/2) ||w||^2, the bias unpenalized; reg_lambda > 0 makes it
    unique, and it exists even on separable features. Each step solves
    (F'SF / N + diag(reg_lambda, ..., reg_lambda, 0)) delta = g, for F the
    features with a ones column, S = diag(s(1 - s)) and g the gradient, then
    halves delta until the loss does not rise beyond rounding. The fit stops
    once ||g|| < GRAD_TOL, or after ``epochs`` steps. Raises ValueError when
    a step or the loss it is checked against is not finite, as on features
    near 1e160, rather than return NaN weights. Deterministic.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("features must be a nonempty 2-D array")
    if features.shape[0] != labels.shape[0]:
        raise ValueError("features and labels disagree on row count")
    if not np.all(np.isfinite(features)):
        raise ValueError("non-finite feature values")
    check_classifier_settings(reg_lambda, epochs)
    n, d = features.shape
    design = np.column_stack((features, np.ones(n)))
    penalty = np.append(np.full(d, reg_lambda), 0.0)

    def loss(theta):
        # Nonnegative softplus terms keep the loss's relative precision where it is tiny.
        z = design @ theta
        rows = labels * np.logaddexp(0.0, -z) + (1.0 - labels) * np.logaddexp(0.0, z)
        return rows.mean() + 0.5 * penalty @ theta**2

    theta = np.zeros(d + 1)
    # Huge features overflow the gradient's norm and the Hessian; the
    # finiteness check below reports that as a ValueError, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            grad = np.append(*logistic_gradient(theta[:d], theta[d], features, labels, reg_lambda))
            if np.linalg.norm(grad) < GRAD_TOL:
                break
            s = _sigmoid(design @ theta)
            step = np.linalg.solve((design.T * (s * (1.0 - s))) @ design / n + np.diag(penalty),
                                   grad)
            current = loss(theta)
            if not (np.isfinite(current) and np.isfinite(step).all()):
                raise ValueError(f"non-finite Newton step (loss {current}): features too large")
            # A rise within 1e-13 of the loss is rounding; a step halved to zero passes.
            while loss(theta - step) > current * (1.0 + 1e-13):
                step /= 2.0
            theta -= step
    return LogisticModel(weights=theta[:d], bias=float(theta[d]))


# Pairs per block of predict_pairs. Featurizing all 1,000 draws of a trial at
# d = 128 builds (pairs x d) float64 temporaries of 1 MB each; 256 rows keep
# them at 256 KB. A pair's score is the sum of its own row, so blocking
# changes no value.
_SCORE_BLOCK = 256


def predict_pairs(
    model: LogisticModel, vectors: np.ndarray, rows: np.ndarray, cols: np.ndarray,
    operator: str = "hadamard",
) -> np.ndarray:
    """:func:`predict` of the :func:`edge_features` of pairs (rows[i], cols[i]),
    ``_SCORE_BLOCK`` pairs at a time."""
    out = np.empty(len(rows))
    for i in range(0, len(rows), _SCORE_BLOCK):
        block = slice(i, i + _SCORE_BLOCK)
        out[block] = predict(model, edge_features(vectors, rows[block], cols[block], operator))
    return out


def predict(model: LogisticModel, features: np.ndarray) -> np.ndarray:
    """Edge probability sigmoid(w . x + bias) of each feature row x, in [0, 1]."""
    if features.shape[1:] != model.weights.shape:
        raise ValueError(
            f"feature rows {features.shape[1:]} do not match model {model.weights.shape}"
        )
    # A row sum, not features @ weights: BLAS rounds a row by its position in
    # the batch, so one pair could score differently alone and in a batch.
    return _sigmoid((features * model.weights).sum(axis=1) + model.bias)
