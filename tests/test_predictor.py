import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from linkpred.graph import Graph
from linkpred.predictor import (
    GRAD_TOL,
    OPERATORS,
    _SCORE_BLOCK,
    LogisticModel,
    build_training_set,
    edge_features,
    logistic_gradient,
    predict,
    predict_pairs,
    train_logistic,
)


class TestEdgeFeatures:
    def test_hadamard(self):
        vectors = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(edge_features(vectors, np.array([0]), np.array([1])), [[3.0, 8.0]])

    def test_hadamard_zero_vector(self):
        vectors = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert np.array_equal(edge_features(vectors, np.array([0]), np.array([1])), [[0.0, 0.0]])

    def test_average_and_abs_diff(self):
        vectors = np.array([[1.0, 2.0], [3.0, 6.0]])
        rows, cols = np.array([0, 1]), np.array([1, 0])
        assert np.array_equal(edge_features(vectors, rows, cols, "average"),
                              [[2.0, 4.0], [2.0, 4.0]])
        assert np.array_equal(edge_features(vectors, rows, cols, "abs_diff"),
                              [[2.0, 4.0], [2.0, 4.0]])

    def test_symmetry_all_operators(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(2000, 6))
        rows = np.arange(0, 2000, 2)
        for op in ("hadamard", "average", "abs_diff"):
            a = edge_features(vectors, rows, rows + 1, op)
            b = edge_features(vectors, rows + 1, rows, op)
            assert np.array_equal(a, b)

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            edge_features(np.array([[1.0], [2.0]]), np.array([0]), np.array([1]), "concat")

    def test_unembedded_node(self):
        with pytest.raises(IndexError):
            edge_features(np.array([[1.0], [2.0]]), np.array([0]), np.array([9]))


class TestBuildTrainingSet:
    def _setup(self, seed=0):
        rng = np.random.default_rng(seed)
        g = Graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        emb = rng.normal(size=(6, 4))
        return g, emb

    def test_balanced_counts(self):
        g, emb = self._setup()
        X, y = build_training_set(g, emb, seed=1)
        assert X.shape == (10, 4)
        assert y.sum() == 5
        assert len(y) == 10

    def test_negatives_are_distinct_non_edges(self):
        # A 5-cycle has exactly 5 non-edges, so its 5 negatives must be all of
        # them. With one-hot vectors each "average" row is (e_u + e_v) / 2,
        # so the pair can be read back from the row's two nonzero entries.
        g = Graph([(i, (i + 1) % 5) for i in range(5)])
        X, y = build_training_set(g, np.eye(5), operator="average", seed=2)
        negatives = [frozenset(np.flatnonzero(row)) for row in X[y == 0]]
        non_edges = {frozenset((u, v)) for u in range(5) for v in range(u + 2, 5)
                     if (u, v) != (0, 4)}
        assert len(negatives) == 5
        assert set(negatives) == non_edges

    def test_negatives_are_uniform_over_non_edges(self):
        # A 6-path has 5 edges and 10 non-edges, so a uniform sample of 5
        # distinct non-edges holds each one with probability 5/10. Count each
        # seed's set, so that a sample with repeats (which would hold a
        # given non-edge less often) stands out.
        g = Graph([(i, i + 1) for i in range(5)])
        seeds, share = 2000, 5 / 10
        counts = Counter()
        for seed in range(seeds):
            X, y = build_training_set(g, np.eye(6), operator="average", seed=seed)
            counts.update({frozenset(np.flatnonzero(row)) for row in X[y == 0]})
        assert counts.keys() == {frozenset((u, v)) for u in range(6) for v in range(u + 2, 6)}
        sigma = math.sqrt(seeds * share * (1 - share))
        for pair, count in counts.items():
            assert abs(count - seeds * share) < 4 * sigma, sorted(pair)

    def test_complete_graph_errors(self):
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        g = Graph(pairs)
        emb = np.ones((4, 3))
        with pytest.raises(ValueError, match="dense"):
            build_training_set(g, emb, seed=0)

    def test_empty_edges(self):
        g, emb = self._setup()
        with pytest.raises(ValueError):
            build_training_set(Graph([]), emb)


def _objective(w, b, X, y, reg):
    """Mean cross-entropy + (reg/2) ||w||^2: the reference for the fit's gradient."""
    z = X @ w + b
    return float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * reg * float(w @ w))


def _lbfgs_optimum(X, y, reg):
    """scipy's L-BFGS-B minimum of :func:`_objective` over (w, bias), to gtol 1e-12."""
    from scipy.optimize import minimize
    from scipy.special import expit

    d = X.shape[1]

    def value_and_gradient(theta):
        w, b = theta[:d], theta[d]
        residual = (expit(X @ w + b) - y) / len(y)
        return _objective(w, b, X, y, reg), np.append(X.T @ residual + reg * w, residual.sum())

    return minimize(value_and_gradient, np.zeros(d + 1), jac=True, method="L-BFGS-B",
                    options=dict(gtol=1e-12, ftol=0.0, maxiter=100_000))


class TestTrainLogistic:
    def test_separable_reaches_full_accuracy(self):
        X = np.array([[-1.0]] * 50 + [[1.0]] * 50)
        y = np.array([0.0] * 50 + [1.0] * 50)
        model = train_logistic(X, y, reg_lambda=1e-4)
        preds = predict(model, X) > 0.5
        assert np.mean(preds == (y == 1)) == 1.0

    def test_zero_features_balanced_labels(self):
        X = np.zeros((40, 3))
        y = np.array([0.0, 1.0] * 20)
        model = train_logistic(X, y)
        assert np.array_equal(model.weights, np.zeros(3))
        assert predict(model, np.zeros((1, 3)))[0] == pytest.approx(0.5, abs=1e-9)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(20):
            X = rng.normal(size=(30, 8))
            y = (rng.random(30) > 0.5).astype(float)
            w = rng.normal(scale=0.5, size=8)
            b = float(rng.normal())
            reg = 10 ** rng.uniform(-5, -2)
            grad_w, grad_b = logistic_gradient(w, b, X, y, reg)
            for i in range(8):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                fd = (_objective(wp, b, X, y, reg) - _objective(wm, b, X, y, reg)) / (2 * h)
                assert grad_w[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)
            fd_b = (_objective(w, b + h, X, y, reg) - _objective(w, b - h, X, y, reg)) / (2 * h)
            assert grad_b == pytest.approx(fd_b, rel=1e-4, abs=1e-8)

    def test_loss_non_increasing_on_separable_set(self):
        X = np.array([[-1.0]] * 50 + [[1.0]] * 50)
        y = np.array([0.0] * 50 + [1.0] * 50)
        w = np.zeros(1)
        b = 0.0
        losses = []
        for _ in range(200):
            losses.append(_objective(w, b, X, y, 0.0))
            gw, gb = logistic_gradient(w, b, X, y, 0.0)
            w -= 0.5 * gw
            b -= 0.5 * gb
        assert all(later <= earlier + 1e-12 for earlier, later in zip(losses, losses[1:]))

    def test_matches_lbfgs_optimum(self):
        from scipy.special import expit

        rng = np.random.default_rng(3)
        for d in (1, 3, 17, 64, 129):
            for separable in (False, True):
                for reg in (1e-4, 1e-2, 1.0):
                    n = int(rng.integers(2 * d + 20, 600))
                    X = rng.normal(scale=rng.uniform(0.1, 3.0), size=(n, d))
                    z = X @ rng.normal(size=d)
                    y = (z > 0 if separable else rng.random(n) < expit(z)).astype(float)
                    model = train_logistic(X, y, reg_lambda=reg)
                    grad_w, grad_b = logistic_gradient(model.weights, model.bias, X, y, reg)
                    assert np.linalg.norm(np.append(grad_w, grad_b)) < GRAD_TOL
                    oracle = _lbfgs_optimum(X, y, reg)
                    assert _objective(model.weights, model.bias, X, y, reg) <= oracle.fun + 1e-12
                    assert np.max(np.abs(np.append(model.weights, model.bias) - oracle.x)) < 1e-4

    def test_huge_regularization_kills_weights(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 4))
        y = (rng.random(60) > 0.5).astype(float)
        model = train_logistic(X, y, reg_lambda=1e6, epochs=2000)
        assert np.linalg.norm(model.weights) < 1e-3

    def test_non_finite_features(self):
        X = np.array([[1.0], [np.inf]])
        y = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            train_logistic(X, y)

    def test_overflowing_features_raise_instead_of_nan_weights(self):
        # At 1e150 the fit is finite; at 1e160 the Hessian overflows.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 8))
        y = (rng.random(200) < 0.5).astype(float)
        assert np.isfinite(train_logistic(X * 1e150, y).weights).all()
        with pytest.raises(ValueError, match="non-finite Newton step"):
            train_logistic(X * 1e160, y)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            train_logistic(np.zeros((3, 2)), np.zeros(4))

    @pytest.mark.parametrize("kwargs", [dict(reg_lambda=float("nan")), dict(reg_lambda=0.0),
                                        dict(reg_lambda=-1.0), dict(epochs=0)])
    def test_rejects_meaningless_settings(self, kwargs):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match=">"):
            train_logistic(X, y, **kwargs)


class TestPredictScore:
    def test_zero_model(self):
        model = LogisticModel(weights=np.zeros(3), bias=0.0)
        assert predict(model, np.array([[5.0, -2.0, 1.0]]))[0] == 0.5

    def test_sigmoid_of_ten(self):
        model = LogisticModel(weights=np.array([10.0]), bias=0.0)
        assert predict(model, np.array([[1.0]]))[0] == pytest.approx(
            0.9999546021312976, rel=1e-12
        )

    def test_monotone_in_logit(self):
        model = LogisticModel(weights=np.array([2.0]), bias=0.3)
        scores = predict(model, np.linspace(-3, 3, 25)[:, None])
        assert np.all(np.diff(scores) > 0)

    def test_extreme_logits_stay_in_unit_interval(self):
        model = LogisticModel(weights=np.array([1000.0]), bias=0.0)
        scores = predict(model, np.array([[-1000.0], [1000.0]]))
        assert np.all((0.0 <= scores) & (scores <= 1.0))

    def test_dimension_mismatch(self):
        model = LogisticModel(weights=np.zeros(3), bias=0.0)
        with pytest.raises(ValueError):
            predict(model, np.zeros((1, 4)))

    @pytest.mark.parametrize("operator", OPERATORS)
    def test_blocked_pairs_match_per_pair_scores(self, operator):
        # 1,000 pairs at d = 128, as one trial's draws: more than three blocks,
        # the last one partial, with repeated pairs.
        rng = np.random.default_rng(4)
        vectors = rng.normal(size=(60, 128))
        model = LogisticModel(weights=rng.normal(size=128), bias=0.25)
        rows, cols = rng.integers(60, size=(2, 1000))
        assert len(rows) > 3 * _SCORE_BLOCK and len(rows) % _SCORE_BLOCK
        tracemalloc.start()
        try:
            scores = predict_pairs(model, vectors, rows, cols, operator)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_by_one = [predict(model, edge_features(vectors, rows[i:i + 1], cols[i:i + 1],
                                                   operator))[0] for i in range(len(rows))]
        assert scores.tolist() == one_by_one
        # At most four (block x d) float64 temporaries (abs_diff) and the output
        # are alive; the unblocked call holds three or four (1,000 x d) ones, 3-4 MB.
        assert peak < 5 * _SCORE_BLOCK * 128 * 8
