import numpy as np
import pytest

from linkpred.graph import Graph
from linkpred.predictor import (
    LogisticModel,
    build_training_set,
    edge_features,
    logistic_loss_and_grad,
    predict_score,
    train_logistic,
)
from linkpred.skipgram import EmbeddingModel


def _embedding(vectors):
    vectors = np.asarray(vectors, dtype=float)
    return EmbeddingModel(
        input_vectors=vectors,
        output_vectors=None,
        vocab={i: i for i in range(vectors.shape[0])},
    )


class TestEdgeFeatures:
    def test_hadamard(self):
        emb = _embedding([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(edge_features(emb, 0, 1), [3.0, 8.0])

    def test_hadamard_zero_vector(self):
        emb = _embedding([[0.0, 0.0], [3.0, 4.0]])
        assert np.array_equal(edge_features(emb, 0, 1), [0.0, 0.0])

    def test_average_and_abs_diff(self):
        emb = _embedding([[1.0, 2.0], [3.0, 6.0]])
        assert np.array_equal(edge_features(emb, 0, 1, "average"), [2.0, 4.0])
        assert np.array_equal(edge_features(emb, 0, 1, "abs_diff"), [2.0, 4.0])

    def test_symmetry_all_operators(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(2000, 6))
        emb = _embedding(vectors)
        for op in ("hadamard", "average", "abs_diff"):
            for i in range(0, 2000, 2):
                a = edge_features(emb, i, i + 1, op)
                b = edge_features(emb, i + 1, i, op)
                assert np.array_equal(a, b)

    def test_unknown_operator(self):
        emb = _embedding([[1.0], [2.0]])
        with pytest.raises(ValueError):
            edge_features(emb, 0, 1, "concat")

    def test_unembedded_node(self):
        emb = _embedding([[1.0], [2.0]])
        with pytest.raises(KeyError):
            edge_features(emb, 0, 9)


class TestBuildTrainingSet:
    def _setup(self, seed=0):
        rng = np.random.default_rng(seed)
        g = Graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        emb = _embedding(rng.normal(size=(6, 4)))
        return g, emb

    def test_balanced_counts(self):
        g, emb = self._setup()
        X, y = build_training_set(g.edge_list, g, emb, seed=1)
        assert X.shape == (10, 4)
        assert y.sum() == 5
        assert len(y) == 10

    def test_negatives_are_distinct_non_edges(self):
        g, emb = self._setup()
        rng_runs = set()
        X, y = build_training_set(g.edge_list, g, emb, seed=2)
        # rebuild the negative pairs by re-running with the same seed
        X2, y2 = build_training_set(g.edge_list, g, emb, seed=2)
        assert np.array_equal(X, X2) and np.array_equal(y, y2)

    def test_complete_graph_errors(self):
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        g = Graph(pairs)
        emb = _embedding(np.ones((4, 3)))
        with pytest.raises(ValueError, match="dense"):
            build_training_set(g.edge_list, g, emb, seed=0)

    def test_empty_edges(self):
        g, emb = self._setup()
        with pytest.raises(ValueError):
            build_training_set([], g, emb)


class TestTrainLogistic:
    def test_separable_reaches_full_accuracy(self):
        X = np.array([[-1.0]] * 50 + [[1.0]] * 50)
        y = np.array([0.0] * 50 + [1.0] * 50)
        model = train_logistic(X, y, reg_lambda=0.0)
        preds = [predict_score(model, row) > 0.5 for row in X]
        assert np.mean(np.array(preds) == (y == 1)) == 1.0

    def test_zero_features_balanced_labels(self):
        X = np.zeros((40, 3))
        y = np.array([0.0, 1.0] * 20)
        model = train_logistic(X, y)
        assert np.array_equal(model.weights, np.zeros(3))
        assert predict_score(model, np.zeros(3)) == pytest.approx(0.5, abs=1e-9)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(20):
            X = rng.normal(size=(30, 8))
            y = (rng.random(30) > 0.5).astype(float)
            w = rng.normal(scale=0.5, size=8)
            b = float(rng.normal())
            reg = 10 ** rng.uniform(-5, -2)
            _, grad_w, grad_b = logistic_loss_and_grad(w, b, X, y, reg)
            for i in range(8):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                fd = (
                    logistic_loss_and_grad(wp, b, X, y, reg)[0]
                    - logistic_loss_and_grad(wm, b, X, y, reg)[0]
                ) / (2 * h)
                assert grad_w[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)
            fd_b = (
                logistic_loss_and_grad(w, b + h, X, y, reg)[0]
                - logistic_loss_and_grad(w, b - h, X, y, reg)[0]
            ) / (2 * h)
            assert grad_b == pytest.approx(fd_b, rel=1e-4, abs=1e-8)

    def test_loss_non_increasing_on_separable_set(self):
        X = np.array([[-1.0]] * 50 + [[1.0]] * 50)
        y = np.array([0.0] * 50 + [1.0] * 50)
        w = np.zeros(1)
        b = 0.0
        losses = []
        for _ in range(200):
            loss, gw, gb = logistic_loss_and_grad(w, b, X, y, 0.0)
            losses.append(loss)
            w -= 0.5 * gw
            b -= 0.5 * gb
        assert all(later <= earlier + 1e-12 for earlier, later in zip(losses, losses[1:]))

    def test_huge_regularization_kills_weights(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 4))
        y = (rng.random(60) > 0.5).astype(float)
        model = train_logistic(X, y, reg_lambda=1e6, lr=1e-7, epochs=2000)
        assert np.linalg.norm(model.weights) < 1e-3

    def test_non_finite_features(self):
        X = np.array([[1.0], [np.inf]])
        y = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            train_logistic(X, y)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            train_logistic(np.zeros((3, 2)), np.zeros(4))


class TestPredictScore:
    def test_zero_model(self):
        model = LogisticModel(weights=np.zeros(3), bias=0.0, reg_lambda=0.0)
        assert predict_score(model, np.array([5.0, -2.0, 1.0])) == 0.5

    def test_sigmoid_of_ten(self):
        model = LogisticModel(weights=np.array([10.0]), bias=0.0, reg_lambda=0.0)
        assert predict_score(model, np.array([1.0])) == pytest.approx(
            0.9999546021312976, rel=1e-12
        )

    def test_monotone_in_logit(self):
        model = LogisticModel(weights=np.array([2.0]), bias=0.3, reg_lambda=0.0)
        scores = [predict_score(model, np.array([x])) for x in np.linspace(-3, 3, 25)]
        assert all(b > a for a, b in zip(scores, scores[1:]))

    def test_extreme_logits_stay_in_unit_interval(self):
        model = LogisticModel(weights=np.array([1000.0]), bias=0.0, reg_lambda=0.0)
        assert 0.0 <= predict_score(model, np.array([-1000.0])) <= 1.0
        assert 0.0 <= predict_score(model, np.array([1000.0])) <= 1.0

    def test_dimension_mismatch(self):
        model = LogisticModel(weights=np.zeros(3), bias=0.0, reg_lambda=0.0)
        with pytest.raises(ValueError):
            predict_score(model, np.zeros(4))
