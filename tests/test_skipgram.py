import copy
from collections import Counter
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import dense_positions
from linkpred import skipgram
from linkpred.graph import Graph
from linkpred.skipgram import (
    LR_FINAL,
    LR_INITIAL,
    EmbeddingModel,
    TrainConfig,
    pair_stream,
    save_embedding,
    sgns_step,
    train,
)
from linkpred.walks import WalkParams, generate_corpus


class TestPairStream:
    def test_window_one(self):
        assert list(pair_stream([[0, 1, 2]], 1)) == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_window_exceeds_walk(self):
        pairs = list(pair_stream([[0, 1, 2]], 5))
        assert len(pairs) == 6
        assert set(pairs) == {(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)}

    def test_single_node_walk(self):
        assert list(pair_stream([[7]], 3)) == []

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            list(pair_stream([[0, 1]], 0))

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=12),
    )
    def test_count_formula(self, n, window):
        walk = list(range(n))
        expected = sum(
            min(i + window, n - 1) - max(i - window, 0) for i in range(n)
        )
        assert len(list(pair_stream([walk], window))) == expected


def _random_model(rng, n_nodes=6, dim=8, scale=0.3):
    return EmbeddingModel(
        input_vectors=rng.normal(scale=scale, size=(n_nodes, dim)),
        output_vectors=rng.normal(scale=scale, size=(n_nodes, dim)),
    )


class TestSgnsStep:
    def test_zero_state_loss_and_no_motion(self):
        negatives = [2, 3, 4]
        model = EmbeddingModel(
            input_vectors=np.zeros((5, 4)),
            output_vectors=np.zeros((5, 4)),
        )
        loss = sgns_step(model, 0, 1, negatives, lr=0.5)
        assert loss == pytest.approx((1 + len(negatives)) * math.log(2), rel=1e-12)
        assert np.all(model.input_vectors == 0)
        assert np.all(model.output_vectors == 0)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(0)
        h = 1e-5
        for _ in range(20):
            model = _random_model(rng)
            center, context = 0, 1
            negatives = list(rng.integers(0, 6, size=3))

            def loss_at(m):
                probe = copy.deepcopy(m)
                return sgns_step(probe, center, context, negatives, lr=0.0)

            # analytic gradient recovered from one unit-lr update
            updated = copy.deepcopy(model)
            sgns_step(updated, center, context, negatives, lr=1.0)
            grad_inp = model.input_vectors - updated.input_vectors
            grad_out = model.output_vectors - updated.output_vectors

            for table, grad in (("input_vectors", grad_inp), ("output_vectors", grad_out)):
                rows, cols = np.nonzero(np.abs(grad) > 0)
                for r, c in zip(rows, cols):
                    plus = copy.deepcopy(model)
                    getattr(plus, table)[r, c] += h
                    minus = copy.deepcopy(model)
                    getattr(minus, table)[r, c] -= h
                    fd = (loss_at(plus) - loss_at(minus)) / (2 * h)
                    assert grad[r, c] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_repeated_steps_decrease_loss(self):
        rng = np.random.default_rng(1)
        model = _random_model(rng)
        negatives = [3, 4]
        losses = [sgns_step(model, 0, 1, negatives, lr=0.05) for _ in range(60)]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_duplicate_negative_accumulates(self):
        # context node repeated as a negative must receive both updates
        rng = np.random.default_rng(2)
        model = _random_model(rng)
        twin = copy.deepcopy(model)
        sgns_step(model, 0, 1, [1, 2], lr=1.0)
        sgns_step(twin, 0, 1, [2, 1], lr=1.0)
        assert np.allclose(model.output_vectors, twin.output_vectors, atol=1e-12)


def _corpus(graph, length=15, walks_per_node=4, seed=0):
    params = WalkParams(length=length, walks_per_node=walks_per_node)
    return generate_corpus(graph, params, seed)


def _replay_train(corpus, config):
    """train() spelled out as sgns_step calls: the same rows (corpus entries),
    init draw, per-epoch permutation, unigram^0.75 negatives and lr decay."""
    counts = Counter(row for walk in corpus for row in walk)
    n_rows = max(counts) + 1
    pairs = list(pair_stream(corpus, config.window))
    rng = np.random.default_rng(config.seed)
    model = EmbeddingModel(
        input_vectors=(rng.random((n_rows, config.dim)) - 0.5) / config.dim,
        output_vectors=np.zeros((n_rows, config.dim)),
    )
    noise = np.array([counts[row] for row in range(n_rows)], dtype=float) ** 0.75
    noise /= noise.sum()
    n_steps = config.epochs * len(pairs)
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(pairs))
        negatives = rng.choice(n_rows, size=(len(pairs), config.negatives), p=noise)
        for t, i in enumerate(order):
            lr = LR_INITIAL + (LR_FINAL - LR_INITIAL) * (
                step / max(n_steps - 1, 1)
            )
            center, context = pairs[i]
            sgns_step(model, center, context, negatives[t], lr)
            step += 1
    return model


class TestTrain:
    # Windows as long as the walk or longer clip at both ends of every walk.
    @pytest.mark.parametrize("length, window", [(8, 2), (1, 3), (5, 9)])
    def test_replays_as_sgns_steps(self, g1, length, window):
        corpus = _corpus(g1, length=length, walks_per_node=3, seed=9)
        config = TrainConfig(dim=6, window=window, epochs=3, negatives=3, seed=13)
        model = train(corpus, config)
        replay = _replay_train(corpus, config)
        assert np.array_equal(model.input_vectors, replay.input_vectors)
        assert np.array_equal(model.output_vectors, replay.output_vectors)

    def test_shapes_and_finiteness(self, g1):
        corpus = _corpus(g1)
        model = train(corpus, TrainConfig(dim=16, window=3, epochs=2))
        assert model.input_vectors.shape == (5, 16)
        assert model.output_vectors.shape == (5, 16)
        assert np.all(np.isfinite(model.input_vectors))
        assert np.all(np.isfinite(model.output_vectors))

    def test_deterministic(self, g1):
        corpus = _corpus(g1)
        config = TrainConfig(dim=8, window=3, epochs=3, seed=11)
        a = train(corpus, config)
        b = train(corpus, config)
        assert np.array_equal(a.input_vectors, b.input_vectors)
        assert np.array_equal(a.output_vectors, b.output_vectors)
        assert a.epoch_losses == b.epoch_losses

    def test_loss_decreases_over_epochs(self, g1):
        corpus = _corpus(g1, length=20, walks_per_node=8)
        model = train(corpus, TrainConfig(dim=16, window=4, epochs=6, seed=2))
        assert model.epoch_losses[-1] < model.epoch_losses[0]

    def test_norms_bounded(self, g1):
        corpus = _corpus(g1, length=30, walks_per_node=10)
        model = train(corpus, TrainConfig(dim=32, window=5, epochs=10, seed=3))
        norms = np.linalg.norm(model.input_vectors, axis=1)
        assert norms.max() < 1e3

    def test_divergence_raises_instead_of_returning_non_finite_vectors(self, g1, monkeypatch):
        # A huge learning rate drives both tables past the float64 range.
        monkeypatch.setattr(skipgram, "LR_INITIAL", 1e300)
        with pytest.raises(ValueError, match="non-finite vectors after epoch 1"):
            train(_corpus(g1), TrainConfig(dim=8, window=3, epochs=3))

    def test_empty_corpus(self):
        for corpus in ([], np.empty((0, 5), np.int64)):
            with pytest.raises(ValueError, match="no context pairs"):
                train(corpus, TrainConfig(dim=4))

    def test_homophily_on_two_cliques(self):
        # two 15-cliques joined by one edge: intra-block similarity must win
        pairs = []
        for base in (0, 15):
            for i in range(15):
                for j in range(i + 1, 15):
                    pairs.append((base + i, base + j))
        pairs.append((0, 15))
        g = Graph(pairs)
        corpus = _corpus(g, length=20, walks_per_node=5, seed=4)
        model = train(corpus, TrainConfig())
        index = dense_positions(g)
        vectors = model.input_vectors[[index[node] for node in range(30)]]
        unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        cosine = unit @ unit.T
        block = np.array([0] * 15 + [1] * 15)
        same = block[:, None] == block[None, :]
        off_diag = ~np.eye(30, dtype=bool)
        intra = cosine[same & off_diag].mean()
        inter = cosine[~same].mean()
        assert intra > inter


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dim=0),
            dict(window=0),
            dict(epochs=0),
            dict(negatives=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestSaveLoad:
    def test_exact_text_format(self, tmp_path):
        model = EmbeddingModel(
            input_vectors=np.array([[1.0, 0.0], [0.0, 1.0]]),
            output_vectors=np.zeros((2, 2)),
        )
        path = tmp_path / "emb.txt"
        save_embedding(model, [7, 3], path)
        assert path.read_bytes() == b"2 2\n7 1.0 0.0\n3 0.0 1.0\n"
        with pytest.raises(ValueError):
            save_embedding(model, [7, 3, 5], path)

    def test_round_trip_exact(self, g1, tmp_path):
        corpus = _corpus(g1)
        model = train(corpus, TrainConfig(dim=12, window=3, epochs=2, seed=5))
        path = tmp_path / "emb.txt"
        save_embedding(model, g1.nodes, path)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        assert header == f"{g1.num_nodes} 12"
        nodes = [int(row.split()[0]) for row in rows]
        assert nodes == g1.nodes.tolist()
        vectors = np.array([[float(x) for x in row.split()[1:]] for row in rows])
        assert np.array_equal(vectors, model.input_vectors)
