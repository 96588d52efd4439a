"""Scorer factories wiring the index, RWR, and embedding pipelines into the harness."""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from . import indices, predictor, rwr, skipgram, walks
from .evaluate import PairsFn, Scorer, ScorerFactory, ScoreFn, derive_seed


def _one_pair(g_train, pairs: PairsFn) -> ScoreFn:
    """Per-pair form of a batch scorer: ``pairs`` applied to one pair of node ids."""
    index = g_train.dense_index

    def score(g, u, v):
        return float(pairs(np.array([index[u]]), np.array([index[v]]))[0])

    return score


def local_index_factory(kind: str) -> ScorerFactory:
    """Factory for one of the closed-form neighborhood indices (stateless)."""
    if kind not in indices.LOCAL_INDICES:
        raise ValueError(
            f"unknown index {kind!r}; choose from {sorted(indices.LOCAL_INDICES)}"
        )
    score = indices.LOCAL_INDICES[kind]
    batch = indices.BATCH_INDICES[kind]

    def build(g_train, seed):
        return Scorer(kind, score, partial(batch, g_train))

    return ScorerFactory(kind, build)


def rwr_factory(c: float, tag: str | None = None) -> ScorerFactory:
    """Factory that solves the restart-walk resolvent on each training graph."""
    tag = tag if tag is not None else f"rwr_c={c:g}"

    def build(g_train, seed):
        M = rwr.build_rwr(g_train, c)

        def pairs(rows, cols):
            # Gathered from M, not from a stored M + M.T: the extra n x n
            # array per level slowed a usair_like trial by about a tenth.
            return M[rows, cols] + M[cols, rows]

        return Scorer(tag, _one_pair(g_train, pairs), pairs)

    return ScorerFactory(tag, build)


def embedding_factory(
    walk_params: walks.WalkParams,
    train_config: skipgram.TrainConfig,
    operator: str = "hadamard",
    reg_lambda: float = 1e-4,
    classifier_lr: float = 0.1,
    classifier_epochs: int = 500,
    tag: str | None = None,
) -> ScorerFactory:
    """Full embedding pipeline: walks -> SGNS -> logistic classifier.

    Rebuilt per training graph (and hence per partition); the factory seed
    drives walk generation, SGNS initialization/sampling, and negative-pair
    selection through independent derived streams. The classifier settings
    are checked here, before any graph is walked.
    """
    predictor.check_classifier_settings(reg_lambda, classifier_lr, classifier_epochs)
    if tag is None:
        tag = f"embed_d={train_config.dim}"

    def build(g_train, seed):
        corpus = walks.generate_corpus(g_train, walk_params, derive_seed(seed, "walks"))
        config = replace(train_config, seed=derive_seed(seed, "sgns"))
        embedding = skipgram.train(corpus, config)
        vectors = embedding.input_vectors[[embedding.vocab[u] for u in g_train.node_list]]
        features, labels = predictor.build_training_set(
            g_train, vectors, operator, seed=derive_seed(seed, "negatives")
        )
        classifier = predictor.train_logistic(
            features, labels, reg_lambda, classifier_lr, classifier_epochs
        )

        def pairs(rows, cols):
            return predictor.predict(
                classifier, predictor.edge_features(vectors, rows, cols, operator)
            )

        return Scorer(tag, _one_pair(g_train, pairs), pairs)

    return ScorerFactory(tag, build)
