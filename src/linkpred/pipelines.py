"""Scorer factories wiring the index, RWR, and embedding pipelines into the harness."""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from . import indices, predictor, rwr, skipgram, walks
from .evaluate import Scorer, ScorerFactory, derive_seed


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
        model = rwr.build_rwr(g_train, c)
        M = model.resolvent

        def score(g, u, v):
            return rwr.rwr_score(model, u, v)

        return Scorer(tag, score, lambda i, j: M[i, j] + M[j, i])

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
    selection through independent derived streams.
    """
    if tag is None:
        tag = f"embed_d={train_config.dim}"

    def build(g_train, seed):
        corpus = walks.generate_corpus(g_train, walk_params, derive_seed(seed, "walks"))
        config = replace(train_config, seed=derive_seed(seed, "sgns"))
        embedding = skipgram.train(corpus, config)
        features, labels = predictor.build_training_set(
            g_train.edge_list, g_train, embedding, operator,
            seed=derive_seed(seed, "negatives"),
        )
        classifier = predictor.train_logistic(
            features, labels, reg_lambda, classifier_lr, classifier_epochs
        )

        def score(g, u, v):
            return predictor.predict_score(
                classifier, predictor.edge_features(embedding, u, v, operator)
            )

        return Scorer(tag, score)

    return ScorerFactory(tag, build)
