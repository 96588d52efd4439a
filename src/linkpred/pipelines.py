"""Scorer factories wiring the index, RWR, and embedding pipelines into the harness."""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from . import indices, predictor, rwr, skipgram, walks
from .evaluate import PairsFn, Scorer, ScorerFactory, ScoreFn, derive_seed


def _one_pair(g_train, pairs: PairsFn) -> ScoreFn:
    """Per-pair form of a batch scorer; reads ``dense_index`` per call, not per build."""

    def score(g, u, v):
        index = g_train.dense_index
        return float(pairs(np.array([index[u]]), np.array([index[v]]))[0])

    return score


def local_index_factory(kind: str) -> ScorerFactory:
    """Factory for one of the closed-form neighborhood indices (stateless)."""
    if kind not in indices.LOCAL_INDICES:
        raise ValueError(
            f"unknown index {kind!r}; choose from {sorted(indices.LOCAL_INDICES)}"
        )
    index = indices.LOCAL_INDICES[kind]

    def build(g_train, seed):
        pairs = partial(index, g_train)
        return Scorer(kind, _one_pair(g_train, pairs), pairs)

    return ScorerFactory(kind, build)


def rwr_factory(c: float) -> ScorerFactory:
    """Factory that scores pairs from the RWR resolvent of each training graph
    (rwr.build_rwr). c is checked here, before any graph is read."""
    rwr.check_restart(c)
    tag = f"rwr_c={c:.15g}"

    def build(g_train, seed):
        X, pos = rwr.build_rwr(g_train, c)
        s = np.sqrt(g_train.degrees)
        a = (1.0 - c) * s

        def pairs(rows, cols):
            # M[i, j] + M[j, i] of M = (1 - c) D^1/2 X D^-1/2 at i, j = rows, cols
            # (held in X at r, q), each read entry scaled as a full scaling
            # would; the terms swap under i <-> j.
            r, q = pos[rows], pos[cols]
            return X[r, q] * a[rows] / s[cols] + X[q, r] * a[cols] / s[rows]

        return Scorer(tag, _one_pair(g_train, pairs), pairs)

    return ScorerFactory(tag, build)


def embedding_factory(
    walk_params: walks.WalkParams,
    train_config: skipgram.TrainConfig,
    operator: str = "hadamard",
    reg_lambda: float = 1e-4,
    classifier_epochs: int = 500,
    *,
    tag: str,
) -> ScorerFactory:
    """Full embedding pipeline: walks -> SGNS -> logistic classifier.

    Rebuilt per training graph (and hence per partition); the factory seed
    drives walk generation, SGNS initialization/sampling, and negative-pair
    selection through independent derived streams. The classifier is fit to
    its optimum at reg_lambda; ``classifier_epochs`` caps its Newton steps.
    Both are checked here, before any graph is walked.
    """
    predictor.check_classifier_settings(reg_lambda, classifier_epochs)

    def build(g_train, seed):
        corpus = walks.generate_corpus(g_train, walk_params, derive_seed(seed, "walks"))
        config = replace(train_config, seed=derive_seed(seed, "sgns"))
        vectors = skipgram.train(corpus, config).input_vectors
        features, labels = predictor.build_training_set(
            g_train, vectors, operator, seed=derive_seed(seed, "negatives")
        )
        classifier = predictor.train_logistic(features, labels, reg_lambda, classifier_epochs)

        def pairs(rows, cols):
            return predictor.predict_pairs(classifier, vectors, rows, cols, operator)

        return Scorer(tag, _one_pair(g_train, pairs), pairs)

    return ScorerFactory(tag, build)
