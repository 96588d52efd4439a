"""Scorer factories wiring the index, RWR, and embedding pipelines into the harness;
each builds its ``Scorer`` from the batch form ``pairs`` alone."""

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
    index = indices.LOCAL_INDICES[kind]

    def build(g_train, seed):
        return Scorer(kind, pairs=partial(index, g_train))

    return ScorerFactory(kind, build)


def rwr_factory(c: float) -> ScorerFactory:
    """Factory that scores pairs from the RWR resolvent of each training graph
    (rwr.pair_scores). c is checked here, before any graph is read."""
    rwr.check_restart(c)
    tag = f"rwr_c={c:.15g}"

    def build(g_train, seed):
        return Scorer(tag, pairs=rwr.pair_scores(g_train, c))

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
        return Scorer(tag, pairs=partial(predictor.predict_pairs, classifier, vectors,
                                         operator=operator))

    return ScorerFactory(tag, build)
