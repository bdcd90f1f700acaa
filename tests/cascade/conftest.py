"""Fixtures for the cascade suite: trained teacher, under-distilled student.

The pair is deliberately asymmetric: the teacher is briefly *trained* (its
answers score well on the panel) while the student is distilled for one
epoch over half the training split — good on familiar pages, bad
off-manifold.  That quality spread is what gives the confidence signal
something real to separate, so the calibration curve has shape instead of
being a flat line.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    TrainConfig,
    Trainer,
    calibrate_threshold,
    synthesize_serving_corpus,
)
from repro.core.cascade import CascadeModel, ConfidenceEstimator
from repro.distill import DistillConfig, TopicPhraseBank, TriDistiller
from repro.models import BertSumEncoder, make_joint_model

#: escalation threshold at which the fixture cascade genuinely mixes tiers
#: (~46% of corpus documents and ~38% of the serving stream escalate).
MIXED_THRESHOLD = 0.15


def _make_model(vocab, dim, hidden, seed):
    rng = np.random.default_rng(seed)
    bert = nn.MiniBert(
        vocab_size=len(vocab), dim=dim, num_layers=1, num_heads=2, rng=rng, max_len=256
    )
    return make_joint_model("Joint-WB", BertSumEncoder(vocab, bert), vocab, hidden, rng)


@pytest.fixture(scope="session")
def cascade_teacher(small_corpus, small_vocab):
    """A briefly trained teacher — the cascade's quality ceiling."""
    teacher = _make_model(small_vocab, 16, 8, 1)
    split = small_corpus.random_split(np.random.default_rng(13))
    Trainer(
        teacher, TrainConfig(epochs=3, learning_rate=5e-3, batch_size=2, seed=13)
    ).train(split.train)
    return teacher


@pytest.fixture(scope="session")
def distilled(cascade_teacher, small_corpus, small_vocab):
    """``(student, R)``: a compact student under-distilled from the teacher."""
    student = _make_model(small_vocab, 12, 6, 2)
    bank = TopicPhraseBank(embedding_dim=6, bank_dim=5, rng=np.random.default_rng(4))
    matrix = bank.build(
        list(small_corpus.topic_phrases.values()),
        student.generator.embedding.weight.data,
        small_vocab,
    )
    split = small_corpus.random_split(np.random.default_rng(13))
    TriDistiller(
        cascade_teacher, student, bank, DistillConfig(epochs=1, learning_rate=5e-3, seed=0)
    ).train(split.train[:12], epochs=1)
    return student, matrix


@pytest.fixture(scope="session")
def estimator(distilled):
    student, matrix = distilled
    return ConfidenceEstimator(
        query_dim=2 * student.hidden_dim, bank_matrix=matrix, seed=7
    )


@pytest.fixture(scope="session")
def make_cascade(cascade_teacher, distilled, estimator):
    """Factory for fresh :class:`CascadeModel` instances over shared tiers.

    Tests that move the threshold or the escalation budget get their own
    model object, so the session-scoped tiers are never mutated.
    """
    student, _ = distilled

    def factory(threshold=MIXED_THRESHOLD, escalation_budget_ms=0.0):
        return CascadeModel(
            student,
            cascade_teacher,
            estimator,
            threshold=threshold,
            escalation_budget_ms=escalation_budget_ms,
        )

    return factory


@pytest.fixture(scope="session")
def calibration(make_cascade, small_corpus):
    """One offline calibration sweep over the labelled corpus documents."""
    return calibrate_threshold(
        make_cascade(), small_corpus.documents, seed=0, beam_size=2
    )


@pytest.fixture(scope="session")
def cascade_pages():
    """The serving request stream (with duplicate content for the caches)."""
    return synthesize_serving_corpus(32, seed=11)


@pytest.fixture()
def regen_golden(request):
    return request.config.getoption("--regen-golden")
