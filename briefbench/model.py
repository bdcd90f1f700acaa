"""The benchmark's model and the reference briefs it is checked against.

The model is an untrained Joint-WB in the shape of
``repro.experiments.config.small()`` (MiniBert dim 32, one layer, two heads,
LSTM hidden 20; beam 4), built from public constructors with a fixed seed
that does not depend on ``--seed``, and held as pickled bytes so that every
set-up pays the restore.  MiniBert's position table is sized to 512 rather
than ``small()``'s ``max_tokens + 64``: serving does not truncate pages, and
a longer page must not fail the encoder.

Swapping in another model (e.g. a trained fixture) changes every figure the
benchmark reports, so it counts as a benchmark change with a re-baseline.
"""

from __future__ import annotations

import multiprocessing
import pickle
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import nn
from repro.core.pipeline import BriefingPipeline, document_from_raw_html
from repro.data import Vocabulary, build_jasmine_corpus
from repro.experiments.config import small
from repro.models import BertSumEncoder, make_joint_model

from .measure import process_start_method

MODEL_SEED = 0
MAX_LEN = 512
#: Seconds the reference pass may take before the run is declared broken.
REFERENCE_TIMEOUT_S = 120

#: What a brief is checked on: (topic, attributes, informative sentences).
BriefKey = Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[int, ...]]


def build_model_bytes() -> bytes:
    """Pickled untrained Joint-WB of the ``small()`` shape (deterministic)."""
    scale = small()
    corpus = build_jasmine_corpus(
        num_topics=scale.num_seen_topics + scale.num_unseen_topics,
        pages_per_site=scale.pages_per_site,
        seed=MODEL_SEED,
    )
    vocabulary = Vocabulary.from_corpus(corpus)
    rng = np.random.default_rng(MODEL_SEED)
    bert = nn.MiniBert(
        vocab_size=len(vocabulary),
        dim=scale.bert_dim,
        num_layers=scale.bert_layers,
        num_heads=scale.bert_heads,
        rng=rng,
        max_len=MAX_LEN,
    )
    model = make_joint_model(
        "Joint-WB", BertSumEncoder(vocabulary, bert), vocabulary, hidden_dim=scale.hidden_dim, rng=rng
    )
    return pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)


def brief_key(brief) -> BriefKey:
    return (tuple(brief.topic), tuple(brief.attributes), tuple(brief.informative_sentences))


_reference_pipeline = None


def _init_reference(model_bytes: bytes, beam_size: int) -> None:
    global _reference_pipeline
    _reference_pipeline = BriefingPipeline(pickle.loads(model_bytes), beam_size=beam_size)


def _reference_one(html: str) -> Tuple[BriefKey, int]:
    """Reference brief of one page plus its token count."""
    brief = _reference_pipeline.brief_html(html)
    tokens = document_from_raw_html(html).num_tokens if brief.complete else 0
    return brief_key(brief), tokens


def reference_briefs(
    model_bytes: bytes, pages: Sequence[str], beam_size: int, processes: int
) -> Tuple[Dict[str, BriefKey], List[int]]:
    """``BriefingPipeline.brief_html`` output for every page, and token counts.

    Runs before any timing, over ``processes`` forked workers (the
    sequential pipeline re-encodes each page per task head, so it is several
    times slower than the batched path it checks).  The pool is forked, not
    spawned: a spawned pool starts multiprocessing's resource tracker, a
    process that outlives the run.
    """
    context = multiprocessing.get_context(process_start_method())
    with context.Pool(processes, initializer=_init_reference, initargs=(model_bytes, beam_size)) as pool:
        # A worker that dies leaves ``map`` waiting forever; the timeout turns
        # that into an error, and leaving the ``with`` block terminates the pool.
        results = pool.map_async(_reference_one, pages, chunksize=16).get(timeout=REFERENCE_TIMEOUT_S)
        pool.close()
        pool.join()
    return {html: key for html, (key, _) in zip(pages, results)}, [tokens for _, tokens in results]
