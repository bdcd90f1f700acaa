"""Per-layer timing for the traced run, taken from outside the program.

:class:`LayerProbe` wraps the public entry points of each layer at class or
module level for the duration of a traced pass:

* ``repro.html``: ``parse_html`` and ``document_from_raw_html`` (as the
  batched pipeline looks them up); *render* is the rest of
  ``document_from_raw_html`` after parsing, i.e. ``render_page`` plus
  tokenisation, the same interval as the program's own ``render`` span;
* ``repro.models``: ``encoder.encode_batch``, ``extractor.hidden_batch`` and
  ``generator.encode_batch`` (*encode*), ``generator.generate_batch`` and
  ``generator.greedy_hidden_batch`` (*decode*), and ``predict_batch``, whose
  remainder after encode and decode is *heads* (section head, exchange
  updates, extractor tail);
* ``repro.core.batched``: ``BatchedBriefingPipeline.brief_many``.

The ``brief_many`` wrapper sums what the inner wrappers measured during that
call and records it as one ``bench.layers`` span on the pipeline's own
tracer, tagged with the batch's doc ids.  So the figures travel the way the
program's spans do: read straight off the tracer in-process, and shipped
back through ``trace_spans()`` from process workers, which inherit the
wrappers when they are forked while the probe is installed.  The probe adds
no code to the program; the spans it records are the benchmark's own.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Tuple

import repro.core.batched as batched_module
import repro.core.pipeline as pipeline_module
from repro.core.batched import BatchedBriefingPipeline

#: Name of the span the probe records per ``brief_many`` call.
SPAN_NAME = "bench.layers"

#: Time keys summed per call (seconds) and count keys.
TIME_KEYS = ("prepare_s", "parse_s", "encode_s", "decode_s", "predict_s")
COUNT_KEYS = ("predict_calls", "predicted_docs", "token_slots", "padded_slots", "topic_tokens", "decoded_docs")


class LayerProbe:
    """Installs timing wrappers on the layers of ``model``'s classes."""

    def __init__(self, model) -> None:
        self._model_types = {
            "model": type(model),
            "encoder": type(model.encoder),
            "extractor": type(model.extractor),
            "generator": type(model.generator),
        }
        self._local = threading.local()
        self._saved: List[Tuple[object, str, bool, object]] = []

    # -- accumulation --------------------------------------------------
    def _totals(self) -> Dict[str, float]:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = self._local.totals = dict.fromkeys(TIME_KEYS + COUNT_KEYS, 0.0)
        return totals

    def _timed(self, function: Callable, key: str, count: Callable | None = None) -> Callable:
        probe = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                probe._totals()[key] += elapsed
            if count is not None:
                count(probe._totals(), args, result)
            return result

        return wrapper

    # -- install / remove ----------------------------------------------
    def _patch(self, owner, name: str, replacement: Callable) -> None:
        owned = name in vars(owner)
        self._saved.append((owner, name, owned, vars(owner).get(name)))
        setattr(owner, name, replacement)

    def install(self) -> "LayerProbe":
        types = self._model_types
        self._patch(
            pipeline_module, "parse_html", self._timed(pipeline_module.parse_html, "parse_s")
        )
        self._patch(
            batched_module,
            "document_from_raw_html",
            self._timed(batched_module.document_from_raw_html, "prepare_s"),
        )
        self._patch(
            types["encoder"],
            "encode_batch",
            self._timed(types["encoder"].encode_batch, "encode_s", _count_padding),
        )
        self._patch(
            types["extractor"], "hidden_batch", self._timed(types["extractor"].hidden_batch, "encode_s")
        )
        generator = types["generator"]
        self._patch(generator, "encode_batch", self._timed(generator.encode_batch, "encode_s"))
        self._patch(
            generator, "generate_batch", self._timed(generator.generate_batch, "decode_s", _count_topics)
        )
        self._patch(
            generator, "greedy_hidden_batch", self._timed(generator.greedy_hidden_batch, "decode_s")
        )
        self._patch(
            types["model"],
            "predict_batch",
            self._timed(types["model"].predict_batch, "predict_s", _count_predict),
        )
        self._patch(BatchedBriefingPipeline, "brief_many", self._brief_many(BatchedBriefingPipeline.brief_many))
        return self

    def remove(self) -> None:
        for owner, name, owned, original in reversed(self._saved):
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._saved.clear()

    def __enter__(self) -> "LayerProbe":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.remove()
        return False

    def _brief_many(self, function: Callable) -> Callable:
        probe = self

        @functools.wraps(function)
        def brief_many(pipeline, pages, *args, **kwargs):
            pages = list(pages)
            probe._local.totals = None
            hits, misses = pipeline.stats.cache_hits, pipeline.stats.cache_misses
            span = pipeline.tracer.open(SPAN_NAME)
            try:
                return function(pipeline, pages, *args, **kwargs)
            finally:
                totals = probe._totals()
                span.set_attribute("doc_ids", [page if isinstance(page, str) else page[0] for page in pages])
                span.set_attribute("cache_hits", pipeline.stats.cache_hits - hits)
                span.set_attribute("cache_misses", pipeline.stats.cache_misses - misses)
                for key, value in totals.items():
                    span.set_attribute(key, value)
                span.finish()

        return brief_many


def _count_padding(totals: Dict[str, float], args, result) -> None:
    lengths = [document.num_tokens for document in args[1]]
    if lengths:
        slots = len(lengths) * max(lengths)
        totals["token_slots"] += slots
        totals["padded_slots"] += slots - sum(lengths)


def _count_topics(totals: Dict[str, float], args, result) -> None:
    totals["topic_tokens"] += sum(len(topic) for topic in result)
    totals["decoded_docs"] += len(result)


def _count_predict(totals: Dict[str, float], args, result) -> None:
    totals["predict_calls"] += 1
    totals["predicted_docs"] += len(result)


def layer_spans(spans) -> List[object]:
    return [span for span in spans if span.name == SPAN_NAME]


def sum_layers(spans) -> Dict[str, float]:
    """Totals over ``bench.layers`` spans: seconds per layer and counts."""
    totals = dict.fromkeys(TIME_KEYS + COUNT_KEYS + ("cache_hits", "cache_misses", "calls", "pages"), 0.0)
    for span in layer_spans(spans):
        for key in TIME_KEYS + COUNT_KEYS + ("cache_hits", "cache_misses"):
            totals[key] += span.attributes.get(key, 0.0)
        totals["calls"] += 1
        totals["pages"] += len(span.attributes.get("doc_ids", ()))
    return totals


def span_totals(span) -> Dict[str, float]:
    """The layer seconds one ``bench.layers`` span carries."""
    return {key: span.attributes.get(key, 0.0) for key in TIME_KEYS}


def layer_parts_s(totals: Dict[str, float]) -> Dict[str, float]:
    """Disjoint per-layer seconds: parse, render, encode, decode, heads."""
    return {
        "parse": totals["parse_s"],
        "render": totals["prepare_s"] - totals["parse_s"],
        "encode": totals["encode_s"],
        "decode": totals["decode_s"],
        "heads": totals["predict_s"] - totals["encode_s"] - totals["decode_s"],
    }
