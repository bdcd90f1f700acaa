import pickle

import repro.core.batched as batched_module
import repro.core.pipeline as pipeline_module
from repro.core.batched import BatchedBriefingPipeline
from repro.obs import Tracer

from briefbench import layers
from briefbench.model import brief_key, build_model_bytes
from briefbench.streams import build_stream


def _patched_targets(model):
    return [
        (pipeline_module, "parse_html"),
        (batched_module, "document_from_raw_html"),
        (type(model.encoder), "encode_batch"),
        (type(model.extractor), "hidden_batch"),
        (type(model.generator), "encode_batch"),
        (type(model.generator), "generate_batch"),
        (type(model.generator), "greedy_hidden_batch"),
        (type(model), "predict_batch"),
        (BatchedBriefingPipeline, "brief_many"),
    ]


def test_probe_times_every_layer_and_restores_the_program():
    model = pickle.loads(build_model_bytes())
    targets = _patched_targets(model)
    before = [(owner, name, name in vars(owner), vars(owner).get(name)) for owner, name in targets]
    pages = build_stream("crawl_batch", seed=1, scale=0.02).requests[:8]

    plain = BatchedBriefingPipeline(model, beam_size=4).brief_many(pages)
    with layers.LayerProbe(model):
        pipeline = BatchedBriefingPipeline(model, beam_size=4, tracer=Tracer())
        probed = pipeline.brief_many(pages)

    assert [brief_key(b) for b in probed] == [brief_key(b) for b in plain]
    after = [(owner, name, name in vars(owner), vars(owner).get(name)) for owner, name in targets]
    assert after == before
    spans = layers.layer_spans(pipeline.tracer.spans)
    assert len(spans) == 1
    assert spans[0].attributes["doc_ids"] == [doc_id for doc_id, _ in pages]
    totals = layers.sum_layers(spans)
    assert totals["predicted_docs"] == len(pages)
    assert totals["decoded_docs"] == len(pages)
    parts = layers.layer_parts_s(totals)
    assert all(value > 0 for value in parts.values())
    assert sum(parts.values()) <= spans[0].duration
