import json
import os
import types

import pytest

from briefbench import layers, measure
from briefbench.streams import WORKLOADS
from briefbench.workloads import Pass, latency_figures, serving_layers

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_samples_beyond_percentile():
    assert measure.samples_beyond(1000, 99) == 10
    assert measure.samples_beyond(999, 99) == 9
    assert measure.samples_beyond(200, 50) == 100


def test_timing_summary_reports_count_and_support():
    summary = measure.timing_summary([0.001 * i for i in range(1, 1001)])
    assert summary["samples"] == 1000
    assert summary["beyond_p99"] == 10
    assert summary["beyond_p90"] == 100
    assert summary["p90_ms"] == pytest.approx(900.1)
    assert summary["p99_supported"]
    assert summary["p50_ms"] == pytest.approx(500.5)
    assert not measure.timing_summary([0.001] * 999)["p99_supported"]


def test_open_loop_puts_ten_samples_beyond_each_percentile():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        seconds = json.load(handle)["run_seconds"]
    spec = WORKLOADS["serve_cold"]
    rounds = max(1, round(seconds * spec.rate / spec.per_pass))
    # p90 is taken per round; the reported p99 pools every round.
    assert measure.samples_beyond(spec.per_pass, 90) >= 10
    assert measure.samples_beyond(rounds * spec.per_pass, 99) >= 10


def test_open_loop_latency_is_the_lower_quartile_over_rounds():
    rounds = []
    for offset in (0.5, 0.001, 0.0):  # the first round is disturbed
        one = Pass(mode="plain", requests=[])
        one.latencies = [offset + 0.001 * i for i in range(1, 101)]
        rounds.append(one)
    figures = latency_figures(types.SimpleNamespace(open_loop=True), rounds)
    assert figures["latency_p50_ms"]["value"] == pytest.approx(50.5)
    assert figures["latency_p90_ms"]["value"] == pytest.approx(90.1)
    assert figures["latency_p90_ms"]["samples"] == 300
    assert figures["latency_p90_ms"]["beyond"] == 10
    pooled = latency_figures(types.SimpleNamespace(open_loop=False), rounds)
    assert pooled["latency_p90_ms"]["samples"] == 300
    assert pooled["latency_p90_ms"]["value"] > 400.0


def test_better_quartile_takes_the_better_side():
    rates = [100.0, 150.0, 160.0, 170.0, 180.0, 190.0, 200.0]
    assert measure.better_quartile(rates, higher_is_better=True) == 190.0
    assert measure.better_quartile(rates, higher_is_better=False) == 150.0
    assert measure.better_quartile([3.0], higher_is_better=True) == 3.0


def test_unattributed_is_wall_minus_parts_per_doc():
    assert measure.unattributed_ms_per_doc(100.0, {"a": 30.0, "b": 50.0}, 4) == pytest.approx(5.0)
    assert measure.unattributed_ms_per_doc(10.0, {}, 2) == pytest.approx(5.0)


def test_layer_parts_are_disjoint():
    totals = {"prepare_s": 3.0, "parse_s": 1.0, "encode_s": 4.0, "decode_s": 2.0, "predict_s": 7.0}
    parts = layers.layer_parts_s(totals)
    assert parts == {"parse": 1.0, "render": 2.0, "encode": 4.0, "decode": 2.0, "heads": 1.0}
    assert sum(parts.values()) == totals["prepare_s"] + totals["predict_s"]


def _span(name, start, duration, **attributes):
    return types.SimpleNamespace(name=name, start=start, duration=duration, attributes=attributes)


def test_serving_path_arithmetic():
    # "a" is a front-door hit; "b" is admitted, queued, briefed and returned.
    requests = [("a", "<p>a</p>"), ("b", "<p>b</p>")]
    one = Pass(mode="probed", requests=requests)
    one.lateness = [0.001, 0.002]
    one.submit_s = [0.0005, 0.001]
    one.latencies = [0.002, 0.100]
    one.resolved = [10.002, 10.102]
    batch = {"prepare_s": 0.010, "parse_s": 0.004, "encode_s": 0.030, "decode_s": 0.020, "predict_s": 0.060}
    one.spans = [
        _span("admission", 10.0, 0.0005, doc_id="a", outcome="cache_hit"),
        _span("admission", 10.002, 0.001, doc_id="b", outcome="admitted"),
        _span("serve", 10.012, 0.08, doc_id="b"),
        _span(layers.SPAN_NAME, 10.013, 0.075, doc_ids=["b"], **batch),
    ]
    figures = serving_layers([one])
    assert figures["front_hit_ratio"] == 0.5
    assert figures["queue_wait_ms_p50"] == pytest.approx(10.0)
    assert figures["return_ms_p50"] == pytest.approx(14.0)
    hit_unexplained = 0.002 - 0.001 - 0.0005
    miss_unexplained = 0.100 - (0.002 + 0.001 + 0.010 + 0.070 + 0.014)
    assert figures["unattributed_ms_per_doc"] == pytest.approx(
        (hit_unexplained + miss_unexplained) * 1000.0 / 2
    )


def test_environment_block_has_the_required_fields():
    env = measure.environment()
    for key in ("nproc", "blas", "blas_threads", "python", "numpy", "start_method"):
        assert key in env
    assert env["nproc"] >= 1
