"""The workloads, each driven by one thread, and the figures they report.

* ``crawl_batch`` — a closed loop of ``brief_many`` calls in chunks of 8
  over 500 unique pages; a fresh pipeline (and so empty caches) per pass.
* ``serve_cold`` — an open loop at a fixed 40 req/s through the process
  transport with one worker per CPU; each round sends 250 of 500 unique
  pages to a fresh server (and so empty caches).

Each pass (closed loop) or round (open loop) starts from a fresh set-up:
the model is restored from its pickled bytes, the pipeline or server is
built, and one warm-up page outside the workload is briefed.  A fresh server
then briefs a few more such pages, untimed, so that every worker process has
served once before the round starts.  ``setup_s`` is the median of the
set-ups made, and torn down again, before every pass or round: spread over
the whole run like the passes, they meet the same changes in the host's
speed, where a block of set-ups in one second would catch only one.

``docs_per_s`` is the upper quartile over passes or rounds of each one's
rate, and the open loop's latency percentiles are the lower quartile over
rounds of each round's percentile (:func:`measure.better_quartile`).  On a
shared machine other tenants take CPU time from the virtual CPUs now and
then, for seconds or minutes, and every request queued behind a stalled
worker waits; that only ever makes a pass slower, so the least-disturbed
passes of a run are the ones that repeat from run to run.  The closed loop
pools the latencies of its ``brief_many`` calls.  p99 is printed in the
report with its sample count but is not a bounded metric: on a shared
machine too few samples lie beyond it for it to repeat from run to run.

Before each pass the benchmark collects its garbage and freezes its own
heap (``gc.freeze``): its inputs and reference briefs then stay out of the
program's garbage collections, in this process
and in the workers forked from it, which would otherwise scan them and
stall at points that depend on the seed.  The program's objects, created
after the freeze, are collected as usual.

A pass runs in one of three modes: ``plain`` (no telemetry), ``observed``
(the program's own tracing on) and ``probed`` (tracing on plus
:class:`~layers.LayerProbe`).  End-to-end figures come from plain passes
only.  ``trace=True`` cycles through all three: per-layer figures come from
the probed passes, and ``obs.trace_overhead`` compares observed passes with
plain ones, so it holds the program's tracing cost and not the probe's.
"""

from __future__ import annotations

import gc
import os
import pickle
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.batched import BatchedBriefingPipeline
from repro.core.serving import ConcurrentBriefingPipeline
from repro.core.transport import ModelSnapshot
from repro.obs import Tracer

from . import layers, measure
from .model import brief_key, build_model_bytes, reference_briefs
from .streams import Stream, build_stream, due_times, warmup_pages

#: Set-ups measured before each pass or round (``setup_s`` is their median).
SETUPS_PER_PASS = 3
#: Untimed warm-up pages per worker process sent to a fresh server.
PRIMERS_PER_WORKER = 4
#: Seconds to wait for any one future before declaring the run broken.
RESULT_TIMEOUT_S = 120.0
#: Delay before the first open-loop send, so set-up work has settled.
ROUND_LEAD_S = 0.05

PLAIN, OBSERVED, PROBED = "plain", "observed", "probed"
#: Pass modes of a traced run, in the order they repeat.
TRACE_CYCLE = (PLAIN, OBSERVED, PROBED)

#: Serving-side per-layer metrics; zero on the closed loop, which has no server.
SERVING_METRICS = (
    "serving.submit_us_p50",
    "serving.queue_wait_ms_p50",
    "serving.queue_wait_ms_p99",
    "serving.batch_docs_mean",
    "serving.front_hit_ratio",
    "serving.shed",
    "serving.rejected",
    "serving.expired",
    "serving.worker_restarts",
    "transport.return_ms_p50",
    "transport.snapshot_bytes",
    "loadgen.lateness_p99_ms",
)
#: Server counters reported as ``serving.*`` figures.
COUNTERS = ("requests_shed", "queue_rejections", "deadline_expirations", "worker_restarts")


class ProbeError(RuntimeError):
    """A probed pass came back without layer figures for the docs it served."""


@dataclass
class Setup:
    seconds: float
    first_brief_s: float


@dataclass
class Pass:
    """One closed-loop pass or open-loop round."""

    mode: str
    #: the requests of this pass, in send order: ``(doc_id, html)``.
    requests: list
    wall_s: float = 0.0
    #: latency samples, seconds: per request from its due time to its result
    #: (open loop), or per ``brief_many`` call (closed loop).
    latencies: List[float] = field(default_factory=list)
    #: per request: send lateness behind its due time, seconds (open loop).
    lateness: List[float] = field(default_factory=list)
    #: per request: time spent inside ``submit()``, seconds (open loop).
    submit_s: List[float] = field(default_factory=list)
    resolved: List[float] = field(default_factory=list)
    #: the briefs returned, until :meth:`Workload.check` has checked them.
    briefs: list = field(default_factory=list)
    docs: int = 0
    failed: int = 0
    spans: list = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    cpu_s: float = 0.0
    child_rss_mb: float = 0.0

    @property
    def docs_per_s(self) -> float:
        return self.docs / self.wall_s


class Workload:
    """One named workload at one seed: inputs, set-up and timed passes."""

    def __init__(self, name: str, seed: int, scale: float = 1.0) -> None:
        self.stream: Stream = build_stream(name, seed, scale)
        self.spec = self.stream.spec
        self.open_loop = self.spec.rate is not None
        self.workers = os.cpu_count() or 1
        self.warmup, *self.primers = warmup_pages(1 + PRIMERS_PER_WORKER * self.workers)
        self.model_bytes = build_model_bytes()
        processes = max(1, min(self.workers, 4))
        self.reference, self.token_counts = reference_briefs(
            self.model_bytes, self.stream.pool, self.spec.beam_size, processes
        )
        self.setups: List[Setup] = []
        self.mismatched: set = set()

    # -- set-up ----------------------------------------------------------
    def build(self, observe: bool):
        """Restore the model and build the target; returns (target, Setup)."""
        start = time.perf_counter()
        model = pickle.loads(self.model_bytes)
        if not self.open_loop:
            target = BatchedBriefingPipeline(
                model,
                beam_size=self.spec.beam_size,
                batch_size=self.spec.chunk,
                tracer=Tracer() if observe else None,
            )
            first = time.perf_counter()
            target.brief_many([self.warmup])
        else:
            target = ConcurrentBriefingPipeline(
                model,
                num_workers=self.workers,
                transport="process",
                beam_size=self.spec.beam_size,
                observe=observe,
            )
            first = time.perf_counter()
            target.brief_html(self.warmup[1], doc_id=self.warmup[0])
        end = time.perf_counter()
        return target, Setup(seconds=end - start, first_brief_s=end - first)

    def measure_setups(self) -> None:
        """Set up (and tear down) ``SETUPS_PER_PASS`` times in a row."""
        for _ in range(SETUPS_PER_PASS):
            target, setup = self.build(observe=False)
            if self.open_loop:
                target.shutdown(timeout=30)
            self.setups.append(setup)

    def prime(self, server: ConcurrentBriefingPipeline) -> None:
        """Brief the primer pages so that every worker has served once."""
        futures = [server.submit(html, doc_id=doc_id) for doc_id, html in self.primers]
        for future in futures:
            future.result(timeout=RESULT_TIMEOUT_S)

    # -- timed passes ----------------------------------------------------
    def run_pass(self, index: int, mode: str) -> Pass:
        result = Pass(mode=mode, requests=self.stream.pass_requests(index))
        gc.collect()
        gc.freeze()
        self.measure_setups()
        probe = None
        if mode == PROBED:
            # Installed before the build so forked process workers inherit it.
            probe = layers.LayerProbe(pickle.loads(self.model_bytes)).install()
        try:
            target, _ = self.build(observe=mode != PLAIN)
            if not self.open_loop:
                self._closed_loop(target, result)
            else:
                try:
                    self.prime(target)
                    self._open_loop(target, result)
                finally:
                    target.shutdown(timeout=30)
        finally:
            if probe is not None:
                probe.remove()
        self.check(result)
        return result

    def _closed_loop(self, pipeline: BatchedBriefingPipeline, result: Pass) -> Pass:
        requests = result.requests
        chunk = self.spec.chunk
        cpu_before = measure.cpu_seconds()
        start = time.perf_counter()
        for offset in range(0, len(requests), chunk):
            sent = time.perf_counter()
            result.briefs.extend(pipeline.brief_many(requests[offset : offset + chunk]))
            result.latencies.append(time.perf_counter() - sent)
        result.wall_s = time.perf_counter() - start
        result.cpu_s = measure.cpu_seconds() - cpu_before
        if result.mode != PLAIN:
            result.spans = [s for s in pipeline.tracer.spans if s.start >= start]
        return result

    def _open_loop(self, server: ConcurrentBriefingPipeline, result: Pass) -> Pass:
        requests = result.requests
        count = len(requests)
        resolved = [0.0] * count
        lateness = [0.0] * count
        submit_s = [0.0] * count
        futures = []
        children = measure.child_pids()
        cpu_before = measure.cpu_seconds(children)
        due = time.perf_counter() + ROUND_LEAD_S + due_times(count, self.spec.rate)
        for index, (doc_id, html) in enumerate(requests):
            delay = due[index] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            future = server.submit(html, doc_id=doc_id)
            submit_s[index] = time.perf_counter() - sent
            lateness[index] = sent - due[index]
            future.add_done_callback(lambda _, index=index: resolved.__setitem__(index, time.perf_counter()))
            futures.append(future)
        result.briefs = [future.result(timeout=RESULT_TIMEOUT_S) for future in futures]
        result.cpu_s = measure.cpu_seconds(children) - cpu_before
        result.child_rss_mb = measure.child_peak_rss_mb()
        result.resolved = resolved
        result.lateness = lateness
        result.submit_s = submit_s
        result.latencies = [done - at for done, at in zip(resolved, due)]
        result.wall_s = max(resolved) - due[0]
        stats = server.merged_stats()
        result.counters = {name: getattr(stats, name) for name in COUNTERS}
        if result.mode != PLAIN:
            result.spans = [s for s in server.trace_spans() if s.start >= due[0]]
        return result

    # -- correctness -----------------------------------------------------
    def check(self, one: Pass) -> None:
        """Every complete brief must equal the reference; others count as failed.

        The briefs are dropped once checked, so that the benchmark's memory
        does not grow with the number of passes a run makes.
        """
        one.docs = len(one.briefs)
        for (doc_id, html), brief in zip(one.requests, one.briefs):
            if not brief.complete:
                one.failed += 1
            elif brief_key(brief) != self.reference[html]:
                self.mismatched.add(doc_id)
        one.briefs = []


# ----------------------------------------------------------------------
# Running a workload
# ----------------------------------------------------------------------
def plan_rounds(workload: Workload, seconds: float, trace: bool) -> int:
    """Open-loop rounds for ``seconds`` of measurement (a full cycle when tracing)."""
    round_s = workload.stream.per_pass / workload.spec.rate
    return max(len(TRACE_CYCLE) if trace else 1, round(seconds / round_s))


def run_passes(workload: Workload, seconds: float, trace: bool) -> List[Pass]:
    """Timed passes for about ``seconds``; the modes cycle when tracing."""
    modes = TRACE_CYCLE if trace else (PLAIN,)
    passes: List[Pass] = []
    if workload.open_loop:
        for index in range(plan_rounds(workload, seconds, trace)):
            passes.append(workload.run_pass(index, modes[index % len(modes)]))
    else:
        elapsed = 0.0
        while elapsed < seconds or len(passes) < len(modes):
            passes.append(workload.run_pass(len(passes), modes[len(passes) % len(modes)]))
            elapsed += passes[-1].wall_s
    return passes


def run(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Dict[str, object]:
    """Run workload ``name`` and return the full report (see ``run.py``)."""
    workload = Workload(name, seed, scale)
    steal_before, start = measure.steal_seconds(), time.perf_counter()
    passes = run_passes(workload, seconds, trace)
    cpu_s = (time.perf_counter() - start) * (os.cpu_count() or 1)
    steal_share = (measure.steal_seconds() - steal_before) / cpu_s
    verdict = {
        "attempted": sum(one.docs for one in passes),
        "failed": sum(one.failed for one in passes),
        "mismatched": sorted(workload.mismatched),
    }
    plain = _of(passes, PLAIN)
    report: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "env": measure.environment(),
        "host_steal_share": steal_share,
        "stream": stream_summary(workload),
        "passes": {mode: sum(one.mode == mode for one in passes) for mode in TRACE_CYCLE},
        "verdict": verdict,
        "end_to_end": end_to_end(workload, plain),
        "latency_p99_ms": measure.timing_summary([v for one in plain for v in one.latencies]),
        "plain_passes": [
            {
                "wall_s": one.wall_s,
                "latency_p50_ms": measure.percentile(one.latencies, 50) * 1000.0,
                "latency_p90_ms": measure.percentile(one.latencies, 90) * 1000.0,
            }
            for one in plain
        ],
    }
    if trace:
        report["per_layer"] = per_layer(workload, passes)
    return report


def _of(passes: List[Pass], mode: str) -> List[Pass]:
    return [one for one in passes if one.mode == mode]


def stream_summary(workload: Workload) -> Dict[str, object]:
    tokens = np.asarray([t for t in workload.token_counts if t > 0], dtype=float)
    return {
        "requests_per_pass": workload.stream.per_pass,
        "unique_pages": len(workload.stream.pool),
        "unique_content_share": workload.stream.unique_share,
        "tokens_per_page": {
            "p10": float(np.percentile(tokens, 10)),
            "p50": float(np.percentile(tokens, 50)),
            "p90": float(np.percentile(tokens, 90)),
            "max": float(tokens.max()),
        },
        "workers": workload.workers if workload.open_loop else 0,
        "transport": "process" if workload.open_loop else None,
        "rate": workload.spec.rate,
    }


def end_to_end(workload: Workload, passes: List[Pass]) -> Dict[str, dict]:
    """The user-facing figures, each with its sample count."""
    attempted = sum(one.docs for one in passes)
    complete = attempted - sum(one.failed for one in passes)
    setups = [setup.seconds for setup in workload.setups]
    peak = measure.self_peak_rss_mb() + max((one.child_rss_mb for one in passes), default=0.0)
    return {
        "setup_s": {"value": statistics.median(setups), "samples": len(setups)},
        "docs_per_s": {
            "value": measure.better_quartile([one.docs_per_s for one in passes], higher_is_better=True),
            "samples": len(passes),
        },
        **latency_figures(workload, passes),
        "complete_share": {"value": complete / attempted, "samples": attempted},
        "peak_rss_mb": {"value": peak, "samples": 1},
    }


def latency_figures(workload: Workload, passes: List[Pass]) -> Dict[str, dict]:
    """``latency_p50_ms`` and ``latency_p90_ms`` with their sample counts.

    The closed loop pools every call of every pass.  The open loop takes
    each round's percentile and reports the lower quartile over rounds;
    ``beyond`` is then the fewest samples beyond p90 in one round.
    """
    if not workload.open_loop:
        timing = measure.timing_summary([value for one in passes for value in one.latencies])
        return {
            "latency_p50_ms": {"value": timing["p50_ms"], "samples": timing["samples"]},
            "latency_p90_ms": {
                "value": timing["p90_ms"],
                "samples": timing["samples"],
                "beyond": timing["beyond_p90"],
            },
        }
    rounds = [measure.timing_summary(one.latencies) for one in passes]
    samples = sum(timing["samples"] for timing in rounds)

    def lower_quartile(key: str) -> float:
        return measure.better_quartile([timing[key] for timing in rounds], higher_is_better=False)

    return {
        "latency_p50_ms": {"value": lower_quartile("p50_ms"), "samples": samples, "rounds": len(rounds)},
        "latency_p90_ms": {
            "value": lower_quartile("p90_ms"),
            "samples": samples,
            "rounds": len(rounds),
            "beyond": min(timing["beyond_p90"] for timing in rounds),
        },
    }


def check_probe(probed: List[Pass]) -> None:
    """Raise :class:`ProbeError` unless every doc a worker served has layer figures.

    Front-door hits never reach a worker and are exempt.
    """
    for one in probed:
        covered = {doc_id for span in layers.layer_spans(one.spans) for doc_id in span.attributes["doc_ids"]}
        hits = {
            s.attributes.get("doc_id")
            for s in one.spans
            if s.name == "admission" and s.attributes.get("outcome") in ("cache_hit", "coalesced")
        }
        missing = [doc_id for doc_id, _ in one.requests if doc_id not in covered | hits]
        if missing:
            raise ProbeError(f"no {layers.SPAN_NAME} span for {len(missing)} served docs, e.g. {missing[:5]}")


def per_layer(workload: Workload, passes: List[Pass]) -> Dict[str, float]:
    """Per-layer figures of a traced run (names as in ``BENCHMARK.json``)."""
    probed = _of(passes, PROBED)
    observed = _of(passes, OBSERVED)
    plain = _of(passes, PLAIN)
    check_probe(probed)
    docs = sum(one.docs for one in probed)
    totals = layers.sum_layers([span for one in probed for span in one.spans])
    parts_s = layers.layer_parts_s(totals)
    wall = sum(one.wall_s for one in probed)

    def ms_per_doc(seconds: float) -> float:
        return seconds * 1000.0 / docs

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {
        "html.parse_ms_per_doc": ms_per_doc(parts_s["parse"]),
        "html.render_ms_per_doc": ms_per_doc(parts_s["render"]),
        "models.encode_ms_per_doc": ms_per_doc(parts_s["encode"]),
        "models.decode_ms_per_doc": ms_per_doc(parts_s["decode"]),
        "models.heads_ms_per_doc": ms_per_doc(parts_s["heads"]),
        "models.pad_ratio": ratio(totals["padded_slots"], totals["token_slots"]),
        "models.topic_tokens_per_doc": ratio(totals["topic_tokens"], totals["decoded_docs"]),
        "batched.docs_per_predict": ratio(totals["predicted_docs"], totals["predict_calls"]),
        "batched.cache_hit_ratio": ratio(totals["cache_hits"], totals["cache_hits"] + totals["cache_misses"]),
        "setup.first_brief_s": statistics.median(s.first_brief_s for s in workload.setups),
        "cpu.util": ratio(sum(one.cpu_s for one in probed), wall * (os.cpu_count() or 1)),
    }
    if not workload.open_loop:
        metrics.update(dict.fromkeys(SERVING_METRICS, 0))
        metrics["obs.trace_overhead"] = ratio(_median_wall(observed), _median_wall(plain)) - 1.0
        metrics["unattributed_ms_per_doc"] = measure.unattributed_ms_per_doc(
            wall * 1000.0, {k: v * 1000.0 for k, v in parts_s.items()}, docs
        )
        return metrics
    serving = serving_layers(probed)
    counters = {name: sum(one.counters.get(name, 0) for one in passes) for name in COUNTERS}
    metrics.update(
        {
            "serving.submit_us_p50": serving["submit_us_p50"],
            "serving.queue_wait_ms_p50": serving["queue_wait_ms_p50"],
            "serving.queue_wait_ms_p99": serving["queue_wait_ms_p99"],
            "serving.batch_docs_mean": ratio(totals["pages"], totals["calls"]),
            "serving.front_hit_ratio": serving["front_hit_ratio"],
            "serving.shed": counters["requests_shed"],
            "serving.rejected": counters["queue_rejections"],
            "serving.expired": counters["deadline_expirations"],
            "serving.worker_restarts": counters["worker_restarts"],
            "transport.return_ms_p50": serving["return_ms_p50"],
            "transport.snapshot_bytes": ModelSnapshot(pickle.loads(workload.model_bytes)).num_bytes,
            "obs.trace_overhead": ratio(_p50(observed), _p50(plain)) - 1.0,
            "unattributed_ms_per_doc": serving["unattributed_ms_per_doc"],
            "loadgen.lateness_p99_ms": measure.percentile([v for one in probed for v in one.lateness], 99)
            * 1000.0,
        }
    )
    return metrics


def _median_wall(passes: List[Pass]) -> float:
    return statistics.median(one.wall_s for one in passes)


def _p50(passes: List[Pass]) -> float:
    return measure.percentile([v for one in passes for v in one.latencies], 50)


def serving_layers(traced: List[Pass]) -> Dict[str, float]:
    """Serving-path figures from the requests and the shipped spans.

    A request admitted to a worker walks: send lateness, ``submit()``, queue
    wait (admission span start to the worker's ``serve`` span start), the
    ``brief_many`` call that served it (its layer parts), and the return
    (that call's end to the future resolving).  A front-door hit walks only
    lateness and ``submit()``.  Coalesced followers share a leader's path
    and are left out of the unattributed figure.
    """
    submit_s: List[float] = []
    queue_wait: List[float] = []
    returns: List[float] = []
    front_hits = 0
    path_wall = 0.0
    path_parts = dict.fromkeys(("lateness", "submit", "queue_wait", "compute", "return"), 0.0)
    path_docs = 0
    for one in traced:
        admission = {s.attributes.get("doc_id"): s for s in one.spans if s.name == "admission"}
        serve = {s.attributes.get("doc_id"): s for s in one.spans if s.name == "serve"}
        batch_of = {
            doc_id: span
            for span in layers.layer_spans(one.spans)
            for doc_id in span.attributes.get("doc_ids", ())
        }
        submit_s.extend(one.submit_s)
        for index, (doc_id, _) in enumerate(one.requests):
            outcome = admission[doc_id].attributes.get("outcome")
            front_hits += outcome in ("cache_hit", "coalesced")
            if outcome == "cache_hit":
                parts = {"lateness": one.lateness[index], "submit": one.submit_s[index]}
            elif doc_id in serve and doc_id in batch_of:
                batch = batch_of[doc_id]
                wait = serve[doc_id].start - admission[doc_id].start
                back = one.resolved[index] - (batch.start + batch.duration)
                queue_wait.append(wait)
                returns.append(back)
                parts = {
                    "lateness": one.lateness[index],
                    "submit": one.submit_s[index],
                    "queue_wait": wait,
                    "compute": sum(layers.layer_parts_s(layers.span_totals(batch)).values()),
                    "return": back,
                }
            else:
                continue
            path_docs += 1
            path_wall += one.latencies[index]
            for key, value in parts.items():
                path_parts[key] += value

    def p(values: List[float], q: float, unit: float) -> float:
        return measure.percentile(values, q) * unit if values else 0.0

    return {
        "submit_us_p50": p(submit_s, 50, 1e6),
        "queue_wait_ms_p50": p(queue_wait, 50, 1000.0),
        "queue_wait_ms_p99": p(queue_wait, 99, 1000.0),
        "return_ms_p50": p(returns, 50, 1000.0),
        "front_hit_ratio": front_hits / sum(len(one.requests) for one in traced),
        "unattributed_ms_per_doc": measure.unattributed_ms_per_doc(
            path_wall * 1000.0, {k: v * 1000.0 for k, v in path_parts.items()}, max(path_docs, 1)
        ),
    }
