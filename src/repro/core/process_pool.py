"""The *process* worker transport: one model copy per worker process.

Thread workers share one GIL, so model compute serialises no matter how many
workers the pool holds.  :class:`ProcessWorkerPool` implements the
:class:`~repro.core.transport.WorkerTransport` protocol over N worker
*processes*, each restoring its own copy of the weights exactly once at
fork/spawn from a :class:`~repro.core.transport.ModelSnapshot` and serving
micro-batches fed over a duplex pipe with batch-level framing.

Topology, per worker index::

    submit ─▶ ConsistentHashRouter ─▶ per-shard RequestScheduler
                                          │ next_batch()
                                          ▼
            parent dispatcher thread ── pipe ── worker process
              (shared worker loop:                (model copy +
               sweep, chaos, spans,               local hot caches)
               governor, resolve; plus
               stats merge, front-door
               cache fill)

The dispatcher runs the worker loop and per-batch dispatch path shared with
the thread transport (:class:`~repro.core.transport.WorkerTransport`); this
module supplies only the process side: spawning, the shard topology, the
pipe exchange and killing a dead worker's process.

* **Routing** — the front door consistent-hashes each page's content hash
  onto a worker shard, so repeated content always lands on the same process
  and that process's *local* brief cache stays hot behind the shared
  front-door :class:`~repro.core.batched.BriefCache`.
* **Framing** — the parent sends
  ``("serve", [(doc_id, html, remaining_s, trace)])`` and the child replies
  ``("done", briefs, stats_delta, telemetry)``; deadlines cross the boundary
  as *remaining seconds* (monotonic clocks don't transfer) and are
  re-anchored to the child's clock, where the batched pipeline enforces them
  per stage.  ``trace`` is the request's ``(trace_id, span_id)`` pair (or
  ``None``), so the child's ``brief_many`` subtree parents under the same
  admission span the front door opened — one connected trace per request,
  reassembled parent-side.
* **Telemetry** — when the pool observes, each child runs a real tracer and
  metrics registry and piggybacks the *increment* since its last reply onto
  every ``done`` message: a mergeable
  :func:`~repro.obs.metrics.snapshot_delta` plus its finished spans as
  dicts.  Deltas merge associatively, so the parent-side accumulation is
  arrival-order independent.  An idle child ships nothing on its own;
  ``metrics_snapshot()`` / ``trace_spans()`` send an explicit ``("flush",)``
  probe (skipped without blocking if the dispatcher is mid-batch — that
  telemetry arrives on the reply instead).
* **Failure** — a dead pipe is a dead worker: the dispatcher exits leaving
  ``current_batch`` held and ``exited`` unset, exactly the signature
  :class:`~repro.core.serving.WorkerSupervisor` scans for; resurrection
  re-spawns the process with a fresh generation and re-queues survivors into
  the same shard.  Chaos faults are injected parent-side so the shared
  seeded schedule and death caps stay exact: an injected
  :class:`~repro.runtime.chaos.WorkerDeath` *terminates the worker process*.
  Telemetry already merged parent-side survives the crash; at most one
  batch's increments die with the child.
* **Determinism** — the snapshot carries the weights, the model's RNG state
  and the ``nn`` default dtype, so process-transport briefs are
  bit-identical to thread-transport briefs.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import warnings
from typing import Callable, Dict, Hashable, List, Optional, Sequence

import numpy as np

from ..nn.tensor import set_default_dtype
from ..obs import (
    NOOP_REGISTRY,
    NOOP_TRACER,
    MetricsRegistry,
    MetricsSnapshot,
    SpanRecord,
    TraceContext,
    Tracer,
    snapshot_delta,
)
from ..runtime.chaos import WorkerDeath
from .batched import _copy_brief, content_hash
from .cascade import _CANONICAL_REASONS, make_batched_pipeline
from .serving import RequestScheduler
from .transport import (
    ConsistentHashRouter,
    ModelSnapshot,
    WorkerRecord,
    WorkerTransport,
    _empty_brief,
)

__all__ = ["ProcessWorkerPool"]

#: exit code a worker process dies with on an (injected) in-process crash.
_DEATH_EXIT_CODE = 17

#: how long a starting dispatcher waits for its worker process's "ready".
_SPAWN_TIMEOUT = 30.0

#: how long a flush probe waits for a mid-batch dispatcher before giving up.
_FLUSH_LOCK_TIMEOUT = 0.25

#: how long a flush probe waits for the child's telemetry reply.
_FLUSH_REPLY_TIMEOUT = 2.0


def _stats_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    """Counter increments between two ``RuntimeStats.as_dict`` snapshots."""
    return {name: after[name] - before.get(name, 0) for name in after if after[name] != before.get(name, 0)}


def _process_worker_main(
    conn, snapshot: ModelSnapshot, config: dict, inherited: Sequence = ()
) -> None:
    """One worker process: restore the snapshot once, serve batches forever.

    Top-level (not a closure) so ``spawn``/``forkserver`` contexts can
    import it.  The child applies the snapshot's ``nn`` default dtype to its
    own process before restoring, so a float32 parent gets float32 workers.
    The restored pipeline owns *local* caches sized by ``worker_cache_size``
    — the hot tier the router's shard affinity feeds.

    When ``config["observe"]`` is set the child runs a real tracer (span ids
    prefixed ``w{index}g{generation}.`` so they stay globally unique across
    the pool) and metrics registry, and attaches the increment since its
    last reply to every ``done`` message; a ``("flush",)`` probe collects
    the same increment from an idle child.

    ``inherited`` holds the parent-side pipe ends a ``fork`` child inherits:
    its own worker's and those of every worker forked before it.  The child
    closes them first, so that when the parent dies (even by SIGKILL) no
    process holds a writer on this worker's pipe and ``recv`` sees EOF;
    otherwise the child would keep its own pipe open and linger forever.
    """
    for parent_end in inherited:
        parent_end.close()
    try:
        set_default_dtype(np.dtype(snapshot.default_dtype))
        model, dtype = snapshot.restore()
        tracer = NOOP_TRACER
        registry = NOOP_REGISTRY
        if config.get("observe"):
            tracer = Tracer(id_prefix=f"w{config['index']}g{config['generation']}.")
            registry = MetricsRegistry()
        # The factory gives a restored CascadeModel the tiered pipeline (the
        # escalation threshold and budget ride inside the pickled model, so
        # no extra config keys cross the spawn boundary); anything else gets
        # the plain batched pipeline.  Caches are process-local either way.
        pipeline = make_batched_pipeline(
            model,
            beam_size=config["beam_size"],
            batch_size=config["batch_size"],
            brief_cache_size=config["cache_size"],
            render_cache_size=config["cache_size"],
            hash_fn=config["hash_fn"],
            dtype=dtype,
            tracer=tracer,
            registry=registry,
        )
        shipped = MetricsSnapshot()

        def telemetry() -> Optional[dict]:
            """The observable increment since the last reply (or ``None``)."""
            nonlocal shipped
            if not registry.enabled and not tracer.enabled:
                return None
            current = registry.snapshot()
            delta = snapshot_delta(current, shipped)
            shipped = current
            spans = [span.to_dict() for span in tracer.spans]
            tracer.clear()
            return {"metrics": delta, "spans": spans}

        conn.send(("ready", os.getpid()))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                conn.send(("bye",))
                return
            if message[0] == "flush":
                conn.send(("telemetry", telemetry()))
                continue
            payload = message[1]
            # Governor state lives parent-side; the student-only overload
            # flag crosses the pipe with the batch it applies to.
            student_only = bool(message[2]) if len(message) > 2 else False
            before = pipeline.stats.as_dict()
            now = time.monotonic()
            pages = [(doc_id, html) for doc_id, html, _, _ in payload]
            # Deadlines arrive as remaining budgets; re-anchor them to this
            # process's monotonic clock for the per-stage checks.
            deadlines = [
                None if remaining is None else now + remaining
                for _, _, remaining, _ in payload
            ]
            # Trace contexts arrive as plain (trace_id, span_id) tuples;
            # rebuild them so the batch subtree parents under the admission
            # spans opened on the other side of the pipe.
            contexts = [
                None if trace is None else TraceContext(*trace)
                for _, _, _, trace in payload
            ]
            try:
                briefs = pipeline.brief_many(
                    pages,
                    deadlines=deadlines,
                    trace_contexts=contexts,
                    student_only=student_only,
                )
            except WorkerDeath:
                raise
            except BaseException as exc:  # brief_many never raises; last resort
                briefs = [_empty_brief(exc) for _ in pages]
            conn.send(
                (
                    "done",
                    briefs,
                    _stats_delta(before, pipeline.stats.as_dict()),
                    telemetry(),
                )
            )
    except (EOFError, OSError, KeyboardInterrupt):
        return  # parent went away — nothing left to serve
    except WorkerDeath:
        # A real in-process crash (e.g. poison content): die the way a
        # segfault would — no reply, nonzero exit — so the parent dispatcher
        # sees the pipe go dead while the batch is still held.
        os._exit(_DEATH_EXIT_CODE)


class _ProcessWorker(WorkerRecord):
    """One process-transport worker record.

    ``thread`` is the parent-side *dispatcher* thread, ``process`` the worker
    process itself.  ``alive()`` reports the *dispatcher*, not the process:
    the dispatcher notices a dead pipe within one poll tick and exits holding
    the batch, so by the time the supervisor sees ``alive() == False`` the
    batch state is final — the same no-race guarantee the thread transport
    gets from worker death being thread death.

    ``lock`` serialises pipe use between the dispatcher (held across one
    whole send/recv exchange) and flush probes.  ``snapshot``/``spans``
    accumulate the child's shipped telemetry parent-side; the inherited
    ``tracer``/``registry`` hold the *parent-side* halves of the worker's
    story — the per-request ``serve`` spans and the dispatch-time deadline
    histogram.
    """

    __slots__ = ("process", "conn", "ready", "lock", "snapshot", "spans")

    def __init__(self, index: int, generation: int, observe: bool) -> None:
        # The "d" prefix keeps dispatcher span ids disjoint from the child's
        # "w" ids.
        super().__init__(index, generation, observe, "d")
        self.process = None
        self.conn = None
        self.ready = False
        self.lock = threading.Lock()
        self.snapshot = MetricsSnapshot()
        self.spans: List[SpanRecord] = []


class ProcessWorkerPool(WorkerTransport):
    """N worker processes behind per-shard schedulers and a hash ring.

    Each worker index owns a bounded :class:`RequestScheduler` shard
    (capacity ``ceil(max_queue / num_workers)`` — a full shard raises
    :class:`~repro.runtime.errors.QueueFull` even if others have room,
    which is the price of cache affinity), a duplex pipe, a worker process
    and a parent-side dispatcher thread running the shared worker loop of
    :class:`~repro.core.transport.WorkerTransport`.  What this transport adds
    is the pipe exchange (:meth:`_brief`: forward the batch, merge the
    child's stats delta and telemetry, feed complete briefs into the shared
    front-door cache) and the process lifecycle: an injected or detected
    worker death kills the child process.

    With ``observe=True`` the pool implements the full transport
    observability contract: ``metrics_snapshot()`` merges every child's
    shipped registry deltas with the parent-side per-worker registries and
    ``trace_spans()`` returns the child spans (as
    :class:`~repro.obs.SpanRecord`\\ s) alongside the parent-side ``serve``
    spans, provenance-stamped by the shared core.  Without it both return
    empty — and warn, once, so the blind spot is never silent.

    Worker processes are spawned in the constructor — *before* any
    dispatcher or supervisor thread starts — so a ``fork`` start method
    never forks a multi-threaded parent mid-lock.
    """

    transport_name = "process"

    def __init__(
        self,
        snapshot: ModelSnapshot,
        num_workers: int = 2,
        *,
        beam_size: int = 4,
        batch_size: int = 8,
        max_queue: int = 256,
        max_batch: int = 8,
        max_wait_ms: float = 2.0,
        front_cache=None,
        hash_fn: Optional[Callable[[str], Hashable]] = None,
        clock: Optional[Callable[[], float]] = None,
        on_expired: Optional[Callable[[object], None]] = None,
        wait_scale: Optional[Callable[[], float]] = None,
        governor=None,
        chaos=None,
        mp_context: Optional[str] = None,
        worker_cache_size: int = 256,
        observe: bool = False,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if not isinstance(snapshot, ModelSnapshot):
            snapshot = ModelSnapshot(snapshot)
        methods = multiprocessing.get_all_start_methods()
        method = mp_context if mp_context is not None else ("fork" if "fork" in methods else methods[0])
        self.start_method = method
        self._ctx = multiprocessing.get_context(method)
        self.front_cache = front_cache
        self._snapshot = snapshot
        self._hash_fn = hash_fn if hash_fn is not None else content_hash
        self._beam_size = beam_size
        self._batch_size = batch_size
        self._worker_cache_size = worker_cache_size
        self._warned_blind = False
        self._router = ConsistentHashRouter(num_workers)
        per_shard = max(1, -(-max_queue // num_workers))
        self.schedulers: List[RequestScheduler] = [
            RequestScheduler(
                max_queue=per_shard,
                max_batch=max_batch,
                max_wait_ms=max_wait_ms,
                clock=clock,
                on_expired=on_expired,
                wait_scale=wait_scale,
            )
            for _ in range(num_workers)
        ]
        super().__init__(num_workers, clock=clock, governor=governor, chaos=chaos, observe=observe)

    # -- spawning ------------------------------------------------------
    def _make_worker(self, index: int, generation: int) -> _ProcessWorker:
        worker = _ProcessWorker(index, generation, self.observe)
        parent_conn, child_conn = self._ctx.Pipe()
        config = {
            "beam_size": self._beam_size,
            "batch_size": self._batch_size,
            "cache_size": self._worker_cache_size,
            "hash_fn": None if self._hash_fn is content_hash else self._hash_fn,
            "observe": self.observe,
            "index": index,
            "generation": generation,
        }
        # A forked child inherits every parent-side pipe end open in this
        # process; hand it this pool's, its own included, to close.  Spawned
        # children inherit nothing (and pickling a Connection would dup it).
        inherited = ()
        if self.start_method == "fork":
            inherited = tuple(
                w.conn for w in self._workers + self._retired if w.conn is not None
            ) + (parent_conn,)
        process = self._ctx.Process(
            target=_process_worker_main,
            args=(child_conn, self._snapshot, config, inherited),
            name=f"brief-proc-{index}-g{generation}",
            daemon=True,
        )
        process.start()
        # Drop the parent's handle on the child end so a dead worker turns
        # into EOF on our end instead of a silent hang.
        child_conn.close()
        worker.conn = parent_conn
        worker.process = process
        return worker

    def _start_worker(self, worker: _ProcessWorker) -> None:
        """Wait for the child's ``ready`` (a boot crash surfaces in the
        dispatcher as a dead pipe), then start the dispatcher thread."""
        try:
            if worker.conn.poll(_SPAWN_TIMEOUT):
                worker.ready = worker.conn.recv()[0] == "ready"
        except (EOFError, OSError):
            worker.ready = False
        super()._start_worker(worker)

    def _kill(self, worker: _ProcessWorker) -> None:
        process = worker.process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=2.0)

    # -- queue topology: a scheduler shard per worker ---------------------
    @property
    def depth(self) -> int:
        return sum(scheduler.depth for scheduler in self.schedulers)

    def submit(self, request) -> None:
        """Route by content hash so a page always lands on the same shard."""
        shard = self._router.route(str(self._hash_fn(request.html)))
        self.schedulers[shard].submit(request)

    def close(self) -> None:
        for scheduler in self.schedulers:
            scheduler.close()

    def drain(self) -> list:
        items: list = []
        for scheduler in self.schedulers:
            items.extend(scheduler.drain())
        return items

    def requeue(self, worker: _ProcessWorker, requests) -> None:
        # Survivors stay on the dead worker's shard: its replacement owns
        # the same slice of the ring (and will rebuild the same hot cache).
        self.schedulers[worker.index].requeue(requests)

    def reap(self) -> None:
        """Terminate every worker process still alive and release the pipes."""
        for worker in self._all_workers():
            self._kill(worker)
            try:
                worker.conn.close()
            except (OSError, AttributeError):
                pass

    # -- dispatch ------------------------------------------------------
    def _next_batch(self, worker: _ProcessWorker) -> Optional[list]:
        return self.schedulers[worker.index].next_batch()

    def _recv(self, worker: _ProcessWorker):
        while not worker.conn.poll(0.05):
            if not worker.process.is_alive() and not worker.conn.poll(0):
                raise EOFError(f"worker process {worker.index} died")
        return worker.conn.recv()

    def _merge_telemetry(self, worker: _ProcessWorker, payload: Optional[dict]) -> None:
        """Fold one shipped telemetry increment into the worker's record.

        Deltas merge associatively and spans only append, so ordering
        between batch replies and flush probes doesn't matter.
        """
        if not payload:
            return
        metrics = payload.get("metrics")
        if metrics is not None:
            worker.snapshot = worker.snapshot.merge(metrics)
        for data in payload.get("spans") or ():
            worker.spans.append(SpanRecord(data))

    def _brief(self, worker: _ProcessWorker, live: list, now: float, student_only: bool) -> list:
        """Ship one batch over the pipe; a dead pipe is a ``WorkerDeath``.

        Deadlines cross as budgets remaining at ``now`` and trace contexts
        as plain tuples; the governor's ``student_only`` flag rides with the
        batch it applies to.
        """
        payload = [
            (
                request.doc_id,
                request.html,
                None if request.deadline is None else max(0.0, request.deadline - now),
                None if request.trace is None else tuple(request.trace),
            )
            for request in live
        ]
        try:
            # The pipe lock covers the whole exchange so a concurrent flush
            # probe can never interleave its frames with ours.
            with worker.lock:
                worker.conn.send(("serve", payload, student_only))
                message = self._recv(worker)
                while message[0] != "done":
                    if message[0] == "telemetry":
                        self._merge_telemetry(worker, message[1])
                    message = self._recv(worker)
        except (EOFError, OSError) as exc:
            raise WorkerDeath(f"worker process {worker.index} died") from exc
        _, briefs, delta, telemetry = message
        self._merge_telemetry(worker, telemetry)
        for name, amount in delta.items():
            worker.stats.inc(name, amount)
        if self.front_cache is not None:
            # Only canonical answers reach the shared front tier: a student
            # brief served because a deadline or the governor suppressed its
            # escalation is situational and must not answer future requests.
            for request, brief in zip(live, briefs):
                if brief.complete and brief.tier_reason in _CANONICAL_REASONS:
                    self.front_cache.put(request.html, _copy_brief(brief))
        return briefs

    def _on_exit(self, worker: _ProcessWorker) -> None:
        """Stop the child cleanly once its shard is closed and drained."""
        try:
            with worker.lock:
                worker.conn.send(("stop",))
                if worker.conn.poll(1.0):
                    message = worker.conn.recv()
                    # A raced flush probe's telemetry frames land ahead of
                    # the "bye"; fold them in rather than dropping them.
                    while message[0] == "telemetry" and worker.conn.poll(1.0):
                        self._merge_telemetry(worker, message[1])
                        message = worker.conn.recv()
        except (EOFError, OSError, BrokenPipeError):
            pass
        if worker.process is not None:
            worker.process.join(timeout=2.0)

    # -- merged observability ------------------------------------------
    def _warn_blind(self) -> None:
        if self._warned_blind:
            return
        self._warned_blind = True
        warnings.warn(
            "ProcessWorkerPool was built with observe=False: "
            "metrics_snapshot() and trace_spans() return empty data. "
            "Pass observe=True (ConcurrentBriefingPipeline(..., observe=True)) "
            "to ship worker telemetry across the process boundary.",
            RuntimeWarning,
            stacklevel=3,
        )

    def _flush_worker(self, worker: _ProcessWorker) -> None:
        """Pull pending telemetry from an idle child without blocking serving.

        Skips silently when the dispatcher holds the pipe (that batch's
        reply carries the telemetry anyway) or the child is gone (whatever
        it had shipped is already merged; the rest died with it).
        """
        process = worker.process
        if worker.conn is None or process is None or not process.is_alive():
            return
        if not worker.lock.acquire(timeout=_FLUSH_LOCK_TIMEOUT):
            return
        try:
            worker.conn.send(("flush",))
            deadline = time.monotonic() + _FLUSH_REPLY_TIMEOUT
            while worker.conn.poll(max(0.0, deadline - time.monotonic())):
                message = worker.conn.recv()
                if message[0] == "telemetry":
                    self._merge_telemetry(worker, message[1])
                    return
                if time.monotonic() >= deadline:
                    return
        except (EOFError, OSError, BrokenPipeError):
            return
        finally:
            worker.lock.release()

    def _worker_metrics(self, worker: _ProcessWorker) -> MetricsSnapshot:
        self._flush_worker(worker)
        return worker.snapshot.merge(worker.registry.snapshot())

    def _worker_spans(self, worker: _ProcessWorker) -> list:
        self._flush_worker(worker)
        return list(worker.spans) + list(worker.tracer.spans)

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Merged worker metrics, reassembled from shipped deltas.

        Each worker contributes its child-side series (accumulated from the
        per-batch deltas, topped up by a flush probe when idle) merged with
        its parent-side registry (the dispatch-time deadline histogram).
        """
        if not self.observe:
            self._warn_blind()
            return MetricsSnapshot()
        return super().metrics_snapshot()

    def trace_spans(self) -> list:
        """Finished spans from both sides of every worker's pipe.

        Child spans arrive as :class:`~repro.obs.SpanRecord`\\ s (shipped as
        dicts on batch replies), parent-side ``serve`` spans come straight
        from the dispatcher's tracer; ids stay globally unique thanks to the
        per-tracer ``w``/``d`` prefixes.
        """
        if not self.observe:
            self._warn_blind()
            return []
        return super().trace_spans()
