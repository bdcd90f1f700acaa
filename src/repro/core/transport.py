"""The transport-agnostic worker protocol behind the concurrent pipeline.

:class:`~repro.core.serving.ConcurrentBriefingPipeline` historically owned a
thread pool directly.  Scaling past the GIL means the *same* front door —
single-flight coalescing, governor shedding, deadline sweeps, supervision —
must drive workers that live in other processes.  This module defines the
seam:

* :class:`WorkerTransport` — the worker-pool core every backend shares, and
  the interface the supervisor and the pipeline talk to.  It owns the pool
  bookkeeping (live and retired :class:`WorkerRecord` objects, ``restart_worker``,
  ``join``, ``stuck_workers``, merged stats, provenance-stamped metrics and
  spans) and the one per-batch dispatch path: deadline sweep, chaos
  injection, per-request ``serve`` spans, the governor's ``student_only``
  sample and batch-latency feed, and resolving the futures.
  :class:`~repro.core.serving.WorkerPool` (threads over shared weights) and
  :class:`~repro.core.process_pool.ProcessWorkerPool` (one model copy per
  process) keep only what truly differs: how a worker is made and started,
  which queue feeds it, how a list of live requests becomes briefs
  (``brief_many`` in-thread, or a pipe exchange) and what a worker death
  does to the worker.  So backpressure, deadlines, shedding and restart
  semantics are identical across transports by construction.
* :class:`ModelSnapshot` — a picklable, self-contained copy of the model
  plus the inference environment (``nn`` default dtype, and the model's own
  RNG state, which rides inside the pickle).  Worker processes restore it
  exactly once at fork/spawn, so process-transport outputs are bit-identical
  to thread-transport outputs.
* :class:`ConsistentHashRouter` — a hash ring over worker shards.  Page
  content-hashes map stably to shards (stable across processes *and* worker
  restarts, because ring position depends on the shard index, not on any
  process identity), so each worker process's local brief cache stays hot
  for the pages routed to it.
"""

from __future__ import annotations

import abc
import bisect
import hashlib
import pickle
import threading
import time
from concurrent.futures import InvalidStateError
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from ..nn.tensor import get_default_dtype
from ..obs import NOOP_REGISTRY, NOOP_TRACER, MetricsRegistry, MetricsSnapshot, Tracer
from ..runtime.chaos import WorkerDeath
from ..runtime.errors import DeadlineExceeded
from ..runtime.stats import RuntimeStats
from .briefing import Degradation, PartialBrief
from .pipeline import _reason

__all__ = ["WorkerTransport", "WorkerRecord", "ModelSnapshot", "ConsistentHashRouter"]


def _resolve(future, brief: PartialBrief) -> bool:
    """Set a future's result exactly once; lose gracefully if already set.

    The supervisor and the worker it replaces can race to resolve the same
    request (a wedged worker may finish late, after its batch was re-queued).
    Whoever gets there first wins; the loser is a no-op, so re-dispatch is
    at-most-once from the caller's point of view.
    """
    try:
        future.set_result(brief)
        return True
    except InvalidStateError:
        return False


def _deadline_partial(where: str) -> PartialBrief:
    """The typed brief an expired request resolves to (never raises)."""
    exc = DeadlineExceeded(f"deadline expired {where}")
    return PartialBrief(
        topic=[],
        attributes=[],
        degradations=[Degradation("deadline", "expired", _reason(exc))],
    )


def _empty_brief(exc: BaseException) -> PartialBrief:
    """The ``serve → empty_brief`` brief a request resolves to when serving
    itself failed: a transient fault, a lost worker, or shutdown."""
    return PartialBrief(
        topic=[],
        attributes=[],
        degradations=[Degradation("serve", "empty_brief", _reason(exc))],
    )


class WorkerRecord:
    """One pool member as the supervisor sees it, whatever the transport.

    ``thread`` is the thread that runs the worker loop (the worker itself for
    the thread transport, the parent-side dispatcher for the process one);
    ``alive()`` reports that thread.  ``heartbeat`` (a clock sample) and
    ``current_batch`` are the supervisor's window into the worker: a live
    worker with a stale heartbeat and a held batch is *wedged*; a dead one
    with ``exited`` unset *died* mid-batch.  ``generation`` increments on
    every resurrection so restarted workers are distinguishable; ``handled``
    marks a failure the supervisor already dealt with.

    ``stats``, ``tracer`` and ``registry`` are private to the worker (none of
    them is safe to share across threads); the tracer's span ids carry a
    ``{prefix}{index}g{generation}.`` prefix so ids stay unique pool-wide.
    """

    __slots__ = (
        "index",
        "generation",
        "thread",
        "heartbeat",
        "current_batch",
        "exited",
        "handled",
        "stats",
        "tracer",
        "registry",
        "deadline_hist",
    )

    def __init__(self, index: int, generation: int, observe: bool, span_prefix: str) -> None:
        self.index = index
        self.generation = generation
        self.thread: Optional[threading.Thread] = None
        self.heartbeat: Optional[float] = None
        self.current_batch: Optional[list] = None
        self.exited = False
        self.handled = False
        self.stats = RuntimeStats()
        self.tracer = (
            Tracer(id_prefix=f"{span_prefix}{index}g{generation}.") if observe else NOOP_TRACER
        )
        self.registry = MetricsRegistry() if observe else NOOP_REGISTRY
        self.deadline_hist = self.registry.histogram(
            "request_deadline_remaining_seconds",
            help="remaining deadline budget sampled at worker dispatch",
        )

    @property
    def started(self) -> bool:
        """Whether this worker was ever started (supervisor scans skip it otherwise)."""
        return self.thread is not None

    def alive(self) -> bool:
        return self.thread is not None and self.thread.is_alive()


class WorkerTransport(abc.ABC):
    """The worker-pool core: what the pipeline and supervisor drive.

    A transport owns admission queueing (``submit`` raises
    :class:`~repro.runtime.errors.QueueFull` — backpressure), batch dispatch
    to its workers, and the per-worker records the supervisor scans.  The
    contract every implementation honours:

    * every submitted request's future eventually resolves (conservation) —
      served, degraded or swept at shutdown;
    * ``requeue(worker, requests)`` re-admits a dead worker's survivors at
      the front of the queue feeding that worker's replacement;
    * worker death surfaces as ``alive() == False`` with ``exited`` unset
      while ``current_batch`` holds the work in flight — the signature
      :class:`~repro.core.serving.WorkerSupervisor` scans for;
    * ``restart_worker`` replaces a worker with a fresh ``generation`` and
      fresh per-worker state, retiring (not discarding) its counters.

    The core implements everything but the queue surface and three hooks:
    :meth:`_make_worker` (build a record, spawning whatever backs it),
    :meth:`_next_batch` (the queue feeding a worker), :meth:`_brief` (turn a
    list of live requests into briefs, raising
    :class:`~repro.runtime.chaos.WorkerDeath` if the worker died under them)
    — plus the optional :meth:`_kill` and :meth:`_on_exit`.  Subclasses set
    their own state before calling ``super().__init__``, which makes the
    workers.
    """

    #: short name recorded in stats/bench output ("thread" / "process").
    transport_name: str = "abstract"

    def __init__(
        self,
        num_workers: int,
        *,
        clock: Optional[Callable[[], float]] = None,
        governor=None,
        chaos=None,
        observe: bool = False,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.clock = clock if clock is not None else time.monotonic
        self.governor = governor
        self.chaos = chaos
        self.observe = observe
        self._lock = threading.Lock()
        self._retired: List[WorkerRecord] = []
        self._workers: List[WorkerRecord] = []
        # One at a time: a process worker made later needs the pipe ends of
        # the ones made before it.
        for index in range(num_workers):
            self._workers.append(self._make_worker(index, 0))

    # -- what each transport provides ------------------------------------
    @abc.abstractmethod
    def submit(self, request) -> None:
        """Admit one request or raise :class:`QueueFull` (never blocks)."""

    @property
    @abc.abstractmethod
    def depth(self) -> int:
        """Requests admitted but not yet handed to a worker."""

    @abc.abstractmethod
    def close(self) -> None:
        """Stop admission; queued work keeps draining (clean shutdown)."""

    @abc.abstractmethod
    def drain(self) -> list:
        """Remove and return everything still queued (shutdown sweeper)."""

    @abc.abstractmethod
    def requeue(self, worker, requests: Iterable[object]) -> None:
        """Re-admit a failed worker's surviving requests at the queue front."""

    @abc.abstractmethod
    def _make_worker(self, index: int, generation: int) -> WorkerRecord:
        """A fresh, not yet started worker record for slot ``index``."""

    @abc.abstractmethod
    def _next_batch(self, worker) -> Optional[list]:
        """Block for the worker's next micro-batch; ``None`` = exit."""

    @abc.abstractmethod
    def _brief(self, worker, live: list, now: float, student_only: bool) -> list:
        """Briefs for ``live`` (sampled at ``now``), aligned with it.

        Raises :class:`~repro.runtime.chaos.WorkerDeath` when the worker
        died under the batch; any other exception degrades the batch.
        """

    def _kill(self, worker) -> None:
        """End what backs a dead or reaped worker (a thread ends by itself)."""

    def _on_exit(self, worker) -> None:
        """The worker saw the exit signal; release what backs it."""

    def reap(self) -> None:
        """Release any out-of-process resources (no-op for threads)."""

    # -- pool bookkeeping --------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self._workers)

    @property
    def workers(self) -> list:
        """Live worker records (for the supervisor; treat as read-only)."""
        with self._lock:
            return list(self._workers)

    def _all_workers(self) -> list:
        with self._lock:
            return list(self._workers) + list(self._retired)

    def _is_current(self, worker) -> bool:
        with self._lock:
            return self._workers[worker.index] is worker

    def start(self) -> None:
        """Start every worker not started yet (idempotent)."""
        for worker in self.workers:
            if worker.thread is None:
                self._start_worker(worker)

    def _start_worker(self, worker) -> None:
        thread = threading.Thread(
            target=self._run,
            args=(worker,),
            name=f"brief-worker-{worker.index}-g{worker.generation}",
            daemon=True,
        )
        worker.thread = thread
        thread.start()

    def restart_worker(self, worker):
        """Replace a dead/wedged worker with a fresh generation.

        The old worker's stats/tracer/registry are retired (still counted in
        merged reads); the replacement gets entirely fresh per-worker state,
        so a crash can never leave a worker with corrupted internals.  The
        old worker is not stopped here: a wedged one may still be mid-batch,
        and either finishes late (``_resolve`` is idempotent) or is reaped at
        shutdown.  Returns the replacement, or ``None`` if ``worker`` was
        already replaced (two supervision passes racing).
        """
        with self._lock:
            if self._workers[worker.index] is not worker:
                return None
            replacement = self._make_worker(worker.index, worker.generation + 1)
            self._retired.append(worker)
            self._workers[worker.index] = replacement
        self._start_worker(replacement)
        return replacement

    def join(self, timeout: Optional[float] = None) -> List[str]:
        """Wait for every started worker to exit (the queue must be closed).

        A single absolute deadline is shared across all joins — ``timeout``
        bounds the *total* wall time, not each worker's.  Returns the names
        of threads still alive when the deadline hit (empty on clean exit).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            # Fresh snapshot each round: the supervisor may have swapped in
            # replacement workers while we were joining the previous ones.
            alive = [worker.thread for worker in self.stuck_workers()]
            if not alive:
                return []
            for thread in alive:
                if deadline is None:
                    thread.join()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    thread.join(timeout=remaining)
            if deadline is not None and time.monotonic() >= deadline:
                return [thread.name for thread in alive if thread.is_alive()]

    def stuck_workers(self) -> list:
        """Workers whose thread is still alive (after a failed join)."""
        return [worker for worker in self.workers if worker.alive()]

    # -- dispatch ----------------------------------------------------------
    def _run(self, worker) -> None:
        """The worker loop: pull micro-batches until the exit signal."""
        while True:
            worker.heartbeat = self.clock()
            if not self._is_current(worker):
                return  # replaced; the replacement owns this slot's work
            batch = self._next_batch(worker)
            if batch is None:
                self._on_exit(worker)
                worker.exited = True
                return
            worker.heartbeat = self.clock()
            worker.current_batch = batch
            try:
                self._serve_batch(worker, batch)
            except WorkerDeath:
                # The worker died under this batch: stop right here with
                # ``exited`` unset and ``current_batch`` still held — the
                # exact signature the supervisor (or the shutdown sweep)
                # resolves.  A worker already replaced after a wedge holds
                # nothing: its batch's survivors were re-queued at the swap.
                self._kill(worker)
                if not self._is_current(worker):
                    worker.current_batch = None
                return
            # Only a normal completion clears the held batch.
            worker.current_batch = None

    def _serve_batch(self, worker, batch: list) -> None:
        """Serve one micro-batch; raises ``WorkerDeath`` if the worker died."""
        worker.stats.inc("batches_dispatched")
        now = self.clock()
        live: list = []
        for request in batch:
            if request.expired(now):
                worker.stats.inc("deadline_expirations")
                _resolve(request.future, _deadline_partial("before dispatch"))
                continue
            if request.deadline is not None:
                worker.deadline_hist.observe(max(0.0, request.deadline - now))
            live.append(request)
        if not live:
            return
        if self.chaos is not None:
            # Injected in the dispatching thread on both transports, so the
            # seeded schedule and the shared death caps stay exact.  An
            # injected WorkerDeath (a BaseException) is deliberately not
            # caught: the worker dies holding the batch.
            try:
                self.chaos.on_batch(worker.index, len(live))
            except Exception as exc:  # injected transient fault — degrade
                for request in live:
                    _resolve(request.future, _empty_brief(exc))
                return
        started = self.clock()
        # One detached "serve" span per live request, parented under its
        # admission span: the per-request view of the shared batch.  The
        # batch's own brief_many subtree is parented under the leader's
        # context inside the pipeline.
        serve_spans = []
        if worker.tracer.enabled:
            for request in live:
                if request.trace is None:
                    continue
                serve_spans.append(
                    worker.tracer.open(
                        "serve",
                        trace=request.trace,
                        doc_id=request.doc_id,
                        batch_pages=len(live),
                        shard=worker.index,
                    )
                )
        # Overload forces the cascade to student-only service: at shedding or
        # cache_only no teacher escalation may be spent on this batch.  The
        # flag is sampled once per batch so every document in it sees one
        # consistent policy.
        student_only = self.governor is not None and self.governor.level >= 2
        try:
            briefs = self._brief(worker, live, now, student_only)
        except BaseException as exc:
            for span in serve_spans:
                span.record_error(exc).finish()
            if not isinstance(exc, Exception):
                raise  # WorkerDeath: the worker dies holding the batch
            for request in live:  # brief_many never raises; last resort
                _resolve(request.future, _empty_brief(exc))
            return
        if self.governor is not None:
            self.governor.observe_batch(self.clock() - started, len(live))
        for request, brief in zip(live, briefs):
            _resolve(request.future, brief)
        for span in serve_spans:
            span.finish()

    # -- merged observability ------------------------------------------------
    def merged_stats(self) -> RuntimeStats:
        """Element-wise sum of every worker's counters (retired included)."""
        merged = RuntimeStats()
        for worker in self._all_workers():
            merged = merged.merge(worker.stats)
        return merged

    def _worker_metrics(self, worker) -> MetricsSnapshot:
        return worker.registry.snapshot()

    def _worker_spans(self, worker) -> list:
        return list(worker.tracer.spans)

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Associative merge of every worker's metrics (retired included).

        Contract: every series is stamped with ``worker`` / ``transport`` /
        ``generation`` provenance labels at merge time (labels already on a
        series win), whichever side of a process boundary it was recorded
        on, so ``MetricsSnapshot.aggregate()`` collapses transports
        identically and per-worker breakdowns survive resurrection.
        """
        merged = MetricsSnapshot()
        for worker in self._all_workers():
            merged = merged.merge(
                self._worker_metrics(worker).with_labels(
                    worker=worker.index,
                    transport=self.transport_name,
                    generation=worker.generation,
                )
            )
        return merged

    def trace_spans(self) -> list:
        """Finished spans from every worker (retired included).

        Contract: span ids are globally unique across the pool (per-tracer
        id prefixes), every span carries ``worker`` / ``transport`` /
        ``generation`` attributes, and spans recorded in a worker process
        come back as :class:`~repro.obs.SpanRecord` — homogeneous with
        in-process :class:`~repro.obs.Span` (same attributes, same
        ``to_dict()``), so one request's spans reassemble into a single
        connected trace no matter which transport served it.
        """
        spans = []
        for worker in self._all_workers():
            for span in self._worker_spans(worker):
                span.attributes.setdefault("worker", worker.index)
                span.attributes.setdefault("transport", self.transport_name)
                span.attributes.setdefault("generation", worker.generation)
                spans.append(span)
        return spans


class ModelSnapshot:
    """A picklable, self-contained model + inference environment.

    The model is serialised eagerly at construction (in the parent), so
    every worker process restores the *same* weights and the same model RNG
    state regardless of when it spawns — a worker resurrected mid-run is
    bit-identical to one started at boot.  ``default_dtype`` records the
    ``nn`` process default dtype at snapshot time; a worker process applies
    it before restoring, so a parent running under
    ``nn.set_default_dtype(np.float32)`` gets float32 workers.
    """

    def __init__(self, model, dtype=None) -> None:
        from .cascade import CascadeModel  # local: cascade imports core siblings

        self.blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        #: dtype the serving pipeline runs inference under (or None).
        self.pipeline_dtype = None if dtype is None else np.dtype(dtype).str
        #: the nn-wide default dtype in effect when the snapshot was taken.
        self.default_dtype = np.dtype(get_default_dtype()).str
        #: whether the snapshot wraps a tiered CascadeModel — lets the front
        #: door pick cascade serving without unpickling the blob.
        self.is_cascade = isinstance(model, CascadeModel)

    @property
    def num_bytes(self) -> int:
        return len(self.blob)

    def restore(self):
        """Deserialise the model: ``(model, pipeline_dtype)``.

        Only unpickles — no process-wide state changes, so restoring in the
        caller's own process is safe.  Unpickling does not depend on the
        ``nn`` default dtype (arrays keep their pickled dtype).
        """
        model = pickle.loads(self.blob)
        dtype = None if self.pipeline_dtype is None else np.dtype(self.pipeline_dtype)
        return model, dtype


def _ring_point(key: str) -> int:
    """A stable 64-bit ring coordinate (sha256, so identical cross-process)."""
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


class ConsistentHashRouter:
    """Consistent-hash ring mapping content-hash keys to worker shards.

    Each shard owns ``vnodes`` points on a 64-bit ring; a key routes to the
    shard owning the first point at or after the key's own ring coordinate.
    Points are derived from the shard *index* only, so the mapping is stable
    across processes, runs and worker restarts (a resurrected shard keeps
    its keys), and virtual nodes keep the split close to uniform.
    """

    def __init__(self, num_shards: int, vnodes: int = 64) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.num_shards = num_shards
        self.vnodes = vnodes
        ring = [
            (_ring_point(f"shard-{shard}/vnode-{vnode}"), shard)
            for shard in range(num_shards)
            for vnode in range(vnodes)
        ]
        ring.sort()
        self._points = [point for point, _ in ring]
        self._shards = [shard for _, shard in ring]

    def route(self, key: str) -> int:
        """The shard index owning ``key`` (deterministic)."""
        index = bisect.bisect_left(self._points, _ring_point(key))
        if index == len(self._points):
            index = 0  # wrap around the ring
        return self._shards[index]

    def distribution(self, keys: Iterable[str]) -> Dict[int, int]:
        """Keys-per-shard histogram (for tests and capacity checks)."""
        counts: Dict[int, int] = {shard: 0 for shard in range(self.num_shards)}
        for key in keys:
            counts[self.route(key)] += 1
        return counts
