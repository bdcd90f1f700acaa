"""The transport-agnostic worker protocol behind the concurrent pipeline.

:class:`~repro.core.serving.ConcurrentBriefingPipeline` historically owned a
thread pool directly.  Scaling past the GIL means the *same* front door —
single-flight coalescing, governor shedding, deadline sweeps, supervision —
must drive workers that live in other processes.  This module defines the
seam:

* :class:`WorkerTransport` — the interface every worker backend implements.
  :class:`~repro.core.serving.WorkerPool` (threads over shared weights) and
  :class:`~repro.core.process_pool.ProcessWorkerPool` (one model copy per
  process) are the two implementations.  The supervisor and the pipeline
  talk only to this surface, so backpressure, deadlines, shedding and
  restart semantics are identical across transports.
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

Worker records exposed through :attr:`WorkerTransport.workers` share a small
duck-typed surface the supervisor scans: ``index``, ``generation``,
``started``, ``alive()``, ``heartbeat``, ``current_batch``, ``exited``,
``handled`` and ``stats``.
"""

from __future__ import annotations

import abc
import bisect
import hashlib
import pickle
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..nn.tensor import get_default_dtype, set_default_dtype

__all__ = ["WorkerTransport", "ModelSnapshot", "ConsistentHashRouter"]


class WorkerTransport(abc.ABC):
    """What the pipeline and supervisor require of a worker backend.

    A transport owns admission queueing (``submit`` raises
    :class:`~repro.runtime.errors.QueueFull` — backpressure), batch dispatch
    to its workers, and the per-worker records the supervisor scans.  The
    contract both implementations honour:

    * every submitted request's future eventually resolves (conservation) —
      served, degraded or swept at shutdown;
    * ``requeue(worker, requests)`` re-admits a dead worker's survivors at
      the front of the queue feeding that worker's replacement;
    * worker death surfaces as ``alive() == False`` with ``exited`` unset
      while ``current_batch`` holds the work in flight — the signature
      :class:`~repro.core.serving.WorkerSupervisor` scans for;
    * ``restart_worker`` replaces a worker with a fresh ``generation`` and
      fresh per-worker state, retiring (not discarding) its counters.
    """

    #: short name recorded in stats/bench output ("thread" / "process").
    transport_name: str = "abstract"

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
    def start(self) -> None:
        """Start every worker (idempotent)."""

    @abc.abstractmethod
    def restart_worker(self, worker):
        """Replace a dead/wedged worker with a fresh generation (or None)."""

    @abc.abstractmethod
    def join(self, timeout: Optional[float] = None) -> List[str]:
        """Wait for workers to exit; return names of the ones that didn't."""

    @abc.abstractmethod
    def stuck_workers(self) -> list:
        """Workers still running after a failed :meth:`join`."""

    @property
    @abc.abstractmethod
    def num_workers(self) -> int: ...

    @property
    @abc.abstractmethod
    def workers(self) -> list:
        """Live worker records (supervisor surface; treat as read-only)."""

    @abc.abstractmethod
    def merged_stats(self):
        """Every worker's counters summed, retired workers included."""

    @abc.abstractmethod
    def metrics_snapshot(self):
        """Associative merge of per-worker metric registries.

        Contract: every series is stamped with ``worker`` / ``transport`` /
        ``generation`` provenance labels at merge time (labels already on a
        series win), whichever side of a process boundary it was recorded
        on, so ``MetricsSnapshot.aggregate()`` collapses transports
        identically and per-worker breakdowns survive resurrection.
        Retired workers' series are included — restarts never lose counts.
        """

    @abc.abstractmethod
    def trace_spans(self) -> list:
        """Finished tracer spans from every worker (retired included).

        Contract: span ids are globally unique across the pool (per-tracer
        id prefixes), every span carries ``worker`` / ``transport`` /
        ``generation`` attributes, and spans recorded in a worker process
        come back as :class:`~repro.obs.SpanRecord` — homogeneous with
        in-process :class:`~repro.obs.Span` (same attributes, same
        ``to_dict()``), so one request's spans reassemble into a single
        connected trace no matter which transport served it.
        """

    def reap(self) -> None:
        """Release any out-of-process resources (no-op for threads)."""


class ModelSnapshot:
    """A picklable, self-contained model + inference environment.

    The model is serialised eagerly at construction (in the parent), so
    every worker process restores the *same* weights and the same model RNG
    state regardless of when it spawns — a worker resurrected mid-run is
    bit-identical to one started at boot.  :meth:`restore` also re-applies
    the ``nn`` process default dtype captured at snapshot time, so a parent
    running under ``nn.set_default_dtype(np.float32)`` gets float32 workers.
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
        """Deserialise in a worker process: ``(model, pipeline_dtype)``.

        Sets the process-wide ``nn`` default dtype *before* unpickling, so
        any tensors materialised during restore already use it.
        """
        set_default_dtype(np.dtype(self.default_dtype))
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
