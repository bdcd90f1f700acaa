"""ModelSnapshot, ConsistentHashRouter and process-transport plumbing."""

import multiprocessing
import os
import pickle
import select
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro import nn
from repro.core import (
    BatchedBriefingPipeline,
    BriefingPipeline,
    ConcurrentBriefingPipeline,
    ConsistentHashRouter,
    ModelSnapshot,
)

from .test_deadlines import PAGE_A, PAGE_B


# ----------------------------------------------------------------------
# ModelSnapshot
# ----------------------------------------------------------------------
def test_snapshot_round_trip_restores_identical_model(serving_model):
    snapshot = ModelSnapshot(serving_model)
    assert snapshot.num_bytes > 0
    restored, dtype = snapshot.restore()
    assert restored is not serving_model
    assert dtype is None
    want = BriefingPipeline(serving_model, beam_size=2).brief_html(PAGE_A)
    got = BriefingPipeline(restored, beam_size=2).brief_html(PAGE_A)
    assert got.topic == want.topic
    assert got.attributes == want.attributes
    assert got.informative_sentences == want.informative_sentences


def test_snapshot_restores_are_independent_and_identical(serving_model):
    """Every restore (a worker spawned at boot, one resurrected mid-run)
    deserialises the same frozen blob: distinct model objects, identical
    predictions."""
    snapshot = ModelSnapshot(serving_model)
    first, _ = snapshot.restore()
    second, _ = snapshot.restore()
    assert first is not second
    want = BriefingPipeline(first, beam_size=2).brief_html(PAGE_B)
    got = BriefingPipeline(second, beam_size=2).brief_html(PAGE_B)
    assert got.topic == want.topic
    assert got.attributes == want.attributes
    assert got.informative_sentences == want.informative_sentences


def test_snapshot_carries_dtype_environment(serving_model):
    """The snapshot records the dtype environment; restoring it in-process
    returns the pipeline dtype and leaves the caller's override untouched
    (worker processes apply ``default_dtype`` themselves — float32
    propagation into them is covered by ``test_transports_agree_under_float32``)."""
    prior = nn.get_dtype_override()
    try:
        nn.set_default_dtype(np.float32)
        snapshot = ModelSnapshot(serving_model, dtype=np.float32)
    finally:
        nn.set_default_dtype(prior)
    assert np.dtype(snapshot.default_dtype) == np.float32
    assert np.dtype(snapshot.pipeline_dtype) == np.float32
    _, dtype = snapshot.restore()
    assert dtype == np.float32
    assert nn.get_dtype_override() == prior


def test_concurrent_serving_accepts_a_snapshot(serving_model, page_stream):
    """The thread-transport front door takes the snapshot the CLI ships, not
    just live models, and restoring it in-process leaves the caller's
    process dtype override exactly as it was."""
    pages = page_stream[:12]
    prior = nn.get_dtype_override()
    try:
        nn.set_default_dtype(np.float32)
        snapshot = ModelSnapshot(serving_model, dtype=np.float32)
    finally:
        nn.set_default_dtype(prior)
    expected = BatchedBriefingPipeline(
        serving_model, beam_size=2, batch_size=8, dtype=np.float32
    ).brief_many(pages)
    try:
        server = ConcurrentBriefingPipeline(
            snapshot, num_workers=2, beam_size=2, max_batch=8, max_queue=128
        )
        # Accepting a float32 snapshot must not touch the process dtype.
        assert nn.get_dtype_override() == prior
        try:
            briefs = server.brief_many(pages)
        finally:
            server.shutdown(timeout=30)
    finally:
        nn.set_default_dtype(prior)
    assert len(briefs) == len(pages)
    for want, got in zip(expected, briefs):
        assert got.topic == want.topic
        assert got.attributes == want.attributes
        assert got.informative_sentences == want.informative_sentences


# ----------------------------------------------------------------------
# ConsistentHashRouter
# ----------------------------------------------------------------------
KEYS = [f"content-hash-{i}" for i in range(2000)]


def test_router_is_deterministic_across_instances():
    first = ConsistentHashRouter(4)
    second = ConsistentHashRouter(4)
    assert [first.route(key) for key in KEYS[:200]] == [
        second.route(key) for key in KEYS[:200]
    ]


def test_router_spreads_keys_roughly_uniformly():
    router = ConsistentHashRouter(4, vnodes=64)
    counts = router.distribution(KEYS)
    assert set(counts) == {0, 1, 2, 3}
    expected = len(KEYS) / 4
    for shard, count in counts.items():
        assert count > expected * 0.5, f"shard {shard} starved: {counts}"
        assert count < expected * 1.5, f"shard {shard} overloaded: {counts}"


def test_router_reshuffles_minimally_when_scaling():
    """Consistent hashing's point: adding a shard moves ~1/N of the keys,
    not all of them (modulo hashing would move ~4/5 here)."""
    four = ConsistentHashRouter(4)
    five = ConsistentHashRouter(5)
    moved = sum(1 for key in KEYS if four.route(key) != five.route(key))
    assert moved / len(KEYS) < 0.45


def test_router_single_shard_and_validation():
    router = ConsistentHashRouter(1)
    assert router.route("anything") == 0
    with pytest.raises(ValueError):
        ConsistentHashRouter(0)
    with pytest.raises(ValueError):
        ConsistentHashRouter(2, vnodes=0)


# ----------------------------------------------------------------------
# ProcessWorkerPool through the pipeline front door
# ----------------------------------------------------------------------
def test_process_transport_serves_and_counts(serving_model):
    server = ConcurrentBriefingPipeline(
        serving_model, num_workers=2, transport="process", beam_size=2,
        max_batch=4, max_wait_ms=0.0, supervise=False,
    )
    try:
        first = server.submit(PAGE_A, doc_id="first").result(timeout=60)
        assert first.complete
        # Same content again: a front-door cache hit, no second model pass.
        again = server.submit(PAGE_A, doc_id="again").result(timeout=60)
        assert again.complete and again.topic == first.topic
    finally:
        server.shutdown(timeout=60)
    merged = server.merged_stats()
    assert merged.cache_misses == 1
    assert merged.cache_hits == 1
    assert server.pool.transport_name == "process"


def test_externally_killed_process_is_resurrected(serving_model):
    """SIGTERM from outside (OOM-killer stand-in) while the worker is idle:
    the next batch surfaces the dead pipe, the supervisor re-spawns the
    process with a fresh generation, and serving continues."""
    server = ConcurrentBriefingPipeline(
        serving_model, num_workers=1, transport="process", beam_size=2,
        max_batch=1, max_wait_ms=0.0, supervisor_poll_ms=5.0,
    )
    try:
        assert server.submit(PAGE_A, doc_id="warm").result(timeout=60).complete
        victim = server.pool.workers[0]
        victim.process.terminate()
        victim.process.join(timeout=10)
        brief = server.submit(PAGE_B, doc_id="after-kill").result(timeout=60)
        assert brief.complete
    finally:
        server.shutdown(timeout=60)
    assert server.merged_stats().worker_restarts >= 1
    survivor = server.pool.workers[0]
    assert survivor.generation >= 1


def test_shutdown_resolves_everything_under_load(serving_model):
    """Conservation through shutdown on the process transport: every admitted
    future resolves (served or typed-degraded) and no dispatcher sticks."""
    server = ConcurrentBriefingPipeline(
        serving_model, num_workers=2, transport="process", beam_size=2,
        max_batch=4, max_wait_ms=1.0, max_queue=128,
    )
    pages = [
        f"<html><body><p>proc load page {i}</p><p>the price is {i}</p></body></html>"
        for i in range(24)
    ]
    futures = [server.submit(page, doc_id=f"load-{i}") for i, page in enumerate(pages)]
    stuck = server.shutdown(timeout=60)
    assert stuck == []
    for future in futures:
        assert future.result(timeout=60) is not None
    # reap() ran: no worker process outlives the pipeline.
    for worker in server.pool.workers:
        assert not worker.process.is_alive()


def test_start_method_is_recorded(serving_model):
    server = ConcurrentBriefingPipeline(
        serving_model, num_workers=1, transport="process", beam_size=2,
        supervise=False,
    )
    try:
        assert server.pool.start_method in ("fork", "spawn", "forkserver")
    finally:
        server.shutdown(timeout=30)


# ----------------------------------------------------------------------
# Orphaned workers: a SIGKILLed parent must not leave workers behind
# ----------------------------------------------------------------------
_ORPHAN_SERVER = """
import pickle, sys, time
from repro.core import ConcurrentBriefingPipeline
with open(sys.argv[1], "rb") as handle:
    snapshot = pickle.load(handle)
server = ConcurrentBriefingPipeline(
    snapshot, num_workers=int(sys.argv[2]), transport="process",
    mp_context="fork", beam_size=2, supervise=False,
)
print(" ".join(str(w.process.pid) for w in server.pool.workers), flush=True)
time.sleep(600)
"""


def _process_gone(pid):
    """True once ``pid`` has exited (gone, or a zombie nobody has reaped)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return True
    return state in ("Z", "X")


@pytest.mark.skipif(
    not os.path.isdir("/proc") or "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs /proc and the fork start method",
)
@pytest.mark.parametrize("num_workers", [1, 2])
def test_workers_exit_when_the_parent_is_sigkilled(serving_model, tmp_path, num_workers):
    """A forked worker closes every inherited parent-side pipe end (its own
    and earlier workers'), so a parent killed without cleanup turns into EOF
    on each worker's pipe and the workers exit instead of lingering."""
    blob = tmp_path / "snapshot.pkl"
    blob.write_bytes(pickle.dumps(ModelSnapshot(serving_model)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    server = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SERVER, str(blob), str(num_workers)],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    pids = []
    try:
        ready, _, _ = select.select([server.stdout], [], [], 60)
        assert ready, "server did not report its worker pids within 60 s"
        pids = [int(pid) for pid in server.stdout.readline().split()]
        assert len(pids) == num_workers
        assert not any(_process_gone(pid) for pid in pids)
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not all(_process_gone(p) for p in pids):
            time.sleep(0.05)
        lingering = [pid for pid in pids if not _process_gone(pid)]
        assert lingering == [], f"workers outlived their SIGKILLed parent: {lingering}"
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)
        server.stdout.close()
        for pid in pids:
            if not _process_gone(pid):
                os.kill(pid, signal.SIGKILL)
