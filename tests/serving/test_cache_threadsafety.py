"""Thread-safety and capacity of BriefCache, the one serving cache.

``test_get_survives_concurrent_eviction`` is the regression for the
pre-serving ``BriefCache``, which guarded nothing: a ``get`` that had
already fetched an entry could lose its key to a concurrent ``put``'s
eviction and crash in ``move_to_end`` with ``KeyError``, and the unguarded
``hits``/``misses`` increments could drop updates.  CPython's switch
interval makes that window astronomically narrow under plain hammering, so
the regression forces the interleaving deterministically: the cached
content's ``__eq__`` parks the reader *inside* the (previously unguarded)
window while another thread evicts its key.  On the unlocked code this
raises ``KeyError`` every run; with the per-cache lock the evicting ``put``
blocks until the reader is done.

The hammering tests then assert the conservation invariant the serving
stats depend on — ``hits + misses == lookups`` — under real thread-pool
contention and eviction pressure.  Every serving front door (brief, render
and student caches, both transports) is a plain ``BriefCache``: one lock per
operation, the key hashed outside it, and ``capacity`` one global LRU — which
the last test pins end to end through ``ConcurrentBriefingPipeline``.
"""

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import BriefCache, ConcurrentBriefingPipeline

THREADS = 8
OPS_PER_THREAD = 2000


class ParkingStr(str):
    """Content whose equality check parks, widening the get/evict race window."""

    gate = None  # armed with an Event; set (and disarmed) on the first match
    park_seconds = 0.2

    def __eq__(self, other):
        equal = str.__eq__(self, other)
        if ParkingStr.gate is not None and equal is True:
            gate, ParkingStr.gate = ParkingStr.gate, None
            gate.set()
            time.sleep(ParkingStr.park_seconds)
        return equal

    def __ne__(self, other):
        equal = self.__eq__(other)
        return NotImplemented if equal is NotImplemented else not equal

    def __hash__(self):
        return str.__hash__(self)


def test_get_survives_concurrent_eviction():
    """A put must not evict a key out from under a get in progress."""
    cache = BriefCache(1, hash_fn=str)
    victim = ParkingStr("victim page")
    cache.put(victim, "brief")

    gate = threading.Event()
    errors, results = [], []

    def reader():
        try:
            results.append(cache.get("victim page"))
        except BaseException as exc:  # pragma: no cover - the regression itself
            errors.append(exc)

    ParkingStr.gate = gate
    thread = threading.Thread(target=reader)
    thread.start()
    assert gate.wait(timeout=5), "reader never reached the comparison"
    # The reader is parked mid-get; on the old unlocked cache this eviction
    # deleted its key and the resumed move_to_end raised KeyError.
    cache.put("evictor page", "other brief")
    thread.join(timeout=5)

    assert not errors, f"get crashed under concurrent eviction: {errors!r}"
    assert results == ["brief"]
    assert cache.hits + cache.misses == 1


def _hammer(cache, worker_seed, keys):
    rng = random.Random(worker_seed)
    for _ in range(OPS_PER_THREAD):
        key = rng.choice(keys)
        if cache.get(key) is None:
            cache.put(key, key.upper())


def test_brief_cache_conserves_counters_under_contention():
    """Eviction pressure + 8 threads: no crashes, hits + misses == lookups."""
    cache = BriefCache(4)  # smaller than the key pool → constant eviction
    keys = [f"content-{i}" for i in range(8)]
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        list(pool.map(lambda seed: _hammer(cache, seed, keys), range(THREADS)))
    assert cache.hits + cache.misses == THREADS * OPS_PER_THREAD
    assert len(cache) <= 4


def test_sharded_cache_conserves_counters_under_contention():
    """Twice as many keys as capacity, 8 threads: every lookup counted once."""
    cache = BriefCache(8)
    keys = [f"content-{i}" for i in range(16)]
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        list(pool.map(lambda seed: _hammer(cache, seed, keys), range(THREADS)))
    assert cache.hits + cache.misses == THREADS * OPS_PER_THREAD
    assert len(cache) <= 8


# ----------------------------------------------------------------------
# BriefCache unit behaviour (single-threaded contract)
# ----------------------------------------------------------------------
def test_sharded_cache_round_trip_and_counters():
    cache = BriefCache(16)
    assert cache.get("a") is None
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert "a" in cache
    assert (cache.hits, cache.misses) == (1, 1)
    assert len(cache) == 1
    assert len(cache.keys()) == 1


def test_sharded_cache_zero_capacity_disables():
    cache = BriefCache(0)
    cache.put("a", 1)
    assert cache.get("a") is None
    assert len(cache) == 0


def test_counter_merge_is_associative_across_shards():
    """Hammered concurrently with four times as many keys as capacity, no
    increment is lost or double-counted and the capacity bound holds."""
    cache = BriefCache(8)
    keys = [f"content-{i}" for i in range(32)]
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        list(pool.map(lambda seed: _hammer(cache, seed, keys), range(THREADS)))
    assert cache.hits + cache.misses == THREADS * OPS_PER_THREAD
    assert len(cache) == len(cache.keys()) <= 8


def test_concurrent_mixed_get_put_across_shards_conserves():
    """Four threads on disjoint key groups that together fit the capacity:
    every lookup is counted once, and once warm every group keeps hitting."""
    cache = BriefCache(24)
    groups = {group: [f"group-{group}/{i}" for i in range(6)] for group in range(4)}
    counts = {}

    def hammer_group(group):
        rng = random.Random(group)
        misses = 0
        for _ in range(OPS_PER_THREAD):
            key = rng.choice(groups[group])
            if cache.get(key) is None:
                misses += 1
                cache.put(key, key)
        counts[group] = misses

    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(hammer_group, range(4)))
    assert cache.hits + cache.misses == 4 * OPS_PER_THREAD
    # 24 keys in a 24-entry cache: nothing is ever evicted, so each group
    # misses exactly once per key.
    assert counts == {group: 6 for group in range(4)}
    assert len(cache) == 24


def test_sharded_cache_collision_safety_is_inherited():
    cache = BriefCache(8, hash_fn=lambda content: "bucket")
    cache.put("page one", "brief one")
    assert cache.get("page two") is None  # same hash, different content → miss


# ----------------------------------------------------------------------
# The serving front door keeps all of its capacity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("capacity", [16, 256])
def test_front_cache_holds_its_full_capacity(serving_model, capacity):
    """``brief_cache_size=N`` holds N pages: after briefing N distinct pages,
    replaying them is N front-door cache hits (a cache split into
    separately-evicting shards keeps only part of them)."""
    pages = [
        (f"page-{i}", f"<html><body><p>front cache page {i}</p><p>the price is {i}</p></body></html>")
        for i in range(capacity)
    ]
    server = ConcurrentBriefingPipeline(
        serving_model,
        num_workers=2,
        beam_size=2,
        brief_cache_size=capacity,
        max_queue=2 * capacity,
        governor=False,
    )
    try:
        first = server.brief_many(pages)
        assert all(brief.complete for brief in first)
        hits_before = server.stats.cache_hits
        replay = server.brief_many(pages)
        replay_hits = server.stats.cache_hits - hits_before
    finally:
        server.shutdown(timeout=30)
    assert replay_hits == capacity
    assert len(server.brief_cache) == capacity
    for want, got in zip(first, replay):
        assert got.topic == want.topic
        assert got.attributes == want.attributes
