"""BENCH_serving.json plumbing: merge-not-clobber saves and report diffing."""

import json

from repro.core import compare_reports, merge_bench_report, save_section
from repro.core.bench import (
    ConcurrencyBenchResult,
    MultiprocessBenchResult,
    ResilienceBenchResult,
)


# ----------------------------------------------------------------------
# merge_bench_report: one file, many bench modes, no clobbering
# ----------------------------------------------------------------------
def test_merge_updates_only_its_own_keys(tmp_path):
    path = str(tmp_path / "bench.json")
    merge_bench_report(path, {"decode": {"speedup": 3.0}})
    merge_bench_report(path, {"resilience": {"conserved": True}})
    merged = merge_bench_report(path, {"decode": {"speedup": 4.0}})
    assert merged == {"decode": {"speedup": 4.0}, "resilience": {"conserved": True}}
    with open(path) as handle:
        assert json.load(handle) == merged


def test_merge_starts_fresh_on_missing_or_corrupt_file(tmp_path):
    path = str(tmp_path / "bench.json")
    assert merge_bench_report(path, {"a": 1}) == {"a": 1}
    with open(path, "w") as handle:
        handle.write("{not json")
    assert merge_bench_report(path, {"b": 2}) == {"b": 2}
    with open(path, "w") as handle:
        json.dump(["a", "list"], handle)
    assert merge_bench_report(path, {"c": 3}) == {"c": 3}


def test_section_saves_preserve_siblings(tmp_path):
    """Running one bench mode must not erase what the other modes recorded —
    the regression that motivated merge_bench_report: each .save() used to
    rewrite the whole file."""
    path = str(tmp_path / "bench.json")
    merge_bench_report(path, {"decode": {"speedup": 3.0}, "batched": {"docs_per_second": 100.0}})

    ConcurrencyBenchResult(
        num_pages=4, unique_pages=4, workers=2, max_batch=2,
        single_worker_seconds=1.0, single_worker_docs_per_second=4.0,
        per_request_batched_seconds=0.8, per_request_batched_docs_per_second=5.0,
        concurrent_seconds=0.5, concurrent_docs_per_second=8.0, speedup=2.0,
    ).save(path)
    ResilienceBenchResult(
        num_requests=4, unique_pages=4, workers=2, rounds=1,
        exception_rate=0.0, stall_rate=0.0, death_rate=0.0, chaos_seed=0,
        seconds=1.0, docs_per_second=4.0, fault_free_seconds=1.0,
        fault_free_docs_per_second=4.0, throughput_ratio=1.0,
        p50_ms=1.0, p99_ms=2.0, conserved=True, unresolved=0,
    ).save(path)
    MultiprocessBenchResult(
        num_pages=4, unique_pages=4, workers=2, max_batch=2, beam_size=2,
        cpu_count=1, start_method="fork", sequential_seconds=1.0,
        sequential_docs_per_second=4.0,
    ).save(path)

    with open(path) as handle:
        report = json.load(handle)
    assert report["decode"] == {"speedup": 3.0}
    assert report["batched"] == {"docs_per_second": 100.0}
    assert report["concurrency"]["speedup"] == 2.0
    assert report["resilience"]["throughput"]["docs_per_second"] == 4.0
    assert report["multiprocess"]["start_method"] == "fork"


# ----------------------------------------------------------------------
# save_section: the one helper every .save() now goes through
# ----------------------------------------------------------------------
def test_save_section_nests_under_its_key_and_preserves_siblings(tmp_path):
    path = str(tmp_path / "bench.json")
    save_section(path, "multiprocess", {"speedup": 2.0})
    save_section(path, "cascade", {"ok": True})
    merged = save_section(path, "multiprocess", {"speedup": 2.5})
    assert merged == {"multiprocess": {"speedup": 2.5}, "cascade": {"ok": True}}
    with open(path) as handle:
        assert json.load(handle) == merged


def test_save_section_top_level_mode_merges_payload_directly(tmp_path):
    """section=None is the BenchResult.save shape: the payload's own keys
    merge at the top level instead of nesting under a section name."""
    path = str(tmp_path / "bench.json")
    save_section(path, "resilience", {"conserved": True})
    merged = save_section(path, None, {"decode": {"speedup": 3.0}, "batched": {"x": 1}})
    assert merged["resilience"] == {"conserved": True}
    assert merged["decode"] == {"speedup": 3.0}
    assert merged["batched"] == {"x": 1}


# ----------------------------------------------------------------------
# compare_reports: the --compare SLO gate
# ----------------------------------------------------------------------
def _report(thread_dps=100.0, process_dps=200.0, p99=50.0):
    return {
        "multiprocess": {
            "transports": {
                "thread": {"docs_per_second": thread_dps, "latency_p99_ms": p99},
                "process": {"docs_per_second": process_dps, "latency_p99_ms": p99},
            }
        }
    }


def test_compare_flags_throughput_regression():
    comparison = compare_reports(_report(), _report(process_dps=100.0), threshold=0.2)
    assert not comparison.ok
    assert any("process.docs_per_second" in line for line in comparison.regressions)
    assert "REGRESSION" in comparison.format()


def test_compare_flags_latency_regression():
    comparison = compare_reports(_report(), _report(p99=120.0), threshold=0.2)
    assert not comparison.ok
    assert any("latency_p99_ms" in line for line in comparison.regressions)


def test_compare_tolerates_changes_within_threshold():
    comparison = compare_reports(
        _report(), _report(thread_dps=85.0, process_dps=190.0, p99=55.0), threshold=0.2
    )
    assert comparison.ok
    assert len(comparison.compared) == 4


def test_compare_reports_improvements_without_failing():
    comparison = compare_reports(_report(), _report(process_dps=400.0), threshold=0.2)
    assert comparison.ok
    assert any("process.docs_per_second" in line for line in comparison.improvements)


def test_compare_skips_sections_missing_from_either_side():
    """A report that never ran a bench mode can't fail the gate on it."""
    previous = {"sequential": {"docs_per_second": 50.0}}
    current = _report()
    comparison = compare_reports(previous, current, threshold=0.2)
    assert comparison.ok
    assert comparison.compared == []

    both = compare_reports(previous, {"sequential": {"docs_per_second": 10.0}})
    assert both.compared == ["sequential.docs_per_second"]
    assert not both.ok


def test_compare_latency_floor_ignores_micro_jitter():
    """Sub-millisecond latencies compare against a 1 ms floor, so noise on
    near-zero numbers never fails CI."""
    previous = _report(p99=0.01)
    current = _report(p99=0.5)  # 50x worse, but still under a millisecond
    assert compare_reports(previous, current, threshold=0.2).ok


def test_compare_threshold_is_validated():
    import pytest

    with pytest.raises(ValueError):
        compare_reports({}, {}, threshold=-0.1)

