import numpy as np
import pytest

from briefbench.streams import WORKLOADS, build_stream, due_times, warmup_pages


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_schedule_is_deterministic_per_seed(name):
    first = build_stream(name, seed=3, scale=0.2)
    again = build_stream(name, seed=3, scale=0.2)
    other = build_stream(name, seed=4, scale=0.2)
    assert first.requests == again.requests
    assert first.pool == again.pool
    assert first.requests != other.requests
    assert first.pass_requests(1) == again.pass_requests(1)
    assert first.pass_requests(1) != first.pass_requests(2)
    sent = first.pass_requests(1)
    assert len(sent) == len(set(sent)) == first.per_pass
    assert set(sent) <= set(first.requests)
    per_pass = WORKLOADS[name].per_pass
    assert first.per_pass == (len(first.requests) if per_pass is None else max(8, int(per_pass * 0.2)))


@pytest.mark.parametrize("name", ["crawl_batch", "serve_cold"])
def test_cache_cold_workloads_are_fully_unique(name):
    stream = build_stream(name, seed=1)
    assert len(stream.requests) == WORKLOADS[name].pages
    assert stream.unique_share == 1.0
    assert len({doc_id for doc_id, _ in stream.requests}) == len(stream.requests)


def test_media_pages_appear_once():
    stream = build_stream("crawl_batch", seed=1)
    media = [html for _, html in stream.requests if "<video" in html]
    assert 0 < len(media) == len(set(media))


def test_warmup_pages_are_distinct_and_in_no_stream():
    pages = [html for _, html in warmup_pages(9)]
    assert len(set(pages)) == 9
    assert warmup_pages(9) == warmup_pages(9)
    for seed in (1, 2):
        for name in WORKLOADS:
            assert not set(pages) & set(build_stream(name, seed).pool)


def test_due_times_are_a_constant_rate():
    due = due_times(5, 100.0)
    assert np.allclose(np.diff(due), 0.01)
    assert due[0] == 0.0
