"""Seeded page streams and request schedules for the workloads.

Every stream is generated before timing starts, from ``--seed`` alone, out of
:class:`repro.data.synthesizer.SyntheticWebsite` pages.  Pages are
de-duplicated by content: every synthetic site serves byte-identical
``clip-N`` media pages, so without this step a "unique" stream silently
repeats pages and the caches see hits that the workload did not ask for.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.data.synthesizer import SyntheticWebsite
from repro.data.taxonomy import build_taxonomy

#: A page as the program receives it: ``(doc_id, html)``.
Page = Tuple[str, str]

#: Content pages per synthetic site (each site also serves an index page and
#: two media pages).
PAGES_PER_SITE = 4
#: Inclusive upper end of the per-site noise length, in sentences.
MAX_NOISE_SENTENCES = 12


@dataclass(frozen=True)
class WorkloadSpec:
    """The shape of one workload at full size (``scale=1``)."""

    name: str
    #: unique pages in the stream.
    pages: int
    #: open-loop offered rate in requests per second; ``None`` = closed loop.
    rate: float | None = None
    #: distinct pages each pass or round sends, drawn afresh from the stream
    #: per pass; ``None`` = every page.
    per_pass: int | None = None
    #: pages per ``brief_many`` call in the closed loop.
    chunk: int = 8
    beam_size: int = 4


WORKLOADS = {
    "crawl_batch": WorkloadSpec("crawl_batch", pages=500),
    "serve_cold": WorkloadSpec("serve_cold", pages=500, rate=40.0, per_pass=250),
}


def _rng(seed: int, purpose: str) -> np.random.Generator:
    """An independent generator per (seed, purpose), stable across runs."""
    return np.random.default_rng([seed, zlib.crc32(purpose.encode("utf-8"))])


def unique_pages(count: int, seed: int, prefix: str = "site") -> List[str]:
    """``count`` pages of distinct content: index, media and content pages.

    Sites are drawn with a random topic and a noise length of
    0..``MAX_NOISE_SENTENCES`` sentences; the repeated media pages of later
    sites are dropped, so the stream is fully unique by content.
    """
    rng = _rng(seed, f"pages:{prefix}")
    topics = build_taxonomy()
    pages: List[str] = []
    seen = set()
    site = 0
    while len(pages) < count:
        website = SyntheticWebsite(
            f"{prefix}-{site}.example",
            topics[int(rng.integers(len(topics)))],
            num_pages=PAGES_PER_SITE,
            rng=rng,
            noise_sentences=int(rng.integers(0, MAX_NOISE_SENTENCES + 1)),
        )
        for url in website.urls:
            html = website.fetch(url)
            if html and html not in seen:
                seen.add(html)
                pages.append(html)
                if len(pages) == count:
                    break
        site += 1
    order = rng.permutation(len(pages))
    return [pages[i] for i in order]


def warmup_pages(count: int = 1) -> List[Page]:
    """``count`` distinct pages that no workload stream contains.

    Each is the index page of a site of its own: index pages list their own
    site's URLs, so a site name used by no stream guarantees content that is
    not in any stream.  The pages do not depend on ``--seed``: briefing the
    warm-up page is part of ``setup_s``, which must not vary with the seed.
    """
    rng = _rng(0, "warmup")
    topic = build_taxonomy()[0]
    pages = []
    for index in range(count):
        website = SyntheticWebsite(f"warmup-{index}.example", topic, num_pages=2, rng=rng)
        pages.append((f"warmup-{index}", website.fetch(website.root_url)))
    return pages


@dataclass
class Stream:
    """One workload's generated inputs."""

    spec: WorkloadSpec
    seed: int
    #: the distinct pages of the stream (the correctness reference set).
    pool: List[str]
    #: every page once, as ``(doc_id, html)``; each pass or round sends
    #: ``per_pass`` of them in its own order (:meth:`pass_requests`).
    requests: List[Page]
    per_pass: int

    @property
    def unique_share(self) -> float:
        """Distinct contents over requests (1.0 = nothing repeats)."""
        return len({html for _, html in self.requests}) / len(self.requests)

    def pass_requests(self, index: int) -> List[Page]:
        """The requests of pass or round ``index``, in send order.

        Each pass draws its own pages and order, so which pages meet in a
        batch or queue behind one another changes from pass to pass instead
        of repeating the same coincidences in every one.
        """
        order = _rng(self.seed, f"order:{index}").permutation(len(self.requests))
        return [self.requests[i] for i in order[: self.per_pass]]


def build_stream(name: str, seed: int, scale: float = 1.0) -> Stream:
    """The seeded input of workload ``name``; ``scale`` shrinks it for smoke runs."""
    spec = WORKLOADS[name]
    pool = unique_pages(max(8, int(spec.pages * scale)), seed, prefix=name)
    requests = [(f"doc-{i:05d}", html) for i, html in enumerate(pool)]
    per_pass = len(pool) if spec.per_pass is None else max(8, int(spec.per_pass * scale))
    return Stream(spec=spec, seed=seed, pool=pool, requests=requests, per_pass=per_pass)


def due_times(count: int, rate: float) -> np.ndarray:
    """Open-loop send times (seconds from round start) at a constant rate."""
    return np.arange(count, dtype=float) / rate
