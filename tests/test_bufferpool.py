"""Tests for the pager's LRU buffer pool."""

import numpy as np
import pytest

from repro.storage.iomodel import IOCostModel
from repro.storage.pager import PageManager


def _pager(cache_pages):
    return PageManager(IOCostModel(), cache_pages=cache_pages)


class TestBufferPool:
    def test_disabled_by_default(self):
        pager = _pager(0)
        page = pager.allocate(1)
        pager.read(page.page_id)
        pager.read(page.page_id)
        assert pager.io.stats.random_reads == 2
        assert pager.cache_hits == 0

    def test_hit_costs_nothing(self):
        pager = _pager(4)
        page = pager.allocate(1)
        pager.read(page.page_id)
        before = pager.io.snapshot()
        pager.read(page.page_id)
        delta = pager.io.snapshot() - before
        assert delta.random_reads == 0
        assert delta.sequential_reads == 0
        assert pager.cache_hits == 1
        assert pager.cache_misses == 1

    def test_lru_eviction(self):
        pager = _pager(2)
        pages = [pager.allocate(1) for _ in range(3)]
        pager.read(pages[0].page_id)  # cache: [0]
        pager.read(pages[1].page_id)  # cache: [0, 1]
        pager.read(pages[2].page_id)  # evicts 0 -> [1, 2]
        before = pager.io.snapshot()
        pager.read(pages[0].page_id)  # miss again
        assert (pager.io.snapshot() - before).random_reads == 1

    def test_lru_refresh_on_hit(self):
        pager = _pager(2)
        pages = [pager.allocate(1) for _ in range(3)]
        pager.read(pages[0].page_id)  # [0]
        pager.read(pages[1].page_id)  # [0, 1]
        pager.read(pages[0].page_id)  # hit; refreshes 0 -> [1, 0]
        pager.read(pages[2].page_id)  # evicts 1 -> [0, 2]
        before = pager.io.snapshot()
        pager.read(pages[0].page_id)  # still cached
        assert (pager.io.snapshot() - before).random_reads == 0

    def test_sequential_reads_cached_too(self):
        pager = _pager(4)
        page = pager.allocate(1)
        pager.read(page.page_id, sequential=True)
        before = pager.io.snapshot()
        pager.read(page.page_id, sequential=True)
        assert (pager.io.snapshot() - before).sequential_reads == 0

    def test_free_drops_cache_entry(self):
        pager = _pager(4)
        page = pager.allocate(1)
        pager.read(page.page_id)
        pager.free(page.page_id)
        with pytest.raises(KeyError):
            pager.read(page.page_id)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            _pager(-1)

    def test_cache_reduces_probe_cost_end_to_end(self):
        """A warm buffer pool makes repeated identical probes cheap."""
        from repro.storage.hashtable import LiveTables, hash_key

        pager = _pager(64)
        live = LiveTables(pager, n_tables=1, n_buckets=8)
        hot = np.array([[hash_key(b"hot")]], dtype=np.uint64)
        for i in range(20):
            live.insert(hot[:, 0], i)
        live.probe(0, 1, hot)  # warms the bucket page
        before = pager.io.snapshot()
        _, sids = live.probe(0, 1, hot)
        delta = pager.io.snapshot() - before
        assert delta.random_reads == 0
        assert sorted(sids.tolist()) == list(range(20))


class TestHitRatio:
    def test_ratio_zero_when_never_consulted(self):
        assert _pager(4).cache_hit_ratio == 0.0
        assert _pager(0).cache_hit_ratio == 0.0

    def test_ratio_tracks_hits_and_misses(self):
        pager = _pager(4)
        page = pager.allocate(1)
        pager.read(page.page_id)  # miss
        pager.read(page.page_id)  # hit
        pager.read(page.page_id)  # hit
        assert pager.cache_hit_ratio == pytest.approx(2 / 3)

    def test_registry_counters_move_with_instance(self):
        from repro.obs import metrics

        hits = metrics.counter("pager.cache_hits")
        misses = metrics.counter("pager.cache_misses")
        base_hits, base_misses = hits.value, misses.value
        pager = _pager(4)
        page = pager.allocate(1)
        pager.read(page.page_id)
        pager.read(page.page_id)
        assert hits.value == base_hits + 1
        assert misses.value == base_misses + 1

    def test_reset_cache_cools_pool_and_zeroes_instance_counts(self):
        from repro.obs import metrics

        hits = metrics.counter("pager.cache_hits")
        base_hits = hits.value
        pager = _pager(4)
        page = pager.allocate(1)
        pager.read(page.page_id)
        pager.read(page.page_id)
        assert pager.cache_hits == 1
        pager.reset_cache()
        assert pager.cache_hits == 0
        assert pager.cache_misses == 0
        assert pager.cache_hit_ratio == 0.0
        before = pager.io.snapshot()
        pager.read(page.page_id)  # cold again: charged
        assert (pager.io.snapshot() - before).random_reads == 1
        # The registry counters are monotonic across resets.
        assert hits.value == base_hits + 1
