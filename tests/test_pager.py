"""Unit tests for pages and the page manager."""

import pytest

from repro.storage.iomodel import IOCostModel
from repro.storage.pager import DEFAULT_PAGE_SIZE, Page, PageManager


class TestPage:
    def test_append_and_len(self):
        page = Page(0, capacity=3)
        assert page.append("a") == 0
        assert page.append("b") == 1
        assert len(page) == 2
        assert not page.is_full

    def test_full(self):
        page = Page(0, capacity=1)
        page.append("x")
        assert page.is_full
        with pytest.raises(ValueError):
            page.append("y")

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Page(0, capacity=0)


class TestPageManager:
    def test_allocate_assigns_increasing_ids(self, pager):
        a = pager.allocate(4)
        b = pager.allocate(4)
        assert b.page_id == a.page_id + 1
        assert pager.n_pages == 2

    def test_allocate_counts_write(self):
        io = IOCostModel()
        pager = PageManager(io)
        pager.allocate(1)
        assert io.stats.page_writes == 1

    def test_read_random_vs_sequential(self, pager):
        page = pager.allocate(2)
        pager.read(page.page_id, sequential=False)
        pager.read(page.page_id, sequential=True)
        assert pager.io.stats.random_reads == 1
        assert pager.io.stats.sequential_reads == 1

    def test_read_returns_same_object(self, pager):
        page = pager.allocate(2)
        page.append("payload")
        again = pager.read(page.page_id)
        assert again is page

    def test_read_missing(self, pager):
        with pytest.raises(KeyError):
            pager.read(404)

    def test_write_missing(self, pager):
        with pytest.raises(KeyError):
            pager.write(404)

    def test_free(self, pager):
        page = pager.allocate(1)
        pager.free(page.page_id)
        assert pager.n_pages == 0
        with pytest.raises(KeyError):
            pager.read(page.page_id)

    def test_capacity_for(self):
        pager = PageManager(IOCostModel(), page_size=4096)
        assert pager.capacity_for(16) == 256
        assert pager.capacity_for(4096) == 1
        assert pager.capacity_for(8192) == 1  # at least one slot

    def test_capacity_for_invalid(self, pager):
        with pytest.raises(ValueError):
            pager.capacity_for(0)

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            PageManager(IOCostModel(), page_size=0)

    def test_default_page_size(self, pager):
        assert pager.page_size == DEFAULT_PAGE_SIZE
