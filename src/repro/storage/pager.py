"""Page allocation and access accounting.

Pages are the unit of I/O in the simulated storage engine.  A
:class:`Page` holds a bounded number of fixed-size slots; capacity in
slots is derived from a byte budget so that, e.g., a 4 KiB page holds
512 eight-byte set elements or 256 sixteen-byte (key-fingerprint, sid)
hash entries -- mirroring the paper's ``sid_count`` bucket capacity.

The :class:`PageManager` hands out pages and routes every read through
the shared :class:`~repro.storage.iomodel.IOCostModel` so that callers
cannot touch a page without it being accounted.  A structure that keeps
its records in arrays of its own (the live hash tables) reserves page
ids instead (:meth:`PageManager.reserve`): such a page holds no
:class:`Page` object, but is read, charged, cached and freed like any
other.

An optional LRU buffer pool (``cache_pages > 0``) absorbs repeated
reads: a hit costs nothing, a miss is charged and cached.  The default
is no cache -- the paper's cost analysis charges every bucket access --
but the pool lets experiments quantify how much a warm buffer changes
the scan/index trade-off.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from repro.obs import metrics
from repro.storage.iomodel import IOCostModel

#: Default page size in bytes (a common DBMS page size).
DEFAULT_PAGE_SIZE = 4096

# Process-wide buffer-pool instruments (surfaced by `repro stats`, the
# metrics snapshot and the Prometheus exporter); the per-instance
# attributes below track one pager's own history and are what
# `cache_hit_ratio` reads.
_CACHE_HITS = metrics.counter("pager.cache_hits")
_CACHE_MISSES = metrics.counter("pager.cache_misses")
# Point samples of the most recently active pager: pool occupancy and
# hit rate as a scrapable gauge pair (`repro top`'s hit-rate panel).
_CACHE_ENTRIES = metrics.gauge("pager.cache_entries")
_CACHE_HIT_RATIO = metrics.gauge("pager.cache_hit_ratio")


class Page:
    """A fixed-capacity container of record slots."""

    __slots__ = ("page_id", "capacity", "slots")

    def __init__(self, page_id: int, capacity: int):
        if capacity <= 0:
            raise ValueError(f"page capacity must be positive, got {capacity}")
        self.page_id = page_id
        self.capacity = capacity
        self.slots: list[Any] = []

    @property
    def is_full(self) -> bool:
        """Whether every slot is occupied."""
        return len(self.slots) >= self.capacity

    def append(self, record: Any) -> int:
        """Store a record, returning its slot number."""
        if self.is_full:
            raise ValueError(f"page {self.page_id} is full")
        self.slots.append(record)
        return len(self.slots) - 1

    def __len__(self) -> int:
        return len(self.slots)


class PageManager:
    """Allocates pages and accounts their accesses.

    Parameters
    ----------
    io:
        The shared cost model.  Several components (filter indices, the
        set store, the scan baseline) typically share one ``PageManager``
        so that a query's total cost accumulates in one place.
    page_size:
        Page size in bytes, used by :meth:`capacity_for` to derive slot
        counts from record sizes.
    cache_pages:
        Capacity of the LRU buffer pool in pages; 0 (default) disables
        caching so every read is charged.
    """

    def __init__(
        self,
        io: IOCostModel | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = 0,
    ):
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        if cache_pages < 0:
            raise ValueError(f"cache_pages must be non-negative, got {cache_pages}")
        self.io = io if io is not None else IOCostModel()
        self.page_size = page_size
        self.cache_pages = cache_pages
        self._cache: OrderedDict[int, None] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        #: Live pages by id; ``None`` for a page :meth:`reserve` handed
        #: out, whose records live with its owner.
        self._pages: dict[int, Page | None] = {}
        self._next_id = 0

    def capacity_for(self, record_bytes: int) -> int:
        """Slots per page for records of ``record_bytes`` bytes."""
        if record_bytes <= 0:
            raise ValueError(f"record_bytes must be positive, got {record_bytes}")
        return max(1, self.page_size // record_bytes)

    def allocate(self, capacity: int) -> Page:
        """Create a new page with room for ``capacity`` slots."""
        page = Page(self._next_id, capacity)
        self._pages[self._next_id] = page
        self._next_id += 1
        self.io.write()
        return page

    def reserve(self, n: int) -> int:
        """Allocate ``n`` pages whose records live in the caller's own
        arrays, with consecutive ids; returns the first.  Charged like
        ``n`` :meth:`allocate` calls (one write each)."""
        first = self._next_id
        self._pages.update(dict.fromkeys(range(first, first + n)))
        self._next_id += n
        self.io.write(n)
        return first

    def read(self, page_id: int, sequential: bool = False) -> Page | None:
        """Fetch a page, charging one random (default) or sequential read
        (``None`` for a reserved page).

        With a buffer pool configured, a cached page costs nothing and
        is refreshed in LRU order.
        """
        page = self.peek(page_id)
        if self.cache_pages:
            if page_id in self._cache:
                self._cache.move_to_end(page_id)
                self.cache_hits += 1
                _CACHE_HITS.inc()
                self.publish_gauges()
                return page
            self.cache_misses += 1
            _CACHE_MISSES.inc()
            self._cache[page_id] = None
            if len(self._cache) > self.cache_pages:
                self._cache.popitem(last=False)
            self.publish_gauges()
        if sequential:
            self.io.read_sequential()
        else:
            self.io.read_random()
        return page

    def peek(self, page_id: int) -> Page | None:
        """Fetch a page *without* charging I/O (statistics/introspection
        only -- e.g. bucket-occupancy reports must not perturb the cost
        accounting of the queries they describe)."""
        try:
            return self._pages[page_id]
        except KeyError:
            raise KeyError(f"no such page: {page_id}") from None

    def write(self, page_id: int) -> None:
        """Charge one page write (the page object is mutated in place)."""
        if page_id not in self._pages:
            raise KeyError(f"no such page: {page_id}")
        self.io.write()

    def free(self, page_id: int) -> None:
        """Release a page (and drop it from the buffer pool)."""
        del self._pages[page_id]
        self._cache.pop(page_id, None)

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of buffer-pool lookups served from the pool.

        0.0 when the pool is disabled or has never been consulted.
        """
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def publish_gauges(self) -> None:
        """Export this pager's pool occupancy and hit rate as gauges.

        Called on every buffer-pool lookup (two attribute stores and a
        division) and safe to call ad hoc; with several pagers alive the
        gauges describe the most recently active one (point samples are
        last-write-wins by design).
        """
        _CACHE_ENTRIES.set(len(self._cache))
        _CACHE_HIT_RATIO.set(self.cache_hit_ratio)

    def reset_cache(self) -> None:
        """Empty the buffer pool and zero this pager's hit/miss counts.

        The process-wide ``pager.cache_hits``/``pager.cache_misses``
        metrics are monotonic and unaffected.  Useful between
        experiment phases: the next reads start from a cold pool.
        """
        self._cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def n_pages(self) -> int:
        """Number of live pages."""
        return len(self._pages)
