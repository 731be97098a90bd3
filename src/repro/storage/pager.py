"""Page allocation and access accounting.

Pages are the unit of I/O in the simulated storage engine.  A
:class:`Page` holds a bounded number of fixed-size slots; capacity in
slots is derived from a byte budget so that, e.g., a 4 KiB page holds
512 eight-byte set elements or 256 sixteen-byte (key-fingerprint, sid)
hash entries -- mirroring the paper's ``sid_count`` bucket capacity.

The :class:`PageManager` hands out the pages of the B-tree and the set
heap and routes every read through the shared
:class:`~repro.storage.iomodel.IOCostModel` so that callers cannot touch
a page without it being accounted.  Every read is charged, as the
paper's cost analysis charges every bucket and set-page access.  The
live hash tables keep their pages in arrays of their own and charge the
cost model directly (:mod:`repro.storage.hashtable`).
"""

from __future__ import annotations

from typing import Any

from repro.storage.iomodel import IOCostModel

#: Default page size in bytes (a common DBMS page size).
DEFAULT_PAGE_SIZE = 4096


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
    """

    def __init__(
        self,
        io: IOCostModel | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.io = io if io is not None else IOCostModel()
        self.page_size = page_size
        self._pages: dict[int, Page] = {}
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

    def read(self, page_id: int, sequential: bool = False) -> Page:
        """Fetch a page, charging one random (default) or sequential read."""
        page = self.peek(page_id)
        if sequential:
            self.io.read_sequential()
        else:
            self.io.read_random()
        return page

    def peek(self, page_id: int) -> Page:
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
        """Release a page."""
        del self._pages[page_id]

    @property
    def n_pages(self) -> int:
        """Number of live pages."""
        return len(self._pages)
