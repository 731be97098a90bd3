"""Append-only heap file with cheap sequential scans.

The sequential-scan baseline of Section 6 "simply scans the entire set
collection" -- i.e. reads the heap file front to back at sequential
I/O cost.  Individual records are also addressable by record id for
the index's candidate-fetch step (at random I/O cost).

Records may span multiple slots (a large set occupies several pages'
worth of elements); the record id addresses the first page and the
reader charges for every page the record covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.storage.pager import PageManager


@dataclass(frozen=True)
class RecordId:
    """Address of a record: first page and slot, plus page span."""

    page_id: int
    slot: int
    n_pages: int


class HeapFile:
    """Sequentially laid out record storage.

    Parameters
    ----------
    pager:
        Page source and I/O accounting.
    record_pages:
        Callable mapping a record to the number of pages it occupies
        (at least 1).  Defaults to one page per record.
    """

    def __init__(self, pager: PageManager, record_pages=None):
        self.pager = pager
        self._record_pages = record_pages or (lambda record: 1)
        self._page_ids: list[int] = []
        self._records: list[RecordId] = []
        # Records are stored one per logical slot; multi-page records
        # are represented by padding pages that carry no slots.
        self._slots_per_page = 1

    def append(self, record: Any) -> RecordId:
        """Store a record at the end of the file, returning its id."""
        span = max(1, int(self._record_pages(record)))
        first = self.pager.allocate(self._slots_per_page)
        first.append(record)
        self._page_ids.append(first.page_id)
        for _ in range(span - 1):
            pad = self.pager.allocate(self._slots_per_page)
            self._page_ids.append(pad.page_id)
        rid = RecordId(first.page_id, 0, span)
        self._records.append(rid)
        self.pager.write(first.page_id)
        return rid

    def get(self, rid: RecordId) -> Any:
        """Fetch one record: one random read, then sequential follow-ons."""
        page = self.pager.read(rid.page_id, sequential=False)
        if rid.n_pages > 1:
            self.pager.io.read_sequential(rid.n_pages - 1)
        return page.slots[rid.slot]

    def peek(self, rid: RecordId) -> Any:
        """One record, charging nothing."""
        return self.pager.peek(rid.page_id).slots[rid.slot]

    def scan(self) -> Iterator[tuple[RecordId, Any]]:
        """Yield every record in file order at sequential I/O cost."""
        for rid in self._records:
            page = self.pager.read(rid.page_id, sequential=True)
            if rid.n_pages > 1:
                self.pager.io.read_sequential(rid.n_pages - 1)
            yield rid, page.slots[rid.slot]

    @property
    def n_records(self) -> int:
        """Number of stored records."""
        return len(self._records)

    @property
    def n_pages(self) -> int:
        """Total pages, including multi-page record spans."""
        return len(self._page_ids)
