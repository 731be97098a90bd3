"""Disk-simulated storage of the set collection itself.

Candidate verification (Section 4.3, "Query Processing") retrieves each
candidate set from disk, which in the paper costs one B-tree lookup on
the set identifier followed by reading the set's pages.  The scan
baseline instead reads the whole collection sequentially.  ``SetStore``
provides both access paths over the same heap file so their relative
cost is governed purely by the shared I/O model.

Elements are assumed to be URL-string-sized values (64 bytes, matching
the paper's HTTP-log strings), so a 4 KiB page holds 64 of them --
``page span = ceil(|S| / 64)``.  Pass ``element_bytes`` to model other
element types.

The sid B-tree is held fully in memory (the regime the paper's
crossover estimate assumes: a candidate lookup costs just its data
pages), so a set's fetch charge is a pure function of its size: one
random read plus ``span - 1`` sequential reads
(:meth:`SetStore.set_pages`).  Views that know the sizes charge that
rule directly and read a set through :meth:`SetStore.peek` only when
they need its elements.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.storage.btree import BTree
from repro.storage.heapfile import HeapFile, RecordId
from repro.storage.pager import PageManager

#: Assumed on-disk size of one set element, in bytes (a short URL/log string).
ELEMENT_BYTES = 64


class SetStore:
    """Stores sets in a heap file with a B-tree index on set identifier."""

    def __init__(
        self,
        pager: PageManager,
        min_degree: int = 64,
        element_bytes: int = ELEMENT_BYTES,
    ):
        self.pager = pager
        self._elements_per_page = per_page = pager.capacity_for(element_bytes)
        # No bound method: a store <-> heap cycle outlives a dropped index.
        self._heap = HeapFile(
            pager, record_pages=lambda record: max(1, -(-len(record[1]) // per_page))
        )
        self._btree = BTree(pager, min_degree=min_degree, cache="all")
        self._live: set[int] = set()
        self._next_sid = 0

    def set_pages(self, sizes):
        """Heap pages a set of each given size spans (element-wise over
        an array): what :meth:`get` reads, the first page at random."""
        return np.maximum(1, -(-sizes // self._elements_per_page))

    @property
    def next_sid(self) -> int:
        """The identifier the next :meth:`insert` assigns."""
        return self._next_sid

    def _put(self, sid: int, stored: frozenset) -> None:
        self._btree.insert(sid, self._heap.append((sid, stored)))
        self._live.add(sid)

    def insert(self, elements: Iterable) -> int:
        """Store a set, returning its new set identifier."""
        sid = self._next_sid
        self._next_sid += 1
        self._put(sid, frozenset(elements))
        return sid

    def insert_many(self, sets: Iterable[Iterable]) -> list[int]:
        """Bulk-load a collection, returning the assigned sids in order."""
        return [self.insert(s) for s in sets]

    def load(self, sids: Iterable[int], sets: Iterable[frozenset], next_sid: int) -> None:
        """Bulk-load saved sets under their own (ascending) identifiers,
        then number on from ``next_sid`` -- a saved store, reloaded."""
        for sid, stored in zip(sids, sets):
            self._put(sid, stored)
        self._next_sid = next_sid

    def get(self, sid: int) -> frozenset:
        """Fetch one set by identifier (B-tree lookup + record read)."""
        rid: RecordId = self._btree.search(sid)
        stored_sid, elements = self._heap.get(rid)
        if stored_sid != sid:
            raise KeyError(f"sid {sid} resolved to record of sid {stored_sid}")
        return elements

    def peek(self, sid: int) -> frozenset:
        """The set ``sid``, charging nothing: for a reader that charged
        its fetch by :meth:`set_pages` already."""
        return self._heap.peek(self._btree.search(sid))[1]

    def delete(self, sid: int) -> None:
        """Remove a set identifier from the index.

        The heap record is left in place (heap files reclaim space via
        offline compaction); lookups for the sid fail afterwards.
        """
        self._btree.delete(sid)
        self._live.discard(sid)

    def scan(self) -> Iterator[tuple[int, frozenset]]:
        """Yield (sid, set) for the whole collection at sequential cost.

        Deleted sids are skipped without extra charge -- their pages
        were already paid for by the scan.
        """
        for _, (sid, elements) in self._heap.scan():
            if sid in self._live:
                yield sid, elements

    @property
    def n_sets(self) -> int:
        """Number of live (non-deleted) sets."""
        return self._btree.n_keys

    @property
    def n_pages(self) -> int:
        """Heap pages the collection occupies (the scan cost)."""
        return self._heap.n_pages
