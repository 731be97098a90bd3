"""Simulated disk-resident storage engine with exact I/O accounting.

The paper's experiments (Section 6) were run against a disk-based
prototype: filter-index hash tables on disk, candidate sets fetched
through a B-tree on set identifier, and a sequential-scan baseline.
Response time there is dominated by page I/O, with random reads roughly
8x the cost of sequential reads ("rtn = ran/seq ~= 8").

We reproduce that substrate as a small storage engine whose every page
touch flows through one :class:`~repro.storage.iomodel.IOCostModel`, so
simulated response times are an exact function of page counts and the
ran/seq ratio rather than of the host machine's filesystem cache.

Components:

* :mod:`repro.storage.iomodel` -- cost model and counters.
* :mod:`repro.storage.pager` -- page allocation and access accounting.
* :mod:`repro.storage.hashtable` -- a filter's paged bucket hash tables
  (the primitive both filter indices are made of) as page arrays: each
  insert or delete one array pass over the tables, a batch bulk-loaded
  a table at a time; and the stacked probe kernel.
* :mod:`repro.storage.heapfile` -- append-only record file supporting
  cheap sequential scans (the Scan baseline).
* :mod:`repro.storage.btree` -- B-tree mapping set identifiers to heap
  record ids (the paper's "conventional data structure such as a
  B-tree supporting queries on set identifier").
* :mod:`repro.storage.setstore` -- facade tying the above together for
  storing and retrieving the set collection.
"""

from repro.storage.btree import BTree
from repro.storage.hashtable import LiveTables, TableStack
from repro.storage.heapfile import HeapFile
from repro.storage.iomodel import IOCostModel, IOStats
from repro.storage.pager import Page, PageManager
from repro.storage.setstore import SetStore

__all__ = [
    "BTree",
    "HeapFile",
    "IOCostModel",
    "IOStats",
    "LiveTables",
    "Page",
    "PageManager",
    "SetStore",
    "TableStack",
]
