"""The from-slots oracle of the live tables: what a probe must return
and charge, restated over the pages alone.

A :class:`~repro.storage.hashtable.LiveTables` answers probes from its
stacked base, write delta and tombstones; the oracle reads the bucket
chains of its :class:`~repro.storage.hashtable.BucketHashTable` pages
through the pager and scans their slots, the way a probe of the paper's
hash tables reads them.  Equal results, page reads (in the same order,
so the same buffer-pool state) and counter moves pin the stacked probe
to the pages.
"""

from __future__ import annotations

import numpy as np

from repro.core.filter_index import table_fingerprints
from repro.exec.columnar import pairs_csr
from repro.obs import metrics
from repro.storage.hashtable import TableStack


def nonzero(**moves):
    return {name: d for name, d in moves.items() if d}


def slot_probe(tables, fps):
    """The from-slots oracle of a grouped probe: per table, the bucket
    chain of every distinct bucket, in the order the rows first reach
    them, read through the pager (one random read for the head page,
    sequential reads for overflow pages) and scanned slot by slot;
    ``fps[t]`` holds every row's fingerprint in ``tables[t]``.  Returns
    each row's sids (table by table, slot order) and the
    ``hashtable.*`` probe counter moves a probe must make."""
    results = [[] for _ in range(fps.shape[1])]
    pages = saved = 0
    for table, column in zip(tables, fps.tolist()):
        members: dict[int, list[int]] = {}
        for i, fp in enumerate(column):
            members.setdefault(fp % table.n_buckets, []).append(i)
        for bucket, rows in members.items():
            chain = table._chains[bucket]
            slots = []
            for rank, page_id in enumerate(chain):
                slots += table.pager.read(page_id, sequential=rank > 0).slots
            pages += len(chain)
            saved += len(chain) * (len(rows) - 1)
            for i in rows:
                results[i] += [sid for fp, sid in slots if fp == column[i]]
    return results, nonzero(
        probes=fps.size, probe_pages=pages, probe_pages_saved=saved
    )


def slot_stack(tables):
    """The :class:`TableStack` of tables' slots: per table, entries in
    chain order stably sorted by fingerprint (runs keep slot order),
    chain lengths from the chains."""
    fps, sids, offsets = [], [], [0]
    for table in tables:
        entries = [
            slot for chain in table._chains for page_id in chain
            for slot in table.pager.peek(page_id).slots
        ]
        entries.sort(key=lambda entry: entry[0])
        fps += [fp for fp, _ in entries]
        sids += [sid for _, sid in entries]
        offsets.append(len(fps))
    fps = np.array(fps, dtype=np.uint64)
    new = np.ones(len(fps), dtype=bool)
    new[1:] = fps[1:] != fps[:-1]
    new[[o for o in offsets[:-1] if o < len(fps)]] = True
    starts = np.flatnonzero(new)
    return TableStack(
        [table.n_buckets for table in tables],
        np.array([len(c) for table in tables for c in table._chains], dtype=np.int64),
        np.searchsorted(starts, offsets), fps[starts],
        np.append(starts, len(fps)), np.array(sids, dtype=np.int64),
    )


def oracle_probe_tables(fi):
    """A replacement for ``fi.probe_tables`` (a live
    :class:`~repro.core.filter_index.FilterIndex`) answering from the
    slots: the candidate CSR over the matrix rows and the hit total,
    with the ``hashtable.*`` probe counters moved as a probe moves
    them."""

    def probe_tables(start, stop, matrix, io):
        fps = table_fingerprints(
            matrix, fi._word_index[start:stop], fi._bit_offset[start:stop], fi.r
        )
        per_row, moves = slot_probe(fi._live.tables[start:stop], fps)
        for name, value in moves.items():
            metrics.counter(f"hashtable.{name}").inc(value)
        counts = [len(row) for row in per_row]
        rows = np.repeat(np.arange(len(per_row), dtype=np.int64), counts)
        sids = np.array([sid for row in per_row for sid in row], dtype=np.int64)
        return pairs_csr(rows, sids, len(per_row)), len(sids)

    return probe_tables
