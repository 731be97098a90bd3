"""The from-slots oracle of the live tables and the slot-scanning
reference model of their pages.

A :class:`~repro.storage.hashtable.LiveTables` keeps its pages as rows
of page arrays and answers probes from its stacked base, write delta
and tombstones.  Here both are restated the plain way:

- :class:`SlotScanTables` keeps ``l`` tables of
  :class:`~repro.storage.pager.Page` objects holding ``(fingerprint,
  sid)`` tuples and performs every write as its page operations, table
  by table -- a delete finds its hole with ``list.index`` over the
  chain's pages.  Its chain lengths, entries in chain order, tail
  states, charges and counter moves are what the array pass must
  reproduce.
- :func:`slot_probe` reads the bucket chains of either kind and scans
  their entries, the way a probe of the paper's hash tables reads them.
  Equal results, page reads and counter moves pin the stacked probe to
  the pages.

Both kinds answer the same introspection calls (``n_tables``,
``n_buckets``, ``pager``, ``bucket_entries(t, b)``, ``tail_slots()``,
``chain_pages``, ``table_stats()``), which is what the oracle and the
comparisons below read.
"""

from __future__ import annotations

import numpy as np

from repro.core.filter_index import table_fingerprints
from repro.exec.columnar import pairs_csr
from repro.obs import metrics
from repro.storage.hashtable import ENTRY_BYTES, TableStack

_HT_COUNTERS = {
    name: metrics.counter(f"hashtable.{name}")
    for name in (
        "probes", "probe_pages", "probe_pages_saved", "tail_reads_skipped",
        "bulk_entries", "bulk_pages",
    )
}
_TAIL_READS_SKIPPED = _HT_COUNTERS["tail_reads_skipped"]
_BULK_ENTRIES = _HT_COUNTERS["bulk_entries"]
_BULK_PAGES = _HT_COUNTERS["bulk_pages"]


def nonzero(**moves):
    return {name: d for name, d in moves.items() if d}


def counter_moves(op):
    """Run ``op``; its result and the nonzero ``hashtable.*`` counter
    moves it made on this thread."""
    before = {name: c.local_value for name, c in _HT_COUNTERS.items()}
    result = op()
    return result, nonzero(**{
        name: c.local_value - before[name] for name, c in _HT_COUNTERS.items()
    })


class SlotScanTables:
    """Reference model of a live filter's pages: per table, chains of
    page ids per bucket on ``pager``, each page a list of ``(fingerprint,
    sid)`` tuples, and the tail fill state each write leaves known.  A
    write runs table by table in table order, each table's page reads,
    allocations, writes and frees done one at a time through the pager;
    ``hashtable.*`` counters move as the live tables move them."""

    def __init__(self, pager, n_tables, n_buckets):
        self.pager = pager
        self.n_buckets = np.full(n_tables, n_buckets, dtype=np.int64)
        self.slots = pager.capacity_for(ENTRY_BYTES)
        self.chains = [[[] for _ in range(n_buckets)] for _ in range(n_tables)]
        self.tail = [[-1] * n_buckets for _ in range(n_tables)]

    @property
    def n_tables(self):
        return len(self.chains)

    # -- writes ------------------------------------------------------------

    def insert(self, fingerprints, sid):
        for t, fp in enumerate(np.asarray(fingerprints).tolist()):
            self.insert_one(t, fp, sid)

    def insert_one(self, t, fp, sid):
        """Table ``t``'s insert: read an unknown tail, open a page when
        the tail is full or missing, write the entry."""
        bucket = fp % len(self.chains[t])
        chain, tail, page = self.chains[t][bucket], self.tail[t], None
        if chain:
            if tail[bucket] < 0:
                self.pager.read(chain[-1], sequential=False)
                if len(self.pager.peek(chain[-1])) < self.slots:
                    page = self.pager.peek(chain[-1])
            else:
                _TAIL_READS_SKIPPED.inc()
                if tail[bucket] < self.slots:
                    page = self.pager.peek(chain[-1])
        if page is None:
            page = self.pager.allocate(self.slots)
            chain.append(page.page_id)
        page.append((fp, sid))
        self.pager.write(page.page_id)
        tail[bucket] = len(page.slots)

    def delete(self, fingerprints, sid):
        found = False
        for t, fp in enumerate(np.asarray(fingerprints).tolist()):
            found |= self.delete_one(t, fp, sid)
        return found

    def delete_one(self, t, fp, sid):
        """Table ``t``'s delete: scan the chain for the entry, move the
        chain's last entry into its hole, free or write the tail."""
        bucket = fp % len(self.chains[t])
        chain = self.chains[t][bucket]
        for rank, page_id in enumerate(chain):
            self.pager.read(page_id, sequential=rank > 0)
            page = self.pager.peek(page_id)
            try:
                index = page.slots.index((fp, sid))
            except ValueError:
                continue
            self.pager.read(chain[-1], sequential=True)
            last = self.pager.peek(chain[-1])
            moved = last.slots.pop()
            if not (page is last and index == len(last.slots)):
                page.slots[index] = moved
                self.pager.write(page.page_id)
            if last.slots:
                self.pager.write(last.page_id)
                self.tail[t][bucket] = len(last.slots)
            else:
                self.pager.free(chain.pop())
                self.tail[t][bucket] = -1
            return True
        return False

    def bulk_load(self, columns, sids):
        """Table by table: read the unknown tails of the buckets the
        table's entries reach (ascending), then append the entries in
        input order, one write each."""
        report = dict.fromkeys(("entries", "new_pages", "tail_reads"), 0)
        for t, fps in enumerate(columns):
            fps = np.asarray(fps).tolist()
            chains, tail = self.chains[t], self.tail[t]
            for bucket in sorted({fp % len(chains) for fp in fps}):
                if chains[bucket] and tail[bucket] < 0:
                    self.pager.read(chains[bucket][-1], sequential=False)
                    tail[bucket] = len(self.pager.peek(chains[bucket][-1]))
                    report["tail_reads"] += 1
            for fp, sid in zip(fps, sids):
                bucket = fp % len(chains)
                if chains[bucket] and tail[bucket] < self.slots:
                    page = self.pager.peek(chains[bucket][-1])
                else:
                    page = self.pager.allocate(self.slots)
                    chains[bucket].append(page.page_id)
                    report["new_pages"] += 1
                page.append((fp, sid))
                tail[bucket] = len(page.slots)
            self.pager.io.write(len(fps))
            report["entries"] += len(fps)
        _BULK_ENTRIES.inc(report["entries"])
        _BULK_PAGES.inc(report["new_pages"])
        return {"tables": self.n_tables, **report}

    # -- introspection -----------------------------------------------------

    def chain(self, t, bucket):
        return list(self.chains[t][bucket])

    def bucket_entries(self, t, bucket):
        entries = [
            entry for page_id in self.chains[t][bucket]
            for entry in self.pager.peek(page_id).slots
        ]
        return (
            np.array([fp for fp, _ in entries], dtype=np.uint64),
            np.array([sid for _, sid in entries], dtype=np.int64),
        )

    def tail_slots(self):
        return np.array([s for tail in self.tail for s in tail], dtype=np.int64)

    @property
    def chain_pages(self):
        return np.array(
            [len(c) for chains in self.chains for c in chains], dtype=np.int64
        )

    @property
    def n_entries(self):
        return sum(len(self.bucket_entries(0, b)[1]) for b in range(len(self.chains[0])))

    def table_stats(self):
        out = []
        for t, chains in enumerate(self.chains):
            n_buckets = len(chains)
            occupancies = [len(self.bucket_entries(t, b)[1]) for b in range(n_buckets)]
            n = sum(occupancies)
            out.append({
                "n_buckets": n_buckets,
                "n_entries": n,
                "n_pages": sum(len(c) for c in chains),
                "slots_per_page": self.slots,
                "load_factor": n / (n_buckets * self.slots),
                "avg_occupancy": n / n_buckets,
                "max_occupancy": max(occupancies),
                "nonempty_buckets": sum(1 for o in occupancies if o),
                "max_chain_pages": max(len(c) for c in chains),
            })
        return out


def tables_state(tables):
    """Everything a write leaves in the pages of ``tables`` (live or
    reference): per table and bucket the chain's entries in chain
    order; the tail states; the chain lengths."""
    chains = [
        tuple(a.tolist() for a in tables.bucket_entries(t, b))
        for t in range(tables.n_tables)
        for b in range(int(tables.n_buckets[t]))
    ]
    return chains, tables.tail_slots().tolist(), tables.chain_pages.tolist()


def assert_pages_hold_the_stacks(live):
    """Per table of a :class:`~repro.storage.hashtable.LiveTables`, the
    multiset of ``(fingerprint, sid)`` entries on its pages equals the
    entries of its stacked base and its write delta minus the
    tombstoned sids' -- what a probe reads must be what the pages
    hold, entry for entry."""
    base, n_delta = live.base, live._n_delta
    bounds = base.run_offsets.tolist()
    for t in range(live.n_tables):
        pages = sorted(
            entry for b in range(int(live.n_buckets[t]))
            for entry in zip(*(a.tolist() for a in live.bucket_entries(t, b)))
        )
        indptr = base.run_indptr[bounds[t]:bounds[t + 1] + 1]
        fps = np.concatenate((
            np.repeat(base.run_fps[bounds[t]:bounds[t + 1]], np.diff(indptr)),
            live._delta_fps[t, :n_delta],
        ))
        sids = np.concatenate((
            base.run_sids[indptr[0]:indptr[-1]], live._delta_sids[t, :n_delta]
        ))
        keep = ~live._dead[sids]
        assert pages == sorted(zip(fps[keep].tolist(), sids[keep].tolist())), t


def slot_probe(tables, fps, start=0):
    """The from-slots oracle of a grouped probe of tables ``start ..
    start + len(fps) - 1`` (``fps[k]`` holding every row's fingerprint
    in table ``start + k``): per table, the bucket chain of every
    distinct bucket read (one random read for the head page, sequential
    reads for overflow pages, charged to the pager's cost model) and its
    entries scanned.  Returns each row's sids (table by table, chain
    order) and the ``hashtable.*`` probe counter moves a probe must
    make."""
    results = [[] for _ in range(fps.shape[1])]
    pages = saved = 0
    chain_pages = tables.chain_pages.tolist()
    io = tables.pager.io
    for k, column in enumerate(fps.tolist()):
        t = start + k
        first = int(tables.n_buckets[:t].sum())
        members: dict[int, list[int]] = {}
        for i, fp in enumerate(column):
            members.setdefault(fp % int(tables.n_buckets[t]), []).append(i)
        for bucket, rows in members.items():
            n_pages = chain_pages[first + bucket]
            if n_pages:
                io.read_random()
                io.read_sequential(n_pages - 1)
            entry_fps, entry_sids = (a.tolist() for a in tables.bucket_entries(t, bucket))
            pages += n_pages
            saved += n_pages * (len(rows) - 1)
            for i in rows:
                results[i] += [
                    sid for fp, sid in zip(entry_fps, entry_sids) if fp == column[i]
                ]
    return results, nonzero(
        probes=fps.size, probe_pages=pages, probe_pages_saved=saved
    )


def slot_stack(tables):
    """The :class:`TableStack` of the tables' entries: per table,
    entries in chain order stably sorted by fingerprint (runs keep chain
    order), chain lengths from the chains."""
    fps, sids, offsets = [], [], [0]
    for t in range(tables.n_tables):
        entries = []
        for b in range(int(tables.n_buckets[t])):
            entries += zip(*(a.tolist() for a in tables.bucket_entries(t, b)))
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
        tables.n_buckets, tables.chain_pages,
        np.searchsorted(starts, offsets), fps[starts],
        np.append(starts, len(fps)), np.array(sids, dtype=np.int64),
    )


def oracle_probe_tables(fi):
    """A replacement for ``fi.probe_tables`` (a live
    :class:`~repro.core.filter_index.FilterIndex`) answering from the
    pages: the candidate CSR over the matrix rows and the hit total,
    with the ``hashtable.*`` probe counters moved as a probe moves
    them."""

    def probe_tables(start, stop, matrix, io):
        fps = table_fingerprints(
            matrix, fi._word_index[start:stop], fi._bit_offset[start:stop], fi.r
        )
        per_row, moves = slot_probe(fi._live, fps, start)
        for name, value in moves.items():
            metrics.counter(f"hashtable.{name}").inc(value)
        counts = [len(row) for row in per_row]
        rows = np.repeat(np.arange(len(per_row), dtype=np.int64), counts)
        sids = np.array([sid for row in per_row for sid in row], dtype=np.int64)
        return pairs_csr(rows, sids, len(per_row)), len(sids)

    return probe_tables
