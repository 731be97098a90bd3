"""Paged bucket hash tables -- the filter indices' building block.

Section 4.1 builds each filter index out of plain hash tables: keys are
the ``r`` sampled bits of a vector, values are set identifiers, and a
bucket holds up to ``sid_count`` identifiers per page.  The paper sizes
the table so bucket overflows are rare; we nevertheless support
overflow chains so the structure stays correct for any input.

The tables are fully dynamic (insert and delete), which is what lets the
paper claim the overall index "readily supports dynamic operations".
Three pieces carry that here:

- :class:`BucketHashTable` keeps one table's pages -- chains, slots,
  tail tracking -- and charges every write; a batch of entries loads in
  one :meth:`~BucketHashTable.bulk_load_hashed` call, bit-identical in
  chains, pages and I/O accounting to inserting the entries one by one.
  It answers no probes.
- :class:`TableStack` is the one probe kernel: the fingerprint runs of a
  filter's ``l`` tables in a few flat arrays, probed for a whole batch
  in one pass.  Frozen and mapped snapshots serve from it.
- :class:`LiveTables` is a live filter: its tables' pages, an immutable
  stacked base, a small stacked delta of the entries inserted since the
  last compaction and a tombstone mask over the base's deleted sids.  A
  probe is the base's plus the delta's, minus the tombstones.

Each stored entry is a ``(fingerprint, sid)`` pair of 16 bytes.  The
fingerprint is a 64-bit hash of the full key; matching on it avoids
returning sids that merely share a bucket (a modulo collision) while
keeping entries fixed-size.  Probes charge one random read for the
first bucket page and sequential reads for overflow pages, which are
assumed to be allocated adjacently.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.hamming.splitmix import GOLDEN, mix64, mix64_array
from repro.obs import metrics
from repro.storage.iomodel import IOStats
from repro.storage.pager import PageManager

#: Bytes per (fingerprint, sid) entry; determines slots per page.
ENTRY_BYTES = 16

# Hot-path instruments, resolved once at import (see repro.obs.metrics).
# Candidate counts are deliberately NOT tracked here: the filter index
# already accounts them (sfi.candidates + sfi.duplicate_candidates is
# the sum of per-table bucket sizes).
_PROBES = metrics.counter("hashtable.probes")
_PROBE_PAGES = metrics.counter("hashtable.probe_pages")
#: Bucket pages a batched probe did NOT read because several keys of
#: the batch resolved to the same bucket (read once, served to all).
_PROBE_PAGES_SAVED = metrics.counter("hashtable.probe_pages_saved")
#: Chain-tail reads :meth:`BucketHashTable.insert_hashed` skipped because the
#: tail page's fill state was still known from this table's own last
#: write to the bucket (the page is logically in the writer's buffer).
_TAIL_READS_SKIPPED = metrics.counter("hashtable.tail_reads_skipped")
#: Entries and fresh pages loaded through the bulk (build-time) path.
_BULK_ENTRIES = metrics.counter("hashtable.bulk_entries")
_BULK_PAGES = metrics.counter("hashtable.bulk_pages")


# The key fingerprint is a splitmix64 fold: the splitmix64 finalizer
# (Vigna's full-avalanche 64-bit mixer) applied over the key's
# little-endian 64-bit words, seeded by the key length so zero padding
# of the last word cannot alias keys of different lengths.  Unlike a
# cryptographic digest this is pure word arithmetic, so the bulk build
# can fingerprint a whole key matrix with numpy (:func:`hash_words`)
# while the scalar :func:`hash_key` stays bit-identical word for word.


def hash_key(key: bytes) -> int:
    """Stable 64-bit hash of a key (independent of PYTHONHASHSEED)."""
    h = mix64(len(key) * GOLDEN)
    for i in range(0, len(key), 8):
        h = mix64(h ^ int.from_bytes(key[i : i + 8], "little"))
    return h


def hash_words(words: np.ndarray, key_bytes: int) -> np.ndarray:
    """Vectorized :func:`hash_key` over a key-word matrix.

    ``words`` holds one key per row as little-endian 64-bit words with
    the last word zero-padded; every key must be ``key_bytes`` long
    (fixed-width keys are what bit samplers emit).  Equals
    ``[hash_key(k) for k in keys]`` bit for bit, but each mixing round
    is one numpy pass over a column, which is what makes bulk
    fingerprinting array arithmetic instead of a per-key digest loop.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    h = np.full(
        words.shape[0],
        mix64(key_bytes * GOLDEN),
        dtype=np.uint64,
    )
    for j in range(words.shape[1]):
        h = mix64_array(h ^ words[:, j])
    return h


class BucketHashTable:
    """The pages of one disk-simulated hash table from key fingerprints
    to set identifiers: what its writes cost and what a probe reads.

    Parameters
    ----------
    pager:
        Page source; also supplies the I/O accounting.
    n_buckets:
        Number of hash buckets.  The paper chooses enough buckets that
        no overflows occur; a sensible choice is
        ``ceil(expected_entries / slots_per_page)``.
    chain_pages:
        Optional int64 array of ``n_buckets`` zeros the table keeps as
        its per-bucket chain lengths (a :class:`LiveTables` passes a
        slice of one filter-wide array); a fresh one by default.
    """

    def __init__(self, pager: PageManager, n_buckets: int, chain_pages=None):
        if n_buckets <= 0:
            raise ValueError(f"n_buckets must be positive, got {n_buckets}")
        self.pager = pager
        self.n_buckets = n_buckets
        self.slots_per_page = pager.capacity_for(ENTRY_BYTES)
        # Chains of page ids per bucket; pages allocated lazily.
        self._chains: list[list[int]] = [[] for _ in range(n_buckets)]
        #: Pages in each bucket's chain, kept current by every write:
        #: what a grouped probe of the bucket charges.
        self.chain_pages = (
            np.zeros(n_buckets, dtype=np.int64) if chain_pages is None
            else chain_pages
        )
        self._n_entries = 0
        # Occupied slots on each bucket's tail page, when known from
        # this table's own last write (-1 = unknown, must read).  Lets
        # consecutive inserts into one bucket skip re-reading a page
        # that is logically still in the writer's buffer.
        self._tail_slots: list[int] = [-1] * n_buckets

    @property
    def n_entries(self) -> int:
        """Number of stored (key, sid) entries."""
        return self._n_entries

    @property
    def n_pages(self) -> int:
        """Pages across all bucket chains."""
        return sum(len(chain) for chain in self._chains)

    def insert_hashed(self, fingerprint: int, sid: int) -> None:
        """Add a (fingerprint, sid) entry for a pre-computed
        ``hash_key`` fingerprint.  Duplicates are stored as given.

        The chain-tail page is re-read (one charged random read) only
        when its fill state is unknown; consecutive inserts into one
        bucket know the tail from their own last write and skip the
        redundant read entirely.  The entry lands in the chain's last
        slot.
        """
        bucket = fingerprint % self.n_buckets
        chain = self._chains[bucket]
        last = None
        if chain:
            known = self._tail_slots[bucket]
            if known < 0:
                last = self.pager.read(chain[-1], sequential=False)
                if last.is_full:
                    last = None
            elif known < self.slots_per_page:
                last = self.pager.peek(chain[-1])
                _TAIL_READS_SKIPPED.shard().count += 1
            else:
                # Tail known full: allocate without touching it.
                _TAIL_READS_SKIPPED.shard().count += 1
        if last is None:
            last = self.pager.allocate(self.slots_per_page)
            chain.append(last.page_id)
            self.chain_pages[bucket] += 1
        last.append((fingerprint, sid))
        self.pager.write(last.page_id)
        self._tail_slots[bucket] = len(last.slots)
        self._n_entries += 1

    # -- bulk loading ------------------------------------------------------

    def bulk_load_hashed(
        self, fingerprints: np.ndarray, sids: Sequence[int]
    ) -> dict:
        """Bulk-insert many (fingerprint, sid) entries in one partitioned
        pass, for pre-computed ``hash_key`` fingerprints.

        Equivalent -- in chains, page ids and contents and I/O
        accounting -- to ``for fp, sid in zip(fingerprints, sids):
        self.insert_hashed(fp, sid)``.  Entries are grouped by bucket
        with one stable argsort, each group's page layout (existing-tail
        absorption, new-page count) is array arithmetic, and pages are
        allocated in the order the
        per-insert path opens them: at the first entry (in input order)
        that lands on each.  A target bucket whose tail fill state is
        unknown (e.g. after a delete) has its tail read first -- one
        charged random read, as the per-insert path's first write to
        that bucket charges.  Returns a small load report.
        """
        fps = np.ascontiguousarray(fingerprints, dtype=np.uint64)
        n = len(fps)
        if n != len(sids):
            raise ValueError(
                f"{n} fingerprints but {len(sids)} sids given"
            )
        if n == 0:
            return {"entries": 0, "new_pages": 0, "buckets": 0, "tail_reads": 0}
        pager = self.pager
        slots = self.slots_per_page
        buckets = (fps % np.uint64(self.n_buckets)).astype(np.int64)
        order = np.argsort(buckets, kind="stable")
        sorted_buckets = buckets[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_buckets[1:] != sorted_buckets[:-1]]
        )
        bounds = np.append(starts, n)
        sizes = np.diff(bounds)
        group_buckets = sorted_buckets[starts].tolist()
        # Free slots on each group's existing tail page (0 for fresh
        # buckets: their first entry opens a page, as in insert()).
        rems = np.zeros(len(group_buckets), dtype=np.int64)
        tail_reads = 0
        for g, bucket in enumerate(group_buckets):
            chain = self._chains[bucket]
            if chain:
                occupied = self._tail_slots[bucket]
                if occupied < 0:
                    occupied = len(pager.read(chain[-1], sequential=False).slots)
                    tail_reads += 1
                rems[g] = slots - occupied
        # Within-bucket rank of every entry, then the page-opening
        # entries: rank == rem, rem + slots, rem + 2*slots, ...
        ranks = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)
        rem_rep = np.repeat(rems, sizes)
        opens = (ranks >= rem_rep) & ((ranks - rem_rep) % slots == 0)
        # Allocation schedule in original input order -- the order the
        # sequential path reaches each page-opening entry.
        open_orig = order[opens]
        alloc_buckets = sorted_buckets[opens][np.argsort(open_orig)].tolist()
        # Materialize entries as the exact Python objects the
        # per-insert path stores: int fingerprints, caller's sids.
        sids_arr = np.asarray(sids, dtype=np.int64)
        all_entries = list(
            zip(fps[order].tolist(), sids_arr[order].tolist())
        )
        # Each group's lead entries top up its tail page; the rest fill
        # fresh pages in allocation order.
        entries_of: dict[int, list] = {}
        cursors: dict[int, int] = {}
        pos = 0
        for bucket, size, rem in zip(group_buckets, sizes.tolist(), rems.tolist()):
            entries = entries_of[bucket] = all_entries[pos : pos + size]
            pos += size
            take = min(rem, size)
            if take:
                pager.peek(self._chains[bucket][-1]).slots.extend(entries[:take])
            cursors[bucket] = take
        for bucket in alloc_buckets:
            page = pager.allocate(slots)
            self._chains[bucket].append(page.page_id)
            start = cursors[bucket]
            page.slots.extend(entries_of[bucket][start : start + slots])
            cursors[bucket] = start + slots
        # One charged write per entry, exactly as the per-insert loop
        # charges them (allocation writes were charged by allocate()).
        pager.io.write(n)
        chains = self._chains
        for bucket in group_buckets:
            self._tail_slots[bucket] = len(pager.peek(chains[bucket][-1]).slots)
        self.chain_pages[group_buckets] = [len(chains[b]) for b in group_buckets]
        self._n_entries += n
        _BULK_ENTRIES.shard().count += n
        _BULK_PAGES.shard().count += len(alloc_buckets)
        return {
            "entries": n,
            "new_pages": len(alloc_buckets),
            "buckets": len(group_buckets),
            "tail_reads": tail_reads,
        }

    def delete_hashed(self, fingerprint: int, sid: int) -> bool:
        """Remove one (fingerprint, sid) entry for a pre-computed
        ``hash_key`` fingerprint; returns whether one was found.

        The first matching slot in chain order is the hole; compaction
        moves the chain's last entry into it.
        """
        bucket = fingerprint % self.n_buckets
        chain = self._chains[bucket]
        target = (fingerprint, sid)
        for rank, page_id in enumerate(chain):
            page = self.pager.read(page_id, sequential=rank > 0)
            try:
                index = page.slots.index(target)
            except ValueError:
                continue
            # Compact: move the chain's globally last entry into the hole.
            last_page = self.pager.read(chain[-1], sequential=True)
            moved = last_page.slots.pop()
            # Unless the popped entry *was* the hole, fill the hole.
            if not (page is last_page and index == len(last_page.slots)):
                page.slots[index] = moved
                self.pager.write(page.page_id)
            if not last_page.slots:
                self.pager.free(chain.pop())
                self.chain_pages[bucket] -= 1
                # The surviving tail was not touched here; forget its
                # fill state so the next insert re-reads it.
                self._tail_slots[bucket] = -1
            else:
                self.pager.write(last_page.page_id)
                self._tail_slots[bucket] = len(last_page.slots)
            self._n_entries -= 1
            return True
        return False

    def bucket_occupancies(self) -> list[int]:
        """Entries stored per bucket (uncharged; statistics only)."""
        return [
            sum(len(self.pager.peek(page_id)) for page_id in chain)
            for chain in self._chains
        ]

    def load_stats(self) -> dict:
        """Occupancy and load-factor statistics for this table.

        Uses uncharged page peeks so reporting does not perturb the
        I/O accounting.  ``load_factor`` is entries over provisioned
        slots (buckets x slots per page); under the paper's
        "no bucket overflows" provisioning it stays below 1 and
        ``max_chain_pages`` stays at 1.
        """
        occupancies = self.bucket_occupancies()
        return {
            "n_buckets": self.n_buckets,
            "n_entries": self._n_entries,
            "n_pages": self.n_pages,
            "slots_per_page": self.slots_per_page,
            "load_factor": self._n_entries / (self.n_buckets * self.slots_per_page),
            "avg_occupancy": self._n_entries / self.n_buckets,
            "max_occupancy": max(occupancies, default=0),
            "nonempty_buckets": sum(1 for n in occupancies if n),
            "max_chain_pages": max(
                (len(chain) for chain in self._chains), default=0
            ),
        }

    def items(self):
        """Iterate over all (fingerprint, sid) entries (testing aid)."""
        for chain in self._chains:
            for page_id in chain:
                page = self.pager.read(page_id, sequential=True)
                yield from page.slots


def _charge_grouped(buckets: np.ndarray, chain_pages: np.ndarray, io) -> None:
    """Charge a grouped probe of ``buckets`` (indices into
    ``chain_pages``, one per probed key) and move the ``hashtable.*``
    probe counters.

    Every distinct bucket's chain is read once: one random read for the
    head page, sequential reads for overflow pages.  After the sort a
    bucket's first occurrence stands for that read and every further
    occurrence is a read the grouping saved.
    """
    buckets = np.sort(buckets)
    wanted = chain_pages[buckets]
    first = np.ones(len(buckets), dtype=bool)
    np.not_equal(buckets[1:], buckets[:-1], out=first[1:])
    pages = wanted[first]
    total = int(pages.sum())
    heads = int(np.count_nonzero(pages))
    io.random_reads += heads
    io.sequential_reads += total - heads
    _PROBE_PAGES.shard().count += total
    _PROBE_PAGES_SAVED.shard().count += int(wanted.sum()) - total
    _PROBES.shard().count += len(buckets)


def _run_starts(fps: np.ndarray, table_starts: np.ndarray) -> np.ndarray:
    """Where a run begins in entries sorted by fingerprint within each
    table: at every fingerprint change and at every table start
    (``table_starts``, the first entry of each table)."""
    new = np.ones(len(fps), dtype=bool)
    np.not_equal(fps[1:], fps[:-1], out=new[1:])
    new[table_starts[table_starts < len(fps)]] = True
    return np.flatnonzero(new)


class _RunArrays:
    """A stack's run arrays written one table at a time into
    whole-filter arrays sized up front, so that only one table's
    temporaries are alive at once."""

    def __init__(self, n_tables: int, n_entries: int):
        self.offsets = np.zeros(n_tables + 1, dtype=np.int64)
        self.fps = np.empty(n_entries, dtype=np.uint64)
        self.indptr = np.empty(n_entries + 1, dtype=np.int64)
        self.sids = np.empty(n_entries, dtype=np.int64)
        self._tables = self._entries = 0

    def add(self, fps: np.ndarray, sids: np.ndarray) -> None:
        """Append the next table's entries, sorted by fingerprint."""
        starts = _run_starts(fps, np.zeros(1, dtype=np.int64))
        t, e = self._tables, self._entries
        r0 = int(self.offsets[t])
        r1 = self.offsets[t + 1] = r0 + len(starts)
        self.fps[r0:r1] = fps[starts]
        self.indptr[r0:r1] = starts + e
        self.sids[e:e + len(sids)] = sids
        self._tables, self._entries = t + 1, e + len(sids)

    def arrays(self) -> tuple:
        """``(run_offsets, run_fps, run_indptr, run_sids)``, the run
        arrays shrunk in place to the runs written."""
        n_runs = int(self.offsets[self._tables])
        self.indptr[n_runs] = self._entries
        self.fps.resize(n_runs, refcheck=False)
        self.indptr.resize(n_runs + 1, refcheck=False)
        return self.offsets, self.fps, self.indptr, self.sids


class TableStack:
    """Immutable fingerprint-run image of one filter's ``l`` tables.

    Table ``t`` has ``n_buckets[t]`` buckets and owns entries
    ``bucket_offsets[t] .. bucket_offsets[t + 1] - 1`` of ``chain_pages``
    (each bucket's page count) and runs ``run_offsets[t] ..
    run_offsets[t + 1] - 1`` of ``run_fps``, which holds every
    fingerprint the table stores once, ascending within the table (a
    fingerprint's bucket is ``fp % n_buckets[t]``, so no per-bucket
    index is needed).  Any run ``p`` owns
    ``run_sids[run_indptr[p]:run_indptr[p + 1]]``, one ``indptr`` over
    every table's runs; runs are sid-ascending (a snapshot saved before
    they were may hold a churned index's runs in slot order, which no
    probe depends on).  The arrays may live on the heap
    (a :class:`LiveTables` base or delta) or in a mapped snapshot file
    (:func:`repro.exec.snapfile.open_snapshot`); the stack is the same
    either way.

    :meth:`probe` serves a range of tables in one pass: :meth:`lookup`
    finds every hit and :func:`_charge_grouped` *accounts* the page
    reads (into the ``io`` argument) rather than performing them, with
    charges and counter moves identical to the live filter's.  Safe
    for concurrent probing from many threads -- nothing is mutated
    except the caller's ``io``, the calling thread's counter shards and
    the lazily built per-table run views (an idempotent cache).
    """

    __slots__ = ("n_buckets", "bucket_offsets", "chain_pages", "run_offsets",
                 "run_fps", "run_indptr", "run_sids", "_views")

    def __init__(self, n_buckets, chain_pages, run_offsets, run_fps,
                 run_indptr, run_sids):
        self.n_buckets = np.asarray(n_buckets, dtype=np.int64)
        self.bucket_offsets = np.zeros(len(self.n_buckets) + 1, dtype=np.int64)
        np.cumsum(self.n_buckets, out=self.bucket_offsets[1:])
        self.chain_pages = chain_pages
        self.run_offsets = np.asarray(run_offsets, dtype=np.int64)
        self.run_fps = run_fps
        self.run_indptr = run_indptr
        self.run_sids = run_sids
        self._views = None

    @property
    def n_tables(self) -> int:
        return len(self.n_buckets)

    @property
    def n_entries(self) -> int:
        """Entries over all tables."""
        return int(self.run_indptr[-1])

    def buckets(self, start: int, stop: int, fingerprints: np.ndarray) -> np.ndarray:
        """The stack-wide bucket index (into ``chain_pages``) of every
        fingerprint, ``fingerprints[k]`` holding table ``start + k``'s."""
        buckets = (
            fingerprints % self.n_buckets[start:stop, None].astype(np.uint64)
        ).astype(np.int64)
        buckets += self.bucket_offsets[start:stop, None]
        return buckets

    def _run_views(self) -> list[np.ndarray]:
        """Each table's slice of ``run_fps`` as a plain ``ndarray`` view
        (not a ``memmap``, whose per-call overhead would dominate a
        one-row probe), built on first use so opening a snapshot does
        not pay for it."""
        views = self._views
        if views is None:
            fps = self.run_fps.view(np.ndarray)
            bounds = self.run_offsets.tolist()
            views = self._views = [
                fps[a:b] for a, b in zip(bounds, bounds[1:])
            ]
        return views

    def lookup(
        self, start: int, stop: int, fingerprints: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every hit of tables ``start .. stop - 1`` as parallel
        ``(row, sid)`` arrays, ``fingerprints[k]`` holding every query
        row's fingerprint in table ``start + k``: per table, hits come
        in row order and each row's sids in run order.  Charges
        nothing.  Run lookup is one ``searchsorted`` per table on its
        cached run view; the match test and the sid gather are one pass
        over all tables."""
        from repro.exec.columnar import gather_csr

        n_tables, n_rows = fingerprints.shape
        views = self._run_views()[start:stop]
        pos = np.empty((n_tables, n_rows), dtype=np.int64)
        for k, view in enumerate(views):
            pos[k] = view.searchsorted(fingerprints[k])
        offsets = self.run_offsets[start:stop + 1]
        pos += offsets[:-1, None]
        inside = pos < offsets[1:, None]
        runs = pos[inside]
        rows = np.nonzero(inside)[1]
        hit = self.run_fps.view(np.ndarray)[runs] == fingerprints[inside]
        runs, rows = runs[hit], rows[hit]
        indptr, sids = gather_csr(self.run_indptr, self.run_sids, runs)
        return np.repeat(rows, np.diff(indptr)), sids

    def probe(
        self, start: int, stop: int, fingerprints: np.ndarray, io
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`lookup` of tables ``start .. stop - 1``, charging the
        grouped bucket reads into ``io`` from ``chain_pages`` -- the
        tables' bucket ranges are disjoint, so one sort of stack-wide
        bucket indices groups them all."""
        _charge_grouped(
            self.buckets(start, stop, fingerprints).ravel(), self.chain_pages, io
        )
        return self.lookup(start, stop, fingerprints)


#: Compaction point of a :class:`LiveTables`: the delta and the
#: tombstones are merged into the base once, together, they pass this
#: share of the base's entries per table.  A merge rewrites the whole
#: filter, while a pending write costs every probe a little (a second
#: run lookup per table, tombstoned hits dropped) and every insert an
#: O(l * delta) sorted insertion.  Measured on the weblog bench
#: collection (3,000 sets, 200 tables in 5 filters, 2-vCPU host): merging
#: ~750 pending writes takes ~32 ms; a batch of 32 probes 0.5 ms slower
#: once any write is pending and 0.9 ms slower at 800; a delta insert
#: costs 0.04-0.08 ms a filter.  At 1/4 the churn cycle (16 inserts,
#: 16 deletes, one batch) merges every ~23 cycles, ~1.4 ms a cycle,
#: about what the probes and the delta upkeep add; 1/8 merges twice as
#: often, 1/2 doubles the upkeep, and the cycle's wall (~115 ms, mostly
#: the writes' page work) stayed within noise from 1/32 to 1/2.
COMPACT_SHARE = 0.25


class LiveTables:
    """One live filter's ``l`` tables: pages for the write-side
    accounting, and a stacked image for probes.

    - ``tables``: one :class:`BucketHashTable` per table, whose pages,
      chains and tail tracking charge every insert, delete and bulk
      load, and whose chain lengths (``chain_pages``, one filter-wide
      array) price every probe.
    - ``base``: an immutable :class:`TableStack` of the entries present
      at the last compaction (bulk load, :meth:`load` or merge).
    - the delta: each set inserted since, by sid with its ``l``
      fingerprints, stacked into a small :class:`TableStack` when a
      probe first needs it.
    - the tombstones: a mask over the sids deleted from the base.
      Deleting a delta sid drops it from the delta instead.

    A probe is the base's hits minus the tombstoned sids plus the
    delta's, one ``(row, sid)`` hit list with exactly the entries the
    pages hold; its reads are charged once, from the live chain lengths.
    Every sid is stored at most once (one set, one identifier), and sids
    only grow (a bulk load takes them ascending), so every run of the
    base and the delta is sid-ascending -- the layout a bulk build
    gives.  When the delta and the tombstones pass
    :data:`COMPACT_SHARE` of the base, a write merges them into a new
    base (:meth:`compact`), so no probe pays for the merge.
    """

    def __init__(self, pager: PageManager, n_tables: int, n_buckets: int):
        self.pager = pager
        self.n_buckets = np.full(n_tables, n_buckets, dtype=np.int64)
        self.chain_pages = np.zeros(n_tables * n_buckets, dtype=np.int64)
        self.tables = [
            BucketHashTable(
                pager, n_buckets,
                self.chain_pages[t * n_buckets:(t + 1) * n_buckets],
            )
            for t in range(n_tables)
        ]
        self._set_base(
            np.zeros(n_tables + 1, dtype=np.int64), np.zeros(0, dtype=np.uint64),
            np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64),
        )
        self._clear_delta()

    def _set_base(self, run_offsets, run_fps, run_indptr, run_sids) -> None:
        self.base = TableStack(
            self.n_buckets, self.chain_pages, run_offsets, run_fps,
            run_indptr, run_sids,
        )
        #: Base entries per table, tombstoned ones included.
        self._n_base = self.base.n_entries // self.n_tables
        #: The tombstone mask, by sid (made at the first tombstone).
        self._dead = None
        self._n_dead = 0

    def _clear_delta(self) -> None:
        #: The delta's sids.
        self._in_delta: set[int] = set()
        #: The delta's entries, ``(l, n)``: each table's row sorted by
        #: fingerprint, then sid.
        self._delta_fps = np.zeros((self.n_tables, 0), dtype=np.uint64)
        self._delta_sids = np.zeros((self.n_tables, 0), dtype=np.int64)
        self._delta_stack: TableStack | None = None

    @property
    def n_tables(self) -> int:
        return len(self.tables)

    # -- writes ------------------------------------------------------------

    def insert(self, fingerprints: np.ndarray, sid: int) -> None:
        """Store one set's entry in every table (``fingerprints[t]`` its
        fingerprint in table ``t``) under a new sid."""
        for table, fingerprint in zip(self.tables, fingerprints.tolist()):
            table.insert_hashed(fingerprint, sid)
        # One entry into each table's sorted delta row, after the equal
        # fingerprints (a new sid is the largest): O(l n), no sort.
        n_tables, n = self._delta_fps.shape
        at = np.count_nonzero(self._delta_fps <= fingerprints[:, None], axis=1)
        at += np.arange(n_tables) * n
        self._delta_fps = np.insert(
            self._delta_fps.ravel(), at, fingerprints
        ).reshape(n_tables, n + 1)
        self._delta_sids = np.insert(
            self._delta_sids.ravel(), at, sid
        ).reshape(n_tables, n + 1)
        self._in_delta.add(sid)
        self._delta_stack = None
        self._maybe_compact()

    def delete(self, fingerprints: np.ndarray, sid: int) -> bool:
        """Remove one set's entries; returns whether it was stored."""
        found = False
        for table, fingerprint in zip(self.tables, fingerprints.tolist()):
            found |= table.delete_hashed(fingerprint, sid)
        if not found:
            return False
        if sid in self._in_delta:
            self._in_delta.remove(sid)
            keep = self._delta_sids != sid
            shape = (self.n_tables, len(self._in_delta))
            self._delta_fps = self._delta_fps[keep].reshape(shape)
            self._delta_sids = self._delta_sids[keep].reshape(shape)
            self._delta_stack = None
        else:
            if self._dead is None:
                self._dead = np.zeros(int(self.base.run_sids.max()) + 1, dtype=bool)
            self._dead[sid] = True
            self._n_dead += 1
        self._maybe_compact()
        return True

    def bulk_load(self, columns: Iterable[np.ndarray], sids: Sequence[int]) -> dict:
        """Load many sets at once: ``columns`` yields each table's
        fingerprint vector in table order, one entry per sid.

        Each table's pages take its vector in one
        :meth:`BucketHashTable.bulk_load_hashed` call, in input order.
        Into empty tables the base is then built straight from the
        vectors, one table at a time into whole-filter arrays sized up
        front (a stable sort per table), so only one table's temporaries
        are alive at once; onto stored entries the sets join the delta.
        Returns the load's totals: tables, entries, new pages and tail
        pages read.
        """
        sids = np.asarray(sids, dtype=np.int64)
        n, n_tables = len(sids), self.n_tables
        report = dict.fromkeys(("entries", "new_pages", "tail_reads"), 0)
        if n == 0:
            return {"tables": n_tables, **report}
        fresh = not (self._n_base or self._in_delta)
        if fresh:
            runs = _RunArrays(n_tables, n_tables * n)
        else:
            block = np.empty((n_tables, n), dtype=np.uint64)
        for t, (table, fps) in enumerate(zip(self.tables, columns)):
            loaded = table.bulk_load_hashed(fps, sids)
            for key in report:
                report[key] += loaded[key]
            if fresh:
                order = np.argsort(fps, kind="stable")
                runs.add(fps[order], sids[order])
            else:
                block[t] = fps
        if fresh:
            self._set_base(*runs.arrays())
        else:
            fps = np.concatenate((self._delta_fps, block), axis=1)
            owners = np.concatenate(
                (self._delta_sids, np.broadcast_to(sids, block.shape)), axis=1
            )
            order = np.lexsort((owners, fps), axis=1)
            self._delta_fps = np.take_along_axis(fps, order, axis=1)
            self._delta_sids = np.take_along_axis(owners, order, axis=1)
            self._in_delta.update(sids.tolist())
            self._delta_stack = None
            self._maybe_compact()
        return {"tables": n_tables, **report}

    def load(self, stack: TableStack) -> None:
        """Take a stored filter's :class:`TableStack` (e.g. a mapped
        snapshot's) into these empty tables: the base is a heap copy of
        its runs, each run's sids put in ascending order; each table's
        pages bulk-load its entries in sid order, as a bulk build
        lays them out, for the write-side accounting only."""
        offsets = stack.run_offsets.tolist()
        run_indptr = np.array(stack.run_indptr)
        run_sids = np.array(stack.run_sids)
        lens = np.diff(run_indptr)
        for t, table in enumerate(self.tables):
            first, last = run_indptr[[offsets[t], offsets[t + 1]]].tolist()
            owners = run_sids[first:last]
            order = np.argsort(owners, kind="stable")
            fps = np.repeat(stack.run_fps[offsets[t]:offsets[t + 1]],
                            lens[offsets[t]:offsets[t + 1]])
            table.bulk_load_hashed(fps[order], owners[order])
        # A run written in another order (slot-scan order, by older
        # saves of churned indexes) is sorted here; sid-ascending runs
        # are the rule, so this is one check.
        within = np.ones(len(run_sids), dtype=bool)
        within[run_indptr[:-1][lens > 0]] = False
        if np.any(within[1:] & (run_sids[1:] <= run_sids[:-1])):
            run_of = np.repeat(np.arange(len(lens)), lens)
            run_sids = run_sids[np.lexsort((run_sids, run_of))]
        self._set_base(offsets, np.array(stack.run_fps), run_indptr, run_sids)

    def _maybe_compact(self) -> None:
        if len(self._in_delta) + self._n_dead > COMPACT_SHARE * self._n_base:
            self.compact()

    def compact(self) -> None:
        """Merge the delta into the base minus its tombstoned entries:
        a sorted merge over arrays, table by table into the new base's
        run arrays, the delta's entries placed after the base's equal
        fingerprints (their sids are larger), so every run stays
        sid-ascending."""
        if not self._in_delta and not self._n_dead:
            return
        base, dead = self.base, self._dead
        delta_fps, delta_sids = self._delta_fps, self._delta_sids
        offsets = base.run_offsets.tolist()
        runs = _RunArrays(
            self.n_tables,
            base.n_entries + self.n_tables * (delta_fps.shape[1] - self._n_dead),
        )
        for t, (r0, r1) in enumerate(zip(offsets, offsets[1:])):
            indptr = base.run_indptr[r0:r1 + 1]
            fps = np.repeat(base.run_fps[r0:r1], np.diff(indptr))
            sids = base.run_sids[indptr[0]:indptr[-1]]
            if self._n_dead:
                keep = ~dead[sids]
                fps, sids = fps[keep], sids[keep]
            if delta_fps.shape[1]:
                at = fps.searchsorted(delta_fps[t], side="right")
                fps = np.insert(fps, at, delta_fps[t])
                sids = np.insert(sids, at, delta_sids[t])
            runs.add(fps, sids)
        self._set_base(*runs.arrays())
        self._clear_delta()

    def _delta_image(self) -> TableStack:
        """The delta stacked like the base (once per change: its rows
        are kept sorted, so this only finds the runs)."""
        if self._delta_stack is None:
            fps = self._delta_fps.ravel()
            bounds = np.arange(self.n_tables + 1) * self._delta_fps.shape[1]
            starts = _run_starts(fps, bounds[:-1])
            self._delta_stack = TableStack(
                self.n_buckets, self.chain_pages, np.searchsorted(starts, bounds),
                fps[starts], np.append(starts, len(fps)), self._delta_sids.ravel(),
            )
        return self._delta_stack

    # -- reads ---------------------------------------------------------------

    def probe(
        self, start: int, stop: int, fingerprints: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every hit of tables ``start .. stop - 1`` as ``(row, sid)``
        arrays (see :meth:`TableStack.lookup`): the base's minus the
        tombstones, then the delta's.

        The tables read through their pager, which charges its cost
        model: once for the whole range, from the live chain lengths.
        Behind a buffer pool (whose charges depend on what it holds)
        every distinct bucket chain is read through the pool instead,
        table by table, buckets in the order the rows first reach them
        and each chain head first.
        """
        base, pager = self.base, self.pager
        buckets = base.buckets(start, stop, fingerprints)
        if pager.cache_pages:
            # The counters move as always; the pool decides the charges.
            _charge_grouped(buckets.ravel(), self.chain_pages, IOStats())
            read = pager.read
            local = buckets - base.bucket_offsets[start:stop, None]
            for table, column in zip(self.tables[start:stop], local.tolist()):
                chains = table._chains
                for bucket in dict.fromkeys(column):
                    for rank, page_id in enumerate(chains[bucket]):
                        read(page_id, sequential=rank > 0)
        else:
            _charge_grouped(buckets.ravel(), self.chain_pages, pager.io.stats)
        rows, sids = base.lookup(start, stop, fingerprints)
        if self._n_dead:
            keep = ~self._dead[sids]
            rows, sids = rows[keep], sids[keep]
        if self._in_delta:
            more_rows, more_sids = self._delta_image().lookup(start, stop, fingerprints)
            rows = np.concatenate((rows, more_rows))
            sids = np.concatenate((sids, more_sids))
        return rows, sids

    def freeze(self) -> TableStack:
        """Compact, then the base as a snapshot's stack: its run arrays
        shared (the base is never written), the chain lengths copied."""
        self.compact()
        base = self.base
        return TableStack(
            base.n_buckets, self.chain_pages.copy(), base.run_offsets,
            base.run_fps, base.run_indptr, base.run_sids,
        )
