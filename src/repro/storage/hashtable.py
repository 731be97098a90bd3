"""Paged bucket hash tables -- the filter indices' building block.

Section 4.1 builds each filter index out of plain hash tables: keys are
the ``r`` sampled bits of a vector, values are set identifiers, and a
bucket holds up to ``sid_count`` identifiers per page.  The paper sizes
the table so bucket overflows are rare; we nevertheless support
overflow chains so the structure stays correct for any input.

The tables are fully dynamic (insert and delete), which is what lets the
paper claim the overall index "readily supports dynamic operations".
Two pieces carry that here:

- :class:`LiveTables` is a live filter's ``l`` tables.  Their pages are
  rows of two page arrays (fingerprints, sids); every bucket's chain,
  entry count and tail state is an array entry over all ``l`` tables'
  buckets, and a slot index gives each stored set's page cell
  in every table, so a delete names the set by its sid alone.  An
  insert or a delete is one array pass over the ``l`` tables,
  and a batch loads a table at a time, each charging exactly what the
  page operations of ``l`` tables written one after another charge.
  Probes read an immutable stacked base, a small sorted delta of the
  sets inserted since the last compaction and a tombstone mask over the
  deleted sids.
- :class:`TableStack` is the one probe kernel: the fingerprint runs of a
  filter's ``l`` tables in a few flat arrays, probed for a whole batch
  in one pass.  Frozen and mapped snapshots serve from it, and a live
  filter's base and delta are stacks.

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
#: Chain-tail reads :meth:`LiveTables.insert` skipped because the tail
#: page's fill state was still known from the filter's own last write to
#: the bucket (the page is logically in the writer's buffer).
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

    def sid_order(self, t: int, sids: np.ndarray) -> np.ndarray:
        """The order that sorts table ``t``'s entries by sid, refusing
        (``ValueError``) a table that does not hold exactly one entry of
        each stored set ``sids`` (ascending, unique) -- the invariant a
        delete by sid rests on."""
        first, last = self.run_indptr[self.run_offsets[[t, t + 1]]].tolist()
        owners = np.asarray(self.run_sids[first:last])
        # Not a stable sort (3x faster): a table that passes holds each
        # sid once, so every sort gives it the same order.
        order = np.argsort(owners)
        if not np.array_equal(owners[order], sids):
            raise ValueError(
                f"table {t} does not hold one entry of each of the "
                f"{len(sids)} stored sets"
            )
        return order

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
#: filter, while a pending write costs every insert an O(l * delta)
#: in-place shift of the sorted delta rows and every probe a second run
#: lookup per table and the tombstone filter.  Measured on the weblog
#: bench collection (3,000 sets, 200 tables in 5 filters, 2-vCPU host;
#: four rounds of 200 churn cycles of 16 inserts, 16 deletes and a batch
#: of 32): at 1/4 a filter merges every ~25 cycles at 5.6-7.7 ms a
#: merge, 1.1-1.5 ms a cycle, the delta upkeep takes 3.8-5.0 ms a cycle
#: and the live probes 2.0-2.5 ms.  Merges, upkeep and probes together
#: took 6.5-8.7 ms a cycle at 1/8, 7.0-9.1 at 1/4 and 8.9-11.4 at 1/2,
#: of a cycle wall of 29-46 ms that the host's state moved more than
#: the share did: 1/8 and 1/4 are within noise of each other, and 1/2
#: pays for its larger delta.
COMPACT_SHARE = 0.25


class LiveTables:
    """One live filter's ``l`` tables: array-backed pages for the
    write-side accounting, and stacked images for probes.

    The pages.  Bucket ``b`` of table ``t`` is the filter's bucket
    ``g = t * n_buckets + b``.  Its chain is ``chain_pages[g]`` pages,
    rows ``_chain_rows[g, :chain_pages[g]]`` (head first) of the page
    arrays ``_page_fps`` / ``_page_sids``, one row of
    ``slots_per_page`` entries per page.  The chain holds ``_count[g]``
    entries densely in chain order -- entry ``i`` in slot
    ``i % slots_per_page`` of the chain's page ``i // slots_per_page``
    -- since a delete moves the chain's last entry into its hole, so
    every page but the tail is full.  ``_tail_known[g]`` says whether
    the tail's fill state is known from this filter's own last write to
    the bucket (an insert then skips re-reading it).  The slot index
    gives each stored set a row ``_set_row[sid]`` of ``_slot``, whose
    column ``t`` is the page-array cell (``row * slots_per_page +
    slot``) of the set's one entry in table ``t`` (:meth:`load` refuses
    a stack without one entry a set in every table): the fingerprint
    there gives the bucket and ``_chain_rows`` the page's rank, so a
    delete takes only the sid and finds its hole without a scan.  A
    deleted set's row is reused, so the index grows with the sets
    stored, not with the sids ever used.  Pages take no ids: every read
    is charged, so a write's charges follow from the chain page counts,
    the tail states and the hole's rank alone, and are charged to the
    pager's cost model once for all ``l`` tables -- exactly what ``l``
    tables written one after another charge.  Each write is one array
    pass over the ``l`` tables.

    The probes.

    - ``base``: an immutable :class:`TableStack` of the entries present
      at the last compaction (bulk load, :meth:`load` or merge).
    - the delta: the entries of the sets inserted since, one row per
      table of a preallocated buffer, each row kept sorted by
      fingerprint; stacked into a small :class:`TableStack` when a
      probe first needs it.
    - the tombstones: a mask over the sids deleted since the last
      compaction, from the base and the delta alike.

    A probe is the base's hits plus the delta's, minus the tombstoned
    sids: one ``(row, sid)`` hit list with exactly the entries the pages
    hold; its reads are charged once, from the live chain lengths.
    Every sid is stored at most once (one set, one identifier: a write
    of a stored sid is refused), and sids only grow (a bulk load takes
    them ascending), so every run of the base and the delta is
    sid-ascending -- the layout a bulk build gives.  When the delta and
    the tombstones pass :data:`COMPACT_SHARE` of the base, a write
    merges them into a new base (:meth:`compact`), so no probe pays for
    the merge.
    """

    def __init__(self, pager: PageManager, n_tables: int, n_buckets: int):
        if n_buckets <= 0:
            raise ValueError(f"n_buckets must be positive, got {n_buckets}")
        self.pager = pager
        self.slots_per_page = slots = pager.capacity_for(ENTRY_BYTES)
        self.n_buckets = np.full(n_tables, n_buckets, dtype=np.int64)
        self._modulus = np.uint64(n_buckets)
        #: Each table's first bucket.
        self._first = np.arange(n_tables, dtype=np.int64) * n_buckets
        n_all = n_tables * n_buckets
        #: Pages in each bucket's chain, kept current by every write:
        #: what a grouped probe of the bucket charges.
        self.chain_pages = np.zeros(n_all, dtype=np.int64)
        self._count = np.zeros(n_all, dtype=np.int64)
        self._tail_known = np.zeros(n_all, dtype=bool)
        self._chain_rows = np.full((n_all, 1), -1, dtype=np.int64)
        self._page_fps = np.empty((0, slots), dtype=np.uint64)
        self._page_sids = np.empty((0, slots), dtype=np.int64)
        self._free_rows: list[int] = []
        self._slot = np.empty((0, n_tables), dtype=np.int64)
        self._free_slot_rows: list[int] = []
        #: Each sid's row of ``_slot`` (-1: not stored) and the
        #: tombstone mask, by sid.
        self._set_row = np.empty(0, dtype=np.int32)
        self._dead = np.empty(0, dtype=bool)
        self._set_base(
            np.zeros(n_tables + 1, dtype=np.int64), np.zeros(0, dtype=np.uint64),
            np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64),
        )
        #: The delta's entries, ``(l, capacity)``: the first
        #: ``_n_delta`` of each table's row, sorted by fingerprint, then
        #: sid.
        self._delta_fps = np.empty((n_tables, 0), dtype=np.uint64)
        self._delta_sids = np.empty((n_tables, 0), dtype=np.int64)
        self._n_delta = 0
        self._delta_stack: TableStack | None = None

    def _set_base(self, run_offsets, run_fps, run_indptr, run_sids) -> None:
        self.base = TableStack(
            self.n_buckets, self.chain_pages, run_offsets, run_fps,
            run_indptr, run_sids,
        )
        #: Base entries per table, tombstoned ones included.
        self._n_base = self.base.n_entries // self.n_tables
        self._dead[:] = False
        self._n_dead = 0

    @property
    def n_tables(self) -> int:
        return len(self.n_buckets)

    # -- writes ------------------------------------------------------------

    def insert(self, fingerprints: np.ndarray, sid: int) -> None:
        """Store one set's entry in every table (``fingerprints[t]`` its
        fingerprint in table ``t``) under a sid not stored here.

        In each table a chain tail whose fill state is unknown is read
        (one random read), a full or missing tail opens a page (one
        allocation write), and the entry takes the chain's next slot
        (one write).
        """
        row = self._admit(np.array([sid], dtype=np.int64))[0]
        fingerprints = np.asarray(fingerprints, dtype=np.uint64)
        buckets = (fingerprints % self._modulus).astype(np.int64) + self._first
        count, chain = self._count[buckets], self.chain_pages[buckets]
        stored, known = chain > 0, self._tail_known[buckets]
        self.pager.io.read_random(int(np.count_nonzero(stored & ~known)))
        _TAIL_READS_SKIPPED.shard().count += int(np.count_nonzero(stored & known))
        self._open_pages(buckets[count == chain * self.slots_per_page])
        cells = self._cells(buckets, count)
        self._page_fps.reshape(-1)[cells] = fingerprints
        self._page_sids.reshape(-1)[cells] = sid
        self.pager.io.write(len(buckets))
        self._count[buckets] = count + 1
        self._tail_known[buckets] = True
        self._slot[row] = cells
        self._delta_insert(fingerprints, sid)
        self._maybe_compact()

    def delete(self, sid: int) -> None:
        """Remove a stored set's entry from every table (``KeyError``,
        before anything is read, written or counted, if not stored).

        Each table reads the chain up to the entry's page (a random
        read for the head, sequential after it) and re-reads its tail
        (sequential); the chain's last entry moves into the hole (one
        write, unless it was the hole), and the tail is then freed if
        emptied -- forgetting the new tail's fill state -- or written.
        The sid is tombstoned.
        """
        row = self._set_row[sid] if 0 <= sid < len(self._set_row) else -1
        if row < 0:
            raise KeyError(f"sid {sid} is not stored")
        slots, n_tables = self.slots_per_page, self.n_tables
        fps, owners = self._page_fps.reshape(-1), self._page_sids.reshape(-1)
        cells = self._slot[row]
        buckets = (fps[cells] % self._modulus).astype(np.int64) + self._first
        hole_ranks = (self._chain_rows[buckets] == (cells // slots)[:, None]).argmax(axis=1)
        last = self._count[buckets] - 1
        freed = last % slots == 0
        tails = self._chain_rows[buckets[freed], last[freed] // slots]
        self.pager.io.read_random(n_tables)
        self.pager.io.read_sequential(int(hole_ranks.sum()) + n_tables)
        # The chain's last entry fills the hole (unless it is the hole).
        last_cells = self._cells(buckets, last)
        moves = cells != last_cells
        moved = owners[last_cells[moves]]
        fps[cells[moves]] = fps[last_cells[moves]]
        owners[cells[moves]] = moved
        self._slot[self._set_row[moved], np.flatnonzero(moves)] = cells[moves]
        self._set_row[sid] = -1
        self._free_slot_rows.append(int(row))
        self.pager.io.write(len(moved) + n_tables - len(tails))
        self._count[buckets] = last
        self._tail_known[buckets] = ~freed
        if len(tails):
            emptied = buckets[freed]
            self.chain_pages[emptied] -= 1
            self._chain_rows[emptied, self.chain_pages[emptied]] = -1
            self._free_rows += tails.tolist()
        self._dead[sid] = True  # a stored sid is never dead: see _admit
        self._n_dead += 1
        self._maybe_compact()

    def bulk_load(self, columns: Iterable[np.ndarray], sids: Sequence[int]) -> dict:
        """Load many sets at once: ``columns`` yields each table's
        fingerprint vector in table order, one entry per sid; no sid may
        repeat or be stored here already.

        Each table's pages take its vector as inserting its entries one
        by one would (:meth:`_load_table`).  Into empty tables the base
        is then built straight from the vectors, one table at a time
        into whole-filter arrays sized up front (a stable sort per
        table), so only one table's temporaries are alive at once; onto
        stored entries the sets join the delta.  Returns the load's
        totals: tables, entries, new pages and tail pages read.
        """
        sids = np.asarray(sids, dtype=np.int64)
        n, n_tables = len(sids), self.n_tables
        report = dict.fromkeys(("entries", "new_pages", "tail_reads"), 0)
        if n == 0:
            return {"tables": n_tables, **report}
        ordered = np.sort(sids)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("duplicate sids in a bulk load: one set is one identifier")
        self._admit(sids)
        fresh = not (self._n_base or self._n_delta)
        if fresh:
            runs = _RunArrays(n_tables, n_tables * n)
        else:
            block = np.empty((n_tables, n), dtype=np.uint64)
        for t, fps in zip(range(n_tables), columns):
            if t == 1:
                # Room for the other tables' pages at the first one's
                # count (and a sixteenth more), so the page arrays grow
                # about once.
                self._reserve_rows(report["new_pages"] * (n_tables - 1) * 17 // 16)
            new_pages, tail_reads = self._load_table(t, fps, sids)
            report["entries"] += n
            report["new_pages"] += new_pages
            report["tail_reads"] += tail_reads
            if fresh:
                order = np.argsort(fps, kind="stable")
                runs.add(fps[order], sids[order])
            else:
                block[t] = fps
        if fresh:
            self._set_base(*runs.arrays())
        else:
            n_old = self._n_delta
            fps = np.concatenate((self._delta_fps[:, :n_old], block), axis=1)
            owners = np.concatenate(
                (self._delta_sids[:, :n_old], np.broadcast_to(sids, block.shape)),
                axis=1,
            )
            order = np.lexsort((owners, fps), axis=1)
            self._reserve_delta(n_old + n)
            self._delta_fps[:, :n_old + n] = np.take_along_axis(fps, order, axis=1)
            self._delta_sids[:, :n_old + n] = np.take_along_axis(owners, order, axis=1)
            self._n_delta = n_old + n
            self._delta_stack = None
            self._maybe_compact()
        return {"tables": n_tables, **report}

    def load(self, stack: TableStack, sids: np.ndarray) -> None:
        """Take a stored filter's :class:`TableStack` (e.g. a mapped
        snapshot's) of the stored sets ``sids`` (ascending, unique) into
        these empty tables: the base is a heap copy of its runs, each
        run's sids put in ascending order; each table's pages bulk-load
        its entries in sid order, as a bulk build lays them out, for the
        write-side accounting only.

        A table that does not hold one entry of each set in ``sids`` is
        refused (:meth:`TableStack.sid_order`) before its sids index
        anything."""
        offsets = stack.run_offsets.tolist()
        run_indptr = np.array(stack.run_indptr)
        run_sids = np.array(stack.run_sids)
        lens = np.diff(run_indptr)
        if len(sids):
            self._reserve_sids(int(sids[-1]) + 1)
            self._set_row[sids] = self._take_slot_rows(len(sids))
        self._reserve_rows(int(np.sum(stack.chain_pages)))
        for t in range(self.n_tables):
            order = stack.sid_order(t, sids)
            fps = np.repeat(stack.run_fps[offsets[t]:offsets[t + 1]],
                            lens[offsets[t]:offsets[t + 1]])
            self._load_table(t, fps[order], sids)
        # A run written in another order (slot-scan order, by older
        # saves of churned indexes) is sorted here; sid-ascending runs
        # are the rule, so this is one check.
        within = np.ones(len(run_sids), dtype=bool)
        within[run_indptr[:-1][lens > 0]] = False
        if np.any(within[1:] & (run_sids[1:] <= run_sids[:-1])):
            run_of = np.repeat(np.arange(len(lens)), lens)
            run_sids = run_sids[np.lexsort((run_sids, run_of))]
        self._set_base(offsets, np.array(stack.run_fps), run_indptr, run_sids)

    def _load_table(self, t: int, fps: np.ndarray, sids: np.ndarray) -> tuple[int, int]:
        """Table ``t``'s pages take ``fps[i]`` under ``sids[i]``, in one
        bucket-partitioned pass equivalent -- in chains, slots and I/O
        accounting -- to inserting the entries one by one in input
        order.  Returns the pages opened and the tails read.

        Entries are grouped by bucket with one stable argsort; each
        entry's chain slot follows from its bucket's count and its rank
        in the group, and a page opens (one write) at each slot that
        starts a page past the chain's end.  A target bucket whose tail
        fill state is unknown (e.g. after a delete) has its tail read
        first -- one charged random read, as the one-by-one path's first
        write to that bucket charges.
        """
        fps = np.ascontiguousarray(fps, dtype=np.uint64)
        n, slots = len(fps), self.slots_per_page
        if n != len(sids):
            raise ValueError(f"{n} fingerprints but {len(sids)} sids given")
        if not n:
            return 0, 0
        local = (fps % self._modulus).astype(np.int64)
        order = np.argsort(local, kind="stable")
        local = local[order]
        starts = np.flatnonzero(np.r_[True, local[1:] != local[:-1]])
        sizes = np.diff(np.append(starts, n))
        groups = local[starts] + self._first[t]
        count, chain = self._count[groups], self.chain_pages[groups]
        n_unknown = int(np.count_nonzero((chain > 0) & ~self._tail_known[groups]))
        self.pager.io.read_random(n_unknown)
        owner = np.repeat(groups, sizes)
        at = np.repeat(count - starts, sizes) + np.arange(n)
        opens = (at % slots == 0) & (at >= np.repeat(chain, sizes) * slots)
        n_new = int(np.count_nonzero(opens))
        if n_new:
            ranks = at[opens] // slots
            self._widen(int(ranks.max()) + 1)
            self._chain_rows[owner[opens], ranks] = self._take_rows(n_new)
        cells = self._cells(owner, at)
        sids = np.asarray(sids)[order]
        self._page_fps.reshape(-1)[cells] = fps[order]
        self._page_sids.reshape(-1)[cells] = sids
        self._slot[self._set_row[sids], t] = cells
        self._count[groups] = count + sizes
        self.chain_pages[groups] = -(-(count + sizes) // slots)
        self._tail_known[groups] = True
        self.pager.io.write(n_new + n)
        _BULK_ENTRIES.shard().count += n
        _BULK_PAGES.shard().count += n_new
        return n_new, n_unknown

    def _admit(self, sids: np.ndarray) -> np.ndarray:
        """Refuse a negative sid or one stored here (one set, one
        identifier); give each sid a row of the slot index and return
        the rows.  A sid deleted since the last compaction is still
        tombstoned: the write compacts first, so the tombstone cannot
        mask the new entries."""
        if sids.min() < 0:
            raise ValueError(f"sids must be non-negative, got {int(sids.min())}")
        known = sids[sids < len(self._set_row)]
        rows = self._set_row[known]
        if rows.max(initial=-1) >= 0:
            raise ValueError(f"sid {int(known[rows >= 0][0])} is already stored")
        if self._n_dead and self._dead[known].any():
            self.compact()
        self._reserve_sids(int(sids.max()) + 1)
        rows = self._take_slot_rows(len(sids))
        self._set_row[sids] = rows
        return rows

    def _reserve_sids(self, size: int) -> None:
        """Grow the sid-indexed arrays to ``size`` sids."""
        old = len(self._set_row)
        if size > old:
            size = max(size, old + old // 2)
            set_row = np.full(size, -1, dtype=np.int32)
            set_row[:old] = self._set_row
            dead = np.zeros(size, dtype=bool)
            dead[:old] = self._dead
            self._set_row, self._dead = set_row, dead

    def _take_slot_rows(self, n: int) -> np.ndarray:
        """``n`` free rows of the slot index; short of them, it grows by
        at least half."""
        short = n - len(self._free_slot_rows)
        if short > 0:
            old = len(self._slot)
            size = old + max(short, old // 2)
            slot = np.full((size, self.n_tables), -1, dtype=np.int64)
            slot[:old] = self._slot
            self._slot = slot
            self._free_slot_rows += range(size - 1, old - 1, -1)
        return _pop(self._free_slot_rows, n)

    def _open_pages(self, buckets: np.ndarray) -> None:
        """Append a fresh page to each bucket's chain (one write each)."""
        n = len(buckets)
        if n:
            self.pager.io.write(n)
            ranks = self.chain_pages[buckets]
            self._widen(int(ranks.max()) + 1)
            self._chain_rows[buckets, ranks] = self._take_rows(n)
            self.chain_pages[buckets] = ranks + 1

    def _reserve_rows(self, n: int) -> None:
        """Room for ``n`` more pages: short of free rows, the page
        arrays grow by at least half."""
        short = n - len(self._free_rows)
        if short > 0:
            old = len(self._page_fps)
            size = old + max(short, old // 2)
            self._page_fps = _grown(self._page_fps, size)
            self._page_sids = _grown(self._page_sids, size)
            self._free_rows += range(size - 1, old - 1, -1)

    def _take_rows(self, n: int) -> np.ndarray:
        """``n`` free page-array rows."""
        self._reserve_rows(n)
        return _pop(self._free_rows, n)

    def _widen(self, width: int) -> None:
        """Make room for chains of ``width`` pages."""
        old = self._chain_rows.shape[1]
        if width > old:
            wide = np.full((len(self._chain_rows), max(width, 2 * old)), -1,
                           dtype=np.int64)
            wide[:, :old] = self._chain_rows
            self._chain_rows = wide

    def _cells(self, buckets: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Flat page-array index of entry ``at[i]`` of bucket
        ``buckets[i]``'s chain."""
        slots = self.slots_per_page
        return self._chain_rows[buckets, at // slots] * slots + at % slots

    # -- the delta -----------------------------------------------------------

    def _reserve_delta(self, size: int) -> None:
        """Grow the delta buffer to hold ``size`` sets."""
        old = self._delta_fps.shape[1]
        if size > old:
            size = max(size, 2 * old, 16)
            for name in ("_delta_fps", "_delta_sids"):
                grown = np.empty((self.n_tables, size), dtype=getattr(self, name).dtype)
                grown[:, :self._n_delta] = getattr(self, name)[:, :self._n_delta]
                setattr(self, name, grown)

    def _delta_insert(self, fingerprints: np.ndarray, sid: int) -> None:
        """One entry into each table's sorted delta row, after the equal
        fingerprints (a new sid is the largest): the row's larger
        entries shift one slot right in place, O(l n), no sort."""
        n = self._n_delta
        self._reserve_delta(n + 1)
        fps, owners = self._delta_fps, self._delta_sids
        larger = np.empty((self.n_tables, n + 1), dtype=bool)
        larger[:, n] = True
        np.greater(fps[:, :n], fingerprints[:, None], out=larger[:, :n])
        at = larger.argmax(axis=1)
        np.copyto(fps[:, 1:n + 1], fps[:, :n], where=larger[:, :n])
        np.copyto(owners[:, 1:n + 1], owners[:, :n], where=larger[:, :n])
        tables = np.arange(self.n_tables)
        fps[tables, at] = fingerprints
        owners[tables, at] = sid
        self._n_delta = n + 1
        self._delta_stack = None

    def _maybe_compact(self) -> None:
        if self._n_delta + self._n_dead > COMPACT_SHARE * self._n_base:
            self.compact()

    def compact(self) -> None:
        """Merge the delta into the base minus the tombstoned entries:
        a sorted merge over arrays, table by table into the new base's
        run arrays, the delta's entries placed after the base's equal
        fingerprints (their sids are larger), so every run stays
        sid-ascending."""
        n, dead = self._n_delta, self._dead
        if not n and not self._n_dead:
            return
        base = self.base
        offsets = base.run_offsets.tolist()
        runs = _RunArrays(
            self.n_tables, base.n_entries + self.n_tables * (n - self._n_dead)
        )
        for t, (r0, r1) in enumerate(zip(offsets, offsets[1:])):
            indptr = base.run_indptr[r0:r1 + 1]
            fps = np.repeat(base.run_fps[r0:r1], np.diff(indptr))
            sids = base.run_sids[indptr[0]:indptr[-1]]
            more_fps, more_sids = self._delta_fps[t, :n], self._delta_sids[t, :n]
            if self._n_dead:
                keep = ~dead[sids]
                fps, sids = fps[keep], sids[keep]
                keep = ~dead[more_sids]
                more_fps, more_sids = more_fps[keep], more_sids[keep]
            if len(more_fps):
                at = fps.searchsorted(more_fps, side="right")
                fps = np.insert(fps, at, more_fps)
                sids = np.insert(sids, at, more_sids)
            runs.add(fps, sids)
        self._set_base(*runs.arrays())
        self._n_delta = 0
        self._delta_stack = None

    def _delta_image(self) -> TableStack:
        """The delta stacked like the base (once per change: its rows
        are kept sorted, so this only finds the runs)."""
        if self._delta_stack is None:
            n = self._n_delta
            fps = self._delta_fps[:, :n].ravel()
            bounds = np.arange(self.n_tables + 1) * n
            starts = _run_starts(fps, bounds[:-1])
            self._delta_stack = TableStack(
                self.n_buckets, self.chain_pages, np.searchsorted(starts, bounds),
                fps[starts], np.append(starts, len(fps)),
                self._delta_sids[:, :n].flatten(),
            )
        return self._delta_stack

    # -- reads ---------------------------------------------------------------

    def probe(
        self, start: int, stop: int, fingerprints: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every hit of tables ``start .. stop - 1`` as ``(row, sid)``
        arrays (see :meth:`TableStack.lookup`): the base's, then the
        delta's, minus the tombstones.

        The reads are charged to the pager's cost model once for the
        whole range, from the live chain lengths.
        """
        base = self.base
        _charge_grouped(
            base.buckets(start, stop, fingerprints).ravel(), self.chain_pages,
            self.pager.io.stats,
        )
        rows, sids = base.lookup(start, stop, fingerprints)
        if self._n_delta:
            more_rows, more_sids = self._delta_image().lookup(start, stop, fingerprints)
            rows = np.concatenate((rows, more_rows))
            sids = np.concatenate((sids, more_sids))
        if self._n_dead:
            keep = ~self._dead[sids]
            rows, sids = rows[keep], sids[keep]
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

    # -- introspection (uncharged) -------------------------------------------

    @property
    def n_entries(self) -> int:
        """Entries per table (each stored set has one in every table)."""
        return int(self._count[:self.n_buckets[0]].sum())

    @property
    def n_pages(self) -> int:
        """Pages over all tables' chains."""
        return int(self.chain_pages.sum())

    def bucket_entries(self, t: int, bucket: int) -> tuple[np.ndarray, np.ndarray]:
        """``(fingerprints, sids)`` of table ``t``'s bucket, in chain
        order (page by page, slot by slot)."""
        bucket = int(self._first[t]) + bucket
        rows = self._chain_rows[bucket, :self.chain_pages[bucket]]
        n = self._count[bucket]
        return self._page_fps[rows].ravel()[:n], self._page_sids[rows].ravel()[:n]

    def tail_slots(self) -> np.ndarray:
        """Per bucket, the entries on its chain's tail page where this
        filter knows them from its own last write to the bucket, else
        -1 (the next write there must read the tail)."""
        fill = self._count - (self.chain_pages - 1) * self.slots_per_page
        return np.where(self._tail_known, fill, -1)

    def table_stats(self) -> list[dict]:
        """Occupancy and load statistics of each table, from the count
        and chain arrays.  ``load_factor`` is entries over provisioned
        slots (buckets x slots per page); under the paper's "no bucket
        overflows" provisioning it stays below 1 and
        ``max_chain_pages`` stays at 1."""
        n_buckets, slots = int(self.n_buckets[0]), self.slots_per_page
        counts = self._count.reshape(self.n_tables, n_buckets)
        chains = self.chain_pages.reshape(self.n_tables, n_buckets)
        return [
            {
                "n_buckets": n_buckets,
                "n_entries": n,
                "n_pages": pages,
                "slots_per_page": slots,
                "load_factor": n / (n_buckets * slots),
                "avg_occupancy": n / n_buckets,
                "max_occupancy": most,
                "nonempty_buckets": used,
                "max_chain_pages": longest,
            }
            for n, pages, most, used, longest in zip(
                counts.sum(axis=1).tolist(), chains.sum(axis=1).tolist(),
                counts.max(axis=1).tolist(),
                np.count_nonzero(counts, axis=1).tolist(),
                chains.max(axis=1).tolist(),
            )
        ]


def _pop(free: list[int], n: int) -> np.ndarray:
    """The last ``n`` rows of the free-row stack ``free``, taken off it
    (lowest first)."""
    cut = len(free) - n
    rows = free[cut:]
    del free[cut:]
    return np.array(rows[::-1], dtype=np.int64)


def _grown(array: np.ndarray, rows: int) -> np.ndarray:
    """``array`` with room for ``rows`` rows, the first ones copied."""
    grown = np.empty((rows,) + array.shape[1:], dtype=array.dtype)
    grown[:len(array)] = array
    return grown
