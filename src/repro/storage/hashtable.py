"""Paged bucket hash table -- the filter indices' building block.

Section 4.1 builds each filter index out of plain hash tables: keys are
the ``r`` sampled bits of a vector, values are set identifiers, and a
bucket holds up to ``sid_count`` identifiers per page.  The paper sizes
the table so bucket overflows are rare; we nevertheless support
overflow chains so the structure stays correct for any input.

The table is fully dynamic (insert and delete), which is what lets the
paper claim the overall index "readily supports dynamic operations".
Every write also patches the bucket's fingerprint directory in place,
so a read after writes costs what any other read costs.  A batch of
entries loads in one :meth:`BucketHashTable.bulk_load_hashed` call --
the build's and the snapshot thaw's only bulk load -- bit-identical in
chains, pages, directories and I/O accounting to inserting the entries
one by one.

Each stored entry is a ``(fingerprint, sid)`` pair of 16 bytes.  The
fingerprint is a 64-bit hash of the full key; matching on it avoids
returning sids that merely share a bucket (a modulo collision) while
keeping entries fixed-size.  Probes charge one random read for the
first bucket page and sequential reads for overflow pages, which are
assumed to be allocated adjacently.
"""

from __future__ import annotations

import itertools
from operator import countOf, itemgetter
from typing import Sequence

import numpy as np

from repro.hamming.splitmix import GOLDEN, mix64, mix64_array
from repro.obs import metrics
from repro.storage.pager import PageManager

#: Bytes per (fingerprint, sid) entry; determines slots per page.
ENTRY_BYTES = 16
_FP = itemgetter(0)

# Hot-path instruments, resolved once at import (see repro.obs.metrics).
# Candidate counts are deliberately NOT tracked here: the filter index
# already accounts them (sfi.candidates + sfi.duplicate_candidates is
# the sum of per-table bucket sizes), and probe() is the innermost loop.
_PROBES = metrics.counter("hashtable.probes")
_PROBE_PAGES = metrics.counter("hashtable.probe_pages")
#: Bucket pages a batched probe did NOT read because several keys of
#: the batch resolved to the same bucket (read once, served to all).
_PROBE_PAGES_SAVED = metrics.counter("hashtable.probe_pages_saved")
#: Chain-tail reads :meth:`BucketHashTable.insert` skipped because the
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
    """A disk-simulated hash table from byte keys to set identifiers.

    Parameters
    ----------
    pager:
        Page source; also supplies the I/O accounting.
    n_buckets:
        Number of hash buckets.  The paper chooses enough buckets that
        no overflows occur; a sensible choice is
        ``ceil(expected_entries / slots_per_page)``.
    """

    def __init__(self, pager: PageManager, n_buckets: int):
        if n_buckets <= 0:
            raise ValueError(f"n_buckets must be positive, got {n_buckets}")
        self.pager = pager
        self.n_buckets = n_buckets
        self.slots_per_page = pager.capacity_for(ENTRY_BYTES)
        # Chains of page ids per bucket; pages allocated lazily.
        self._chains: list[list[int]] = [[] for _ in range(n_buckets)]
        self._n_entries = 0
        # Fingerprint -> sids image of each bucket's slots, maintained
        # by every write: ``_directory[b]`` always equals the map built
        # by scanning bucket ``b``'s chain in slot order, each run's
        # sids in that order.  It is a pure CPU-side accelerator:
        # probes still charge the same page reads, the directory only
        # replaces re-scanning the slots.
        self._directory: list[dict[int, list[int]]] = [
            {} for _ in range(n_buckets)
        ]
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
        slot, so its sid ends its fingerprint's directory run.
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
        last.append((fingerprint, sid))
        self.pager.write(last.page_id)
        self._tail_slots[bucket] = len(last.slots)
        self._n_entries += 1
        directory = self._directory[bucket]
        run = directory.get(fingerprint)
        if run is None:
            directory[fingerprint] = [sid]
        else:
            run.append(sid)

    # -- bulk loading ------------------------------------------------------

    def bulk_load_hashed(
        self, fingerprints: np.ndarray, sids: Sequence[int]
    ) -> dict:
        """Bulk-insert many (fingerprint, sid) entries in one partitioned
        pass, for pre-computed ``hash_key`` fingerprints.

        Equivalent -- in chains, page ids and contents, directories and
        I/O accounting -- to ``for fp, sid in zip(fingerprints, sids):
        self.insert_hashed(fp, sid)``.  Entries are grouped by bucket with one stable argsort, each
        group's page layout (existing-tail absorption, new-page count)
        is array arithmetic, and pages are allocated in the order the
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
        # Directory runs: a second stable sort by (bucket, fingerprint)
        # makes every run a contiguous slice (stable, so slices keep
        # input order).  Bucket is the primary key, so group boundaries
        # coincide with ``bounds`` and every group's runs are a
        # contiguous run-index range -- each group's runs then assemble
        # at C speed from slice objects, one dict store per distinct
        # fingerprint instead of a per-entry append loop.
        order2 = np.lexsort((fps, buckets))
        fp2 = fps[order2]
        get_run = sids_arr[order2].tolist().__getitem__
        b2 = buckets[order2]
        run_starts = np.flatnonzero(
            np.r_[True, (b2[1:] != b2[:-1]) | (fp2[1:] != fp2[:-1])]
        )
        run_keys = fp2[run_starts].tolist()
        run_s = run_starts.tolist()
        run_e = np.append(run_starts[1:], n).tolist()
        # Every group boundary starts a run, so side="left" lands
        # exactly on each group's first run index.
        grp_run = np.searchsorted(run_starts, bounds).tolist()
        for g, bucket in enumerate(group_buckets):
            self._tail_slots[bucket] = len(
                pager.peek(self._chains[bucket][-1]).slots
            )
            a, b = grp_run[g], grp_run[g + 1]
            runs = zip(
                run_keys[a:b], map(get_run, map(slice, run_s[a:b], run_e[a:b]))
            )
            # The new entries follow the bucket's old ones in slot
            # order, so each run extends its fingerprint's run (an
            # empty bucket simply takes the new runs as its directory).
            directory = self._directory[bucket]
            if directory:
                for fingerprint, run in runs:
                    have = directory.get(fingerprint)
                    if have is None:
                        directory[fingerprint] = run
                    else:
                        have.extend(run)
            else:
                self._directory[bucket] = dict(runs)
        self._n_entries += n
        _BULK_ENTRIES.shard().count += n
        _BULK_PAGES.shard().count += len(alloc_buckets)
        return {
            "entries": n,
            "new_pages": len(alloc_buckets),
            "buckets": len(group_buckets),
            "tail_reads": tail_reads,
        }

    def probe_hashed(self, fingerprints: list[int], io=None) -> list[list[int]]:
        """The sids stored under each of many pre-computed ``hash_key``
        fingerprints (Python ints), reading each touched bucket page once.

        Fingerprints are grouped by bucket; every distinct bucket chain
        is read exactly once (one random read for the head page,
        sequential reads for overflow pages) and its directory serves
        all fingerprints of the group.  The page-read total is never
        greater than probing the fingerprints one at a time, and
        strictly smaller whenever two of them share a bucket.

        ``io`` is accepted so a filter probes live tables and a
        :class:`TableStack` through one call shape; the live table reads
        through its pager, which charges the index's cost model.
        """
        results: list[list[int]] = [[] for _ in fingerprints]
        by_bucket: dict[int, list[tuple[int, int]]] = {}
        n_buckets = self.n_buckets
        for i, fingerprint in enumerate(fingerprints):
            bucket = fingerprint % n_buckets
            if bucket in by_bucket:
                by_bucket[bucket].append((i, fingerprint))
            else:
                by_bucket[bucket] = [(i, fingerprint)]
        pages_cell = _PROBE_PAGES.shard()
        saved_cell = _PROBE_PAGES_SAVED.shard()
        for bucket, members in by_bucket.items():
            chain = self._chains[bucket]
            for rank, page_id in enumerate(chain):
                self.pager.read(page_id, sequential=rank > 0)
            directory = self._directory[bucket]
            pages_cell.count += len(chain)
            saved_cell.count += len(chain) * (len(members) - 1)
            for i, fingerprint in members:
                got = directory.get(fingerprint)
                # Copy so callers own their lists (two keys of the batch
                # may share a fingerprint).
                results[i] = list(got) if got else []
        _PROBES.shard().count += len(fingerprints)
        return results

    def delete_hashed(self, fingerprint: int, sid: int) -> bool:
        """Remove one (fingerprint, sid) entry for a pre-computed
        ``hash_key`` fingerprint; returns whether one was found.

        The first matching slot in chain order is the hole; compaction
        moves the chain's last entry into it.  The directory follows
        the slots: the sid leaves its run (its first occurrence is the
        hole's), and the moved entry's sid, the last of its run, takes
        the rank the hole gives it among its fingerprint's slots.
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
            filled = not (page is last_page and index == len(last_page.slots))
            if filled:
                page.slots[index] = moved
                self.pager.write(page.page_id)
            if not last_page.slots:
                self.pager.free(chain.pop())
                # The surviving tail was not touched here; forget its
                # fill state so the next insert re-reads it.
                self._tail_slots[bucket] = -1
            else:
                self.pager.write(last_page.page_id)
                self._tail_slots[bucket] = len(last_page.slots)
            self._n_entries -= 1
            directory = self._directory[bucket]
            run = directory[fingerprint]
            if len(run) == 1:
                del directory[fingerprint]
            else:
                run.remove(sid)
            if filled:
                moved_fp, moved_sid = moved
                moved_run = directory[moved_fp]
                if len(moved_run) > 1:
                    # It now follows exactly the run's slots before the
                    # hole (uncharged peeks: those pages were just read).
                    moved_run.pop()
                    before = countOf(map(_FP, page.slots[:index]), moved_fp)
                    for prior in chain[:rank]:
                        before += countOf(
                            map(_FP, self.pager.peek(prior).slots), moved_fp
                        )
                    moved_run.insert(before, moved_sid)
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
    ``chain_pages``, one per probed key) as the live table's
    :meth:`BucketHashTable.probe_hashed` charges it.

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


class TableStack:
    """Immutable fingerprint-run image of one filter's ``l`` tables.

    Table ``t`` has ``n_buckets[t]`` buckets and owns entries
    ``bucket_offsets[t] .. bucket_offsets[t + 1] - 1`` of ``chain_pages``
    (each bucket's page count) and runs ``run_offsets[t] ..
    run_offsets[t + 1] - 1`` of ``run_fps``, which holds every
    fingerprint the table stores once, ascending within the table (a
    fingerprint's bucket is ``fp % n_buckets[t]``, so no per-bucket
    index is needed).  Any run ``p`` owns
    ``run_sids[run_indptr[p]:run_indptr[p + 1]]`` in slot-scan order,
    one ``indptr`` over every table's runs.  The arrays may live on the
    heap (:meth:`from_tables`) or in a mapped snapshot file
    (:func:`repro.exec.snapfile.open_snapshot`); the stack is the same
    either way.

    :meth:`probe` serves a range of tables in one pass.  Page reads are
    *accounted* (into the ``io`` argument) rather than performed, with
    charges and counter moves identical to probing each live table in
    turn with :meth:`BucketHashTable.probe_hashed`.  Safe for
    concurrent probing from many threads -- nothing is mutated except
    the caller's ``io`` and the calling thread's counter shards.
    """

    __slots__ = ("n_buckets", "bucket_offsets", "chain_pages", "run_offsets",
                 "run_fps", "run_indptr", "run_sids")

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

    @classmethod
    def from_tables(cls, tables: Sequence[BucketHashTable]) -> "TableStack":
        """The stacked image of live tables, copied off them (later
        writes to the tables cannot reach it).

        Every table's per-bucket fingerprint directories flatten into
        runs sorted by fingerprint across the table -- a fingerprint
        lives in exactly one bucket, so the sort is strict -- each run's
        sids in slot-scan order, and the per-bucket chain lengths are
        snapshotted.
        """
        run_offsets = [0]
        for table in tables:
            run_offsets.append(run_offsets[-1] + sum(map(len, table._directory)))
        n_runs = run_offsets[-1]
        # Streamed off the directories, table by table and bucket by
        # bucket: no whole-filter Python list is built (it would add
        # to the peak memory of every save).
        buckets = [d for table in tables for d in table._directory]
        run_fps = np.fromiter(
            itertools.chain.from_iterable(buckets), dtype=np.uint64, count=n_runs
        )
        run_lens = np.fromiter(
            (len(run) for d in buckets for run in d.values()), dtype=np.int64,
            count=n_runs,
        )
        n_sids = int(run_lens.sum())
        sids = np.fromiter(
            itertools.chain.from_iterable(run for d in buckets for run in d.values()),
            dtype=np.int64, count=n_sids,
        )
        order = np.concatenate([
            a + np.argsort(run_fps[a:b])
            for a, b in zip(run_offsets, run_offsets[1:])
        ])
        starts = np.cumsum(run_lens) - run_lens
        sorted_lens = run_lens[order]
        run_indptr = np.zeros(n_runs + 1, dtype=np.int64)
        np.cumsum(sorted_lens, out=run_indptr[1:])
        # Entry i of the sorted layout comes from position gather[i] of
        # the bucket-order sid list: each run moves as one block.
        gather = np.repeat(starts[order] - run_indptr[:-1], sorted_lens)
        gather += np.arange(n_sids, dtype=np.int64)
        return cls(
            [table.n_buckets for table in tables],
            np.array(
                [len(c) for table in tables for c in table._chains], dtype=np.int64
            ),
            run_offsets,
            run_fps[order],
            run_indptr,
            sids[gather],
        )

    @property
    def n_tables(self) -> int:
        return len(self.n_buckets)

    def probe(
        self, start: int, stop: int, fingerprints: np.ndarray, io
    ) -> tuple[np.ndarray, np.ndarray]:
        """Probe tables ``start .. stop - 1``, ``fingerprints[k]`` holding
        every query row's fingerprint in table ``start + k``.

        Returns every hit as parallel ``(row, sid)`` arrays, one entry per
        sid of each matching run: per table, hits come in row order and
        each row's sids in run order, the lists
        :meth:`BucketHashTable.probe_hashed` returns.  Bucket
        reads are grouped per table -- the tables' bucket ranges are
        disjoint, so one sort of global bucket indices groups them all --
        and run lookup is one ``searchsorted`` per table; the sid gather
        is one pass over all tables.
        """
        from repro.exec.columnar import gather_csr

        n_tables, n_rows = fingerprints.shape
        buckets = (
            fingerprints % self.n_buckets[start:stop, None].astype(np.uint64)
        ).astype(np.int64)
        buckets += self.bucket_offsets[start:stop, None]
        _charge_grouped(buckets.ravel(), self.chain_pages, io)
        bounds = self.run_offsets[start:stop + 1].tolist()
        run_fps = self.run_fps
        pos = np.empty((n_tables, n_rows), dtype=np.int64)
        for k in range(n_tables):
            a, b = bounds[k], bounds[k + 1]
            pos[k] = np.searchsorted(run_fps[a:b], fingerprints[k])
            pos[k] += a
        inside = pos < np.asarray(bounds[1:], dtype=np.int64)[:, None]
        runs = pos[inside]
        rows = np.nonzero(inside)[1]
        hit = run_fps[runs] == fingerprints[inside]
        runs, rows = runs[hit], rows[hit]
        indptr, sids = gather_csr(self.run_indptr, self.run_sids, runs)
        return np.repeat(rows, np.diff(indptr)), sids
