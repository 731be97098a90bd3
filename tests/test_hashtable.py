"""Unit tests for the paged bucket hash table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.obs import metrics
from repro.storage.hashtable import (
    ENTRY_BYTES,
    BucketHashTable,
    TableStack,
    hash_key,
)
from repro.storage.iomodel import IOCostModel, IOStats
from repro.storage.pager import PageManager


def _table(n_buckets=8, page_size=4096):
    return BucketHashTable(PageManager(IOCostModel(), page_size=page_size), n_buckets)


# The table takes fingerprints; these byte-key shorthands produce them
# with the scalar ``hash_key``.


def _fps(keys):
    return np.array([hash_key(key) for key in keys], dtype=np.uint64)


def _insert(table, key, sid):
    table.insert_hashed(hash_key(key), sid)


def _delete(table, key, sid):
    return table.delete_hashed(hash_key(key), sid)


def _probe(table, key):
    return table.probe_hashed([hash_key(key)])[0]


def _bulk_load(table, keys, sids):
    return table.bulk_load_hashed(_fps(keys), sids)


def _stack_probe(table, fps, io):
    """``table`` frozen into a one-table :class:`TableStack` and probed
    with ``fps`` (charges into ``io``): the per-row sid lists."""
    rows, sids = TableStack.from_tables([table]).probe(0, 1, fps[None], io)
    bounds = np.searchsorted(rows, np.arange(len(fps) + 1)).tolist()
    return [sids[a:b].tolist() for a, b in zip(bounds, bounds[1:])]


class TestHashKey:
    def test_deterministic(self):
        assert hash_key(b"abc") == hash_key(b"abc")

    def test_distinct_keys_differ(self):
        assert hash_key(b"abc") != hash_key(b"abd")

    def test_64_bit(self):
        assert 0 <= hash_key(b"x") < 2**64


class TestBucketHashTable:
    def test_insert_probe(self):
        table = _table()
        _insert(table, b"k1", 10)
        _insert(table, b"k1", 11)
        _insert(table, b"k2", 20)
        assert sorted(_probe(table, b"k1")) == [10, 11]
        assert _probe(table, b"k2") == [20]
        assert _probe(table, b"nope") == []
        assert table.n_entries == 3

    def test_no_bucket_cross_talk(self):
        """Keys sharing a bucket must not leak into each other's probes."""
        table = _table(n_buckets=1)
        for i in range(20):
            _insert(table, f"key-{i}".encode(), i)
        for i in range(20):
            assert _probe(table, f"key-{i}".encode()) == [i]

    def test_overflow_chains(self):
        table = _table(n_buckets=1, page_size=64)  # 4 entries per page
        for i in range(20):
            _insert(table, b"same", i)
        assert table.n_pages == 5
        assert sorted(_probe(table, b"same")) == list(range(20))

    def test_probe_io_chain_accounting(self):
        table = _table(n_buckets=1, page_size=64)
        for i in range(8):  # two pages in the chain
            _insert(table, b"k", i)
        io = table.pager.io
        before = io.snapshot()
        _probe(table, b"k")
        delta = io.snapshot() - before
        assert delta.random_reads == 1  # head page
        assert delta.sequential_reads == 1  # overflow page

    def test_delete_existing(self):
        table = _table()
        _insert(table, b"a", 1)
        _insert(table, b"a", 2)
        assert _delete(table, b"a", 1)
        assert _probe(table, b"a") == [2]
        assert table.n_entries == 1

    def test_delete_missing(self):
        table = _table()
        _insert(table, b"a", 1)
        assert not _delete(table, b"a", 99)
        assert not _delete(table, b"zzz", 1)
        assert table.n_entries == 1

    def test_delete_last_entry_of_last_page(self):
        """The swap-remove edge case: hole == popped entry."""
        table = _table(n_buckets=1, page_size=64)
        for i in range(4):
            _insert(table, b"k", i)
        assert _delete(table, b"k", 3)  # last entry of the only page
        assert sorted(_probe(table, b"k")) == [0, 1, 2]

    def test_delete_frees_empty_pages(self):
        table = _table(n_buckets=1, page_size=64)
        for i in range(5):  # 2 pages
            _insert(table, b"k", i)
        assert table.n_pages == 2
        for i in range(5):
            _delete(table, b"k", i)
        assert table.n_pages == 0
        assert _probe(table, b"k") == []

    def test_duplicate_entries_supported(self):
        table = _table()
        _insert(table, b"k", 7)
        _insert(table, b"k", 7)
        assert _probe(table, b"k") == [7, 7]
        _delete(table, b"k", 7)
        assert _probe(table, b"k") == [7]

    def test_items_iterates_everything(self):
        table = _table(n_buckets=4)
        for i in range(10):
            _insert(table, str(i).encode(), i)
        assert len(list(table.items())) == 10

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            BucketHashTable(PageManager(IOCostModel()), 0)

    @given(
        st.lists(
            st.tuples(st.sampled_from([b"a", b"b", b"c", b"d"]), st.integers(0, 5)),
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_model(self, operations):
        """Insert/delete sequences behave like a multiset dictionary."""
        table = _table(n_buckets=2, page_size=64)
        model: dict[bytes, list[int]] = {}
        rng = np.random.default_rng(0)
        for key, sid in operations:
            if rng.random() < 0.7:
                _insert(table, key, sid)
                model.setdefault(key, []).append(sid)
            else:
                expected = sid in model.get(key, [])
                assert _delete(table, key, sid) == expected
                if expected:
                    model[key].remove(sid)
        for key in (b"a", b"b", b"c", b"d"):
            assert sorted(_probe(table, key)) == sorted(model.get(key, []))
        assert table.n_entries == sum(len(v) for v in model.values())


def _rebuilt(table, bucket):
    """Bucket ``bucket``'s directory rebuilt from its slots (uncharged
    peeks, chain order): what the maintained directory must equal."""
    image: dict[int, list[int]] = {}
    for page_id in table._chains[bucket]:
        for fp, sid in table.pager.peek(page_id).slots:
            image.setdefault(fp, []).append(sid)
    return image


def _assert_directories_current(table):
    for bucket in range(table.n_buckets):
        assert table._directory[bucket] == _rebuilt(table, bucket), bucket


class TestDirectoryPatches:
    """Every write patches its bucket's fingerprint directory in place,
    so the directory always equals the one rebuilt from the slots."""

    def test_delete_patches_run(self):
        table = _table(n_buckets=2)
        _insert(table, b"k1", 1)
        _insert(table, b"k1", 2)
        bucket = hash_key(b"k1") % 2
        assert _probe(table, b"k1") == [1, 2]
        assert _delete(table, b"k1", 1)
        assert table._directory[bucket] == {hash_key(b"k1"): [2]}
        assert _probe(table, b"k1") == [2]  # no ghost entry
        assert _delete(table, b"k1", 2)
        assert table._directory[bucket] == {}  # an emptied run is dropped

    def test_insert_appends_to_run(self):
        table = _table(n_buckets=2)
        _insert(table, b"k1", 1)
        directory = table._directory[hash_key(b"k1") % 2]
        _insert(table, b"k1", 9)
        assert table._directory[hash_key(b"k1") % 2] is directory
        assert directory[hash_key(b"k1")] == [1, 9]
        assert _probe(table, b"k1") == [1, 9]

    def test_delete_touches_only_its_bucket(self):
        table = _table(n_buckets=64)
        keys = [f"key-{i}".encode() for i in range(32)]
        for i, key in enumerate(keys):
            _insert(table, key, i)
        before = [dict(d) for d in table._directory]
        victim_bucket = hash_key(keys[0]) % 64
        assert _delete(table, keys[0], 0)
        for bucket in range(64):
            if bucket != victim_bucket:
                assert table._directory[bucket] == before[bucket]
        _assert_directories_current(table)

    def test_moved_entry_takes_the_hole_rank(self):
        """Compaction moves the chain's last entry into the hole; its
        sid moves inside its run to the rank the hole gives it."""
        table = _table(n_buckets=1, page_size=64)  # 4 entries per page
        for key, sid in [(b"a", 1), (b"b", 2), (b"a", 3), (b"c", 4), (b"a", 5)]:
            _insert(table, key, sid)
        assert _delete(table, b"b", 2)  # a5 fills slot 1, tail page freed
        assert table.pager.peek(table._chains[0][0]).slots[1] == (hash_key(b"a"), 5)
        assert _probe(table, b"a") == [1, 5, 3]
        _assert_directories_current(table)

    def test_bulk_load_extends_non_empty_buckets(self):
        table = _table(n_buckets=2, page_size=64)
        for i in range(6):
            _insert(table, b"k", i)
        _bulk_load(table, [b"k", b"j", b"k"], [10, 11, 12])
        assert _probe(table, b"k") == [0, 1, 2, 3, 4, 5, 10, 12]
        _assert_directories_current(table)


_HT_COUNTERS = {
    name: metrics.counter(f"hashtable.{name}")
    for name in (
        "probes", "probe_pages", "probe_pages_saved", "tail_reads_skipped",
        "bulk_entries", "bulk_pages",
    )
}


def _counter_moves(op):
    """Run ``op``; its result and the nonzero ``hashtable.*`` moves."""
    before = {name: c.local_value for name, c in _HT_COUNTERS.items()}
    result = op()
    return result, _nonzero(**{
        name: c.local_value - before[name] for name, c in _HT_COUNTERS.items()
    })


def _nonzero(**moves):
    return {name: d for name, d in moves.items() if d}


class _SlotScanTable:
    """Reference model: the table's writes and probes restated as their
    page operations and charges, on a pager of its own, with no
    directory -- probes scan slots.  Each method returns its result and
    the ``hashtable.*`` counter moves the table must make, so the live
    table can be held to both."""

    def __init__(self, n_buckets):
        self.pager = PageManager(IOCostModel(), page_size=64)
        self.n_buckets = n_buckets
        self.slots = self.pager.capacity_for(ENTRY_BYTES)
        self.chains = [[] for _ in range(n_buckets)]
        self.tail = [-1] * n_buckets

    def insert(self, fp, sid):
        bucket = fp % self.n_buckets
        chain, page, skipped = self.chains[bucket], None, 0
        if chain:
            if self.tail[bucket] < 0:
                page = self.pager.read(chain[-1], sequential=False)
                if page.is_full:
                    page = None
            else:
                skipped = 1
                if self.tail[bucket] < self.slots:
                    page = self.pager.peek(chain[-1])
        if page is None:
            page = self.pager.allocate(self.slots)
            chain.append(page.page_id)
        page.append((fp, sid))
        self.pager.write(page.page_id)
        self.tail[bucket] = len(page.slots)
        return None, _nonzero(tail_reads_skipped=skipped)

    def delete(self, fp, sid):
        bucket = fp % self.n_buckets
        chain = self.chains[bucket]
        for rank, page_id in enumerate(chain):
            page = self.pager.read(page_id, sequential=rank > 0)
            if (fp, sid) not in page.slots:
                continue
            index = page.slots.index((fp, sid))
            last = self.pager.read(chain[-1], sequential=True)
            moved = last.slots.pop()
            if not (page is last and index == len(last.slots)):
                page.slots[index] = moved
                self.pager.write(page.page_id)
            if last.slots:
                self.pager.write(last.page_id)
                self.tail[bucket] = len(last.slots)
            else:
                self.pager.free(chain.pop())
                self.tail[bucket] = -1
            return True, {}
        return False, {}

    def bulk_load(self, fps, sids):
        touched = sorted({fp % self.n_buckets for fp in fps})
        tail_reads = 0
        for bucket in touched:
            if self.chains[bucket] and self.tail[bucket] < 0:
                page = self.pager.read(self.chains[bucket][-1], sequential=False)
                self.tail[bucket] = len(page.slots)
                tail_reads += 1
        new_pages = 0
        for fp, sid in zip(fps, sids):
            bucket = fp % self.n_buckets
            chain = self.chains[bucket]
            if chain and self.tail[bucket] < self.slots:
                page = self.pager.peek(chain[-1])
            else:
                page = self.pager.allocate(self.slots)
                chain.append(page.page_id)
                new_pages += 1
            page.append((fp, sid))
            self.tail[bucket] = len(page.slots)
        self.pager.io.write(len(fps))
        report = {
            "entries": len(fps), "new_pages": new_pages,
            "buckets": len(touched), "tail_reads": tail_reads,
        }
        return report, _nonzero(bulk_entries=len(fps), bulk_pages=new_pages)

    def probe(self, fps):
        members: dict[int, list[int]] = {}
        for i, fp in enumerate(fps):
            members.setdefault(fp % self.n_buckets, []).append(i)
        results = [[] for _ in fps]
        pages = saved = 0
        for bucket, rows in members.items():
            chain = self.chains[bucket]
            slots = []
            for rank, page_id in enumerate(chain):
                slots += self.pager.read(page_id, sequential=rank > 0).slots
            pages += len(chain)
            saved += len(chain) * (len(rows) - 1)
            for i in rows:
                results[i] = [sid for fp, sid in slots if fp == fps[i]]
        return results, _nonzero(
            probes=len(fps), probe_pages=pages, probe_pages_saved=saved
        )

    def entries(self):
        return [
            slot for chain in self.chains for page_id in chain
            for slot in self.pager.peek(page_id).slots
        ]


_WRITE_KEYS = [f"key-{i}".encode() for i in range(6)]
_MISSES = [b"miss-0", b"miss-1"]


class DirectoryMachine(RuleBasedStateMachine):
    """Interleaved writes of every kind on a 4-entries-a-page table,
    held after every step to: directories equal to a rebuild from the
    slots (run order included); pages, tail tracking, I/O and counter
    moves equal to the slot-scanning reference's; and the live grouped
    probe equal to the one-table stack's."""

    @initialize(n_buckets=st.integers(1, 4))
    def setup(self, n_buckets):
        self.table = _table(n_buckets=n_buckets, page_size=64)
        self.reference = _SlotScanTable(n_buckets)
        self.next_sid = 100

    def both(self, live, reference):
        got, moves = _counter_moves(live)
        want, reference_moves = reference()
        assert got == want
        assert moves == reference_moves
        assert (
            self.table.pager.io.snapshot().as_dict()
            == self.reference.pager.io.snapshot().as_dict()
        )
        return got

    def _delete(self, fp, sid):
        return self.both(
            lambda: self.table.delete_hashed(fp, sid),
            lambda: self.reference.delete(fp, sid),
        )

    def _probe(self, keys):
        fps = _fps(keys)
        io_before = self.table.pager.io.snapshot()
        live = self.both(
            lambda: self.table.probe_hashed(fps.tolist()),
            lambda: self.reference.probe(fps.tolist()),
        )
        live_io = self.table.pager.io.snapshot() - io_before
        io = IOStats()
        assert _stack_probe(self.table, fps, io) == live
        assert io == live_io

    @rule(key=st.sampled_from(_WRITE_KEYS), sid=st.integers(0, 5))
    def insert(self, key, sid):
        self.both(
            lambda: _insert(self.table, key, sid),
            lambda: self.reference.insert(hash_key(key), sid),
        )

    @rule(data=st.data())
    def insert_duplicate(self, data):
        entries = self.reference.entries()
        if entries:
            fp, sid = data.draw(st.sampled_from(entries))
            self.both(
                lambda: self.table.insert_hashed(fp, sid),
                lambda: self.reference.insert(fp, sid),
            )

    @rule(key=st.sampled_from(_WRITE_KEYS), sid=st.integers(0, 5))
    def delete(self, key, sid):
        self._delete(hash_key(key), sid)

    @rule(data=st.data())
    def delete_chain_last(self, data):
        chains = [c for c in self.reference.chains if c]
        if chains:
            chain = data.draw(st.sampled_from(chains))
            assert self._delete(*self.reference.pager.peek(chain[-1]).slots[-1])

    @rule(data=st.data())
    def delete_freeing_tail(self, data):
        buckets = [
            b for b, c in enumerate(self.reference.chains)
            if c and len(self.reference.pager.peek(c[-1]).slots) == 1
        ]
        if buckets:
            bucket = data.draw(st.sampled_from(buckets))
            chain = self.reference.chains[bucket]
            page_id = data.draw(st.sampled_from(chain))
            entry = data.draw(st.sampled_from(self.reference.pager.peek(page_id).slots))
            tail = chain[-1]
            assert self._delete(*entry)
            assert tail not in self.table._chains[bucket]

    @rule(key=st.sampled_from(_WRITE_KEYS + _MISSES))
    def delete_miss(self, key):
        assert not self._delete(hash_key(key), 999)

    @rule(keys=st.lists(st.sampled_from(_WRITE_KEYS), max_size=8))
    def bulk_load(self, keys):
        sids = list(range(self.next_sid, self.next_sid + len(keys)))
        self.next_sid += len(keys)
        self.both(
            lambda: _bulk_load(self.table, keys, sids),
            lambda: self.reference.bulk_load(_fps(keys).tolist(), sids),
        )

    @rule(keys=st.lists(st.sampled_from(_WRITE_KEYS + _MISSES), max_size=8))
    def probe(self, keys):
        self._probe(keys)

    @invariant()
    def directories_equal_slots(self):
        _assert_directories_current(self.table)
        assert self.table._chains == self.reference.chains
        for chain in self.reference.chains:
            for page_id in chain:
                assert (
                    self.table.pager.peek(page_id).slots
                    == self.reference.pager.peek(page_id).slots
                )
        assert self.table._tail_slots == self.reference.tail
        assert self.table.n_entries == len(self.reference.entries())

    @invariant()
    def live_probe_equals_frozen(self):
        self._probe(_WRITE_KEYS + _MISSES)


TestDirectoryMaintenance = DirectoryMachine.TestCase
TestDirectoryMaintenance.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


def _keyed_workload(n, seed):
    """Random (keys, sids) with plenty of bucket and key repetition."""
    rng = np.random.default_rng(seed)
    keys = [f"key-{int(k)}".encode() for k in rng.integers(0, max(2, n // 3), size=n)]
    return keys, list(range(n))


class TestBulkLoadEquivalence:
    """The bulk path must be indistinguishable from the insert loop:
    same chains (page ids included), same page contents, same
    load_stats, same I/O accounting."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_buckets", [1, 7])
    def test_load_stats_regression(self, seed, n_buckets):
        keys, sids = _keyed_workload(60, seed)
        seq = _table(n_buckets=n_buckets, page_size=64)
        for key, sid in zip(keys, sids):
            _insert(seq, key, sid)
        bulk = _table(n_buckets=n_buckets, page_size=64)
        _bulk_load(bulk, keys, sids)
        assert bulk.load_stats() == seq.load_stats()
        assert bulk._chains == seq._chains
        assert bulk.bucket_occupancies() == seq.bucket_occupancies()
        for chain in seq._chains:
            for pid in chain:
                assert bulk.pager.peek(pid).slots == seq.pager.peek(pid).slots
        assert bulk.pager.io.snapshot().as_dict() == seq.pager.io.snapshot().as_dict()

    def test_probe_equivalence(self):
        keys, sids = _keyed_workload(40, 3)
        seq = _table(n_buckets=4, page_size=64)
        for key, sid in zip(keys, sids):
            _insert(seq, key, sid)
        bulk = _table(n_buckets=4, page_size=64)
        _bulk_load(bulk, keys, sids)
        for key in set(keys):
            assert _probe(bulk, key) == _probe(seq, key)

    def test_fresh_buckets_get_eager_directories(self):
        keys, sids = _keyed_workload(30, 4)
        bulk = _table(n_buckets=4, page_size=64)
        _bulk_load(bulk, keys, sids)
        _assert_directories_current(bulk)

    def test_bulk_load_onto_existing_entries(self):
        keys, sids = _keyed_workload(50, 5)
        seq = _table(n_buckets=2, page_size=64)
        mixed = _table(n_buckets=2, page_size=64)
        for key, sid in zip(keys[:20], sids[:20]):
            _insert(seq, key, sid)
            _insert(mixed, key, sid)
        for key, sid in zip(keys[20:], sids[20:]):
            _insert(seq, key, sid)
        _bulk_load(mixed, keys[20:], sids[20:])
        assert mixed._chains == seq._chains
        assert mixed.load_stats() == seq.load_stats()
        assert mixed.pager.io.snapshot().as_dict() == seq.pager.io.snapshot().as_dict()

    def test_bulk_load_resolves_unknown_tail(self):
        table = _table(n_buckets=1, page_size=64)
        for i in range(5):  # two pages: 4 + 1
            _insert(table, b"k", i)
        assert _delete(table, b"k", 4)  # frees the tail page -> state unknown
        before = table.pager.io.snapshot()
        report = _bulk_load(table, [b"k2"], [99])
        delta = table.pager.io.snapshot() - before
        assert report["tail_reads"] == 1
        assert delta.random_reads == 1  # the one charged tail resolve
        assert _probe(table, b"k2") == [99]

    def test_empty_bulk_load(self):
        table = _table()
        report = _bulk_load(table, [], [])
        assert report["entries"] == 0
        assert table.n_entries == 0
        assert table.pager.io.snapshot().as_dict()["page_writes"] == 0

    def test_length_mismatch_raises(self):
        table = _table()
        with pytest.raises(ValueError):
            table.bulk_load_hashed(_fps([b"a", b"b"]), [1])


class TestTailReadAccounting:
    """insert_hashed() must not re-read a tail page whose fill state it wrote
    itself; only genuinely unknown tails (post-delete) cost a read."""

    def test_consecutive_inserts_charge_no_reads(self):
        table = _table(n_buckets=1, page_size=64)
        skipped = metrics.counter("hashtable.tail_reads_skipped")
        skipped_before = skipped.local_value
        before = table.pager.io.snapshot()
        for i in range(10):  # 3 pages: 4 + 4 + 2
            _insert(table, b"k", i)
        delta = table.pager.io.snapshot() - before
        assert delta.random_reads == 0
        assert delta.sequential_reads == 0
        # One entry write per insert plus one write per allocated page.
        assert delta.page_writes == 10 + 3
        assert table.n_pages == 3
        # Every insert after the first knew the tail from its own write.
        assert skipped.local_value - skipped_before == 9

    def test_delete_freeing_tail_forces_one_reread(self):
        table = _table(n_buckets=1, page_size=64)
        for i in range(5):  # pages of 4 + 1
            _insert(table, b"k", i)
        assert _delete(table, b"k", 4)  # tail page freed, survivor unread
        before = table.pager.io.snapshot()
        _insert(table, b"k", 5)
        delta = table.pager.io.snapshot() - before
        assert delta.random_reads == 1  # the unavoidable tail re-read

    def test_delete_keeping_tail_tracks_state(self):
        table = _table(n_buckets=1, page_size=64)
        for i in range(6):  # pages of 4 + 2
            _insert(table, b"k", i)
        assert _delete(table, b"k", 0)  # tail shrinks to 1, state tracked
        before = table.pager.io.snapshot()
        _insert(table, b"k", 6)
        delta = table.pager.io.snapshot() - before
        assert delta.random_reads == 0
        assert sorted(_probe(table, b"k")) == [1, 2, 3, 4, 5, 6]


_PROBE_COUNTERS = [
    metrics.counter(f"hashtable.{name}")
    for name in ("probes", "probe_pages", "probe_pages_saved")
]

_KEYS = [f"key-{i}".encode() for i in range(12)]
_table_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.sampled_from(_KEYS), st.integers(0, 9)),
        st.tuples(st.just("delete"), st.sampled_from(_KEYS), st.integers(0, 9)),
        st.tuples(
            st.just("bulk"),
            st.lists(st.sampled_from(_KEYS), max_size=12),
            st.integers(10, 90),
        ),
    ),
    max_size=30,
)
# Stored keys, keys never stored (misses), with repeats and the
# empty and one-key batches.
_probe_keys = st.lists(
    st.sampled_from(_KEYS + [b"miss-0", b"miss-1", b"miss-2"]), max_size=20
)


class TestFrozenViewEquivalence:
    """A one-table :class:`TableStack` of a live table is its grouped
    probe over arrays: same sids in the same order, same page charges,
    same counter movements."""

    @given(_table_ops, st.integers(1, 5), _probe_keys)
    @settings(max_examples=80, deadline=None)
    def test_probe_hashed_matches_live(self, operations, n_buckets, probe_keys):
        # 4 entries per page: overflow chains and emptied buckets occur.
        table = _table(n_buckets=n_buckets, page_size=64)
        for op, key, arg in operations:
            if op == "insert":
                _insert(table, key, arg)
            elif op == "delete":
                _delete(table, key, arg)
            else:
                _bulk_load(table, key, list(range(arg, arg + len(key))))
        fps = _fps(probe_keys)

        def moved(probe):
            before = [c.local_value for c in _PROBE_COUNTERS]
            got = probe()
            return got, [
                c.local_value - b for c, b in zip(_PROBE_COUNTERS, before)
            ]

        io_before = table.pager.io.snapshot()
        live, live_moved = moved(lambda: table.probe_hashed(fps.tolist()))
        live_io = table.pager.io.snapshot() - io_before
        io = IOStats()
        frozen, frozen_moved = moved(lambda: _stack_probe(table, fps, io))
        assert frozen == live
        assert io == live_io
        assert frozen_moved == live_moved
