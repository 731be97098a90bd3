"""Unit tests for the live tables' array-backed pages (one table at a
time here; ``tests/test_live_pages.py`` holds many tables to the
slot-scanning reference), the stacked probe kernel and the live probe
(stacked base + write delta + tombstones)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.obs import metrics
from repro.storage.hashtable import LiveTables, TableStack, hash_key
from repro.storage.iomodel import IOCostModel, IOStats
from repro.storage.pager import PageManager
from tests.slot_oracle import (
    SlotScanTables,
    counter_moves,
    slot_probe,
    slot_stack,
    tables_state,
)


def _table(n_buckets=8, page_size=4096):
    """One table's pages: a one-table :class:`LiveTables`."""
    return LiveTables(PageManager(IOCostModel(), page_size=page_size), 1, n_buckets)


# The tables take fingerprints; these byte-key shorthands produce them
# with the scalar ``hash_key``.


def _fps(keys):
    return np.array([hash_key(key) for key in keys], dtype=np.uint64)


def _insert(table, key, sid):
    table.insert(_fps([key]), sid)


def _probe(table, key):
    return slot_probe(table, _fps([key])[None])[0][0]


def _bulk_load(table, keys, sids):
    return table.bulk_load([_fps(keys)], sids)


def _per_row(rows, sids, n_rows):
    """Hits split per row, each row's in hit order."""
    order = np.argsort(rows, kind="stable")
    rows, sids = rows[order], sids[order]
    bounds = np.searchsorted(rows, np.arange(n_rows + 1)).tolist()
    return [sids[a:b].tolist() for a, b in zip(bounds, bounds[1:])]


def _stack_probe(table, fps, io):
    """``table``'s entries stacked into a one-table :class:`TableStack`
    and probed with ``fps`` (charges into ``io``): the per-row sid
    lists."""
    rows, sids = slot_stack(table).probe(0, 1, fps[None], io)
    return _per_row(rows, sids, len(fps))


def _slots(table, bucket):
    """A bucket's entries in chain order, as ``(fingerprint, sid)``."""
    return list(zip(*(a.tolist() for a in table.bucket_entries(0, bucket))))


class TestHashKey:
    def test_deterministic(self):
        assert hash_key(b"abc") == hash_key(b"abc")

    def test_distinct_keys_differ(self):
        assert hash_key(b"abc") != hash_key(b"abd")

    def test_64_bit(self):
        assert 0 <= hash_key(b"x") < 2**64


class TestBucketHashTable:
    """One table's pages (a one-table :class:`LiveTables`)."""

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
        live = LiveTables(PageManager(IOCostModel(), page_size=64), 1, 1)
        fp = np.array([hash_key(b"k")], dtype=np.uint64)
        for i in range(8):  # two pages in the chain
            live.insert(fp, i)
        io = live.pager.io
        before = io.snapshot()
        rows, sids = live.probe(0, 1, fp[:, None])
        delta = io.snapshot() - before
        assert sorted(sids.tolist()) == list(range(8))
        assert delta.random_reads == 1  # head page
        assert delta.sequential_reads == 1  # overflow page

    def test_delete_existing(self):
        table = _table()
        _insert(table, b"a", 1)
        _insert(table, b"a", 2)
        table.delete(1)
        assert _probe(table, b"a") == [2]
        assert table.n_entries == 1

    def test_delete_missing(self):
        """A sid not stored is a ``KeyError`` that reads, writes and
        counts nothing."""
        table = _table()
        _insert(table, b"a", 1)
        table.delete(1)
        before, state = table.pager.io.snapshot(), tables_state(table)

        def refused(sid):
            with pytest.raises(KeyError):
                table.delete(sid)

        for sid in (99, 1, -1):
            assert counter_moves(lambda: refused(sid))[1] == {}
        assert table.pager.io.snapshot() == before
        assert tables_state(table) == state
        assert table.n_entries == 0

    def test_delete_last_entry_of_last_page(self):
        """The swap-remove edge case: hole == popped entry."""
        table = _table(n_buckets=1, page_size=64)
        for i in range(4):
            _insert(table, b"k", i)
        table.delete(3)  # last entry of the only page
        assert sorted(_probe(table, b"k")) == [0, 1, 2]

    def test_delete_frees_empty_pages(self):
        table = _table(n_buckets=1, page_size=64)
        for i in range(5):  # 2 pages
            _insert(table, b"k", i)
        # Two pages in the table's own arrays; none taken from the pager.
        assert table.n_pages == 2 and table.pager.n_pages == 0
        for i in range(5):
            table.delete(i)
        assert table.n_pages == 0
        assert _probe(table, b"k") == []

    def test_stored_sid_refused(self):
        """One set, one identifier: inserting a stored sid raises and
        changes nothing; once deleted, the sid may be stored again."""
        table = _table()
        _insert(table, b"k", 7)
        before = table.pager.io.snapshot()
        state = tables_state(table)
        for key in (b"k", b"other"):
            with pytest.raises(ValueError, match="already stored"):
                _insert(table, key, 7)
        with pytest.raises(ValueError, match="already stored"):
            _bulk_load(table, [b"j", b"k"], [8, 7])
        with pytest.raises(ValueError, match="duplicate sids"):
            _bulk_load(table, [b"j", b"k"], [8, 8])
        with pytest.raises(ValueError, match="non-negative"):
            _insert(table, b"j", -1)
        assert table.pager.io.snapshot() == before
        assert tables_state(table) == state
        assert _probe(table, b"k") == [7]
        table.delete(7)
        _insert(table, b"j", 7)
        assert _probe(table, b"k") == []
        assert _probe(table, b"j") == [7]
        rows, sids = table.probe(0, 1, _fps([b"j", b"k"])[None])
        assert _per_row(rows, sids, 2) == [[7], []]

    def test_items_iterates_everything(self):
        """The buckets' entries, chain by chain, are every stored entry."""
        table = _table(n_buckets=4)
        for i in range(10):
            _insert(table, str(i).encode(), i)
        entries = [entry for b in range(4) for entry in _slots(table, b)]
        assert sorted(entries) == sorted(
            (hash_key(str(i).encode()), i) for i in range(10)
        )

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            _table(n_buckets=0)

    @given(
        st.lists(
            st.tuples(st.sampled_from([b"a", b"b", b"c", b"d"]), st.integers(0, 5)),
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_model(self, operations):
        """Insert/delete sequences behave like a dictionary from sid to
        key: an insert of a stored sid is refused, and so is a delete of
        one not stored."""
        table = _table(n_buckets=2, page_size=64)
        model: dict[int, bytes] = {}
        rng = np.random.default_rng(0)
        for key, sid in operations:
            if rng.random() < 0.7:
                if sid in model:
                    with pytest.raises(ValueError):
                        _insert(table, key, sid)
                else:
                    _insert(table, key, sid)
                    model[sid] = key
            elif sid in model:
                table.delete(sid)
                del model[sid]
            else:
                with pytest.raises(KeyError):
                    table.delete(sid)
        for key in (b"a", b"b", b"c", b"d"):
            assert sorted(_probe(table, key)) == sorted(
                sid for sid, k in model.items() if k == key
            )
        assert table.n_entries == len(model)


def _assert_chain_pages_current(table):
    """The kept chain lengths equal the chains': every page but the tail
    is full, and no page is empty."""
    slots = table.slots_per_page
    assert table.chain_pages.tolist() == [
        -(-len(table.bucket_entries(0, b)[1]) // slots)
        for b in range(int(table.n_buckets[0]))
    ]


class TestDirectoryPatches:
    """Every write patches its bucket's slots and kept chain length in
    place -- the state a probe reads and charges."""

    def test_delete_patches_run(self):
        table = _table(n_buckets=2)
        _insert(table, b"k1", 1)
        _insert(table, b"k1", 2)
        bucket = hash_key(b"k1") % 2
        assert _probe(table, b"k1") == [1, 2]
        table.delete(1)
        assert _slots(table, bucket) == [(hash_key(b"k1"), 2)]
        assert _probe(table, b"k1") == [2]  # no ghost entry
        table.delete(2)
        assert _slots(table, bucket) == []
        assert table.chain_pages[bucket] == 0  # an emptied page is freed

    def test_insert_appends_to_run(self):
        table = _table(n_buckets=2)
        _insert(table, b"k1", 1)
        _insert(table, b"k1", 9)
        bucket = hash_key(b"k1") % 2
        assert _slots(table, bucket) == [(hash_key(b"k1"), 1), (hash_key(b"k1"), 9)]
        assert table.chain_pages[bucket] == 1
        assert _probe(table, b"k1") == [1, 9]

    def test_delete_touches_only_its_bucket(self):
        table = _table(n_buckets=64)
        keys = [f"key-{i}".encode() for i in range(32)]
        for i, key in enumerate(keys):
            _insert(table, key, i)
        before = [_slots(table, bucket) for bucket in range(64)]
        victim_bucket = hash_key(keys[0]) % 64
        table.delete(0)
        for bucket in range(64):
            if bucket != victim_bucket:
                assert _slots(table, bucket) == before[bucket]
        _assert_chain_pages_current(table)

    def test_moved_entry_takes_the_hole_rank(self):
        """Compaction moves the chain's last entry into the hole."""
        table = _table(n_buckets=1, page_size=64)  # 4 entries per page
        for key, sid in [(b"a", 1), (b"b", 2), (b"a", 3), (b"c", 4), (b"a", 5)]:
            _insert(table, key, sid)
        assert table.chain_pages[0] == 2
        table.delete(2)  # a5 fills slot 1, tail page freed
        assert _slots(table, 0)[1] == (hash_key(b"a"), 5)
        assert _probe(table, b"a") == [1, 5, 3]
        _assert_chain_pages_current(table)

    def test_bulk_load_extends_non_empty_buckets(self):
        table = _table(n_buckets=2, page_size=64)
        for i in range(6):
            _insert(table, b"k", i)
        _bulk_load(table, [b"k", b"j", b"k"], [10, 11, 12])
        assert _probe(table, b"k") == [0, 1, 2, 3, 4, 5, 10, 12]
        _assert_chain_pages_current(table)


_WRITE_KEYS = [f"key-{i}".encode() for i in range(6)]
_MISSES = [b"miss-0", b"miss-1"]


class DirectoryMachine(RuleBasedStateMachine):
    """Interleaved writes of every kind on a 4-entries-a-page table,
    held after every step to: pages, tail tracking, kept chain lengths,
    I/O and counter moves equal to the slot-scanning reference's; and
    the stack of its entries probing like scanning them (same sids in
    the same order, same charges and counter moves)."""

    @initialize(n_buckets=st.integers(1, 4))
    def setup(self, n_buckets):
        self.table = _table(n_buckets=n_buckets, page_size=64)
        self.reference = SlotScanTables(
            PageManager(IOCostModel(), page_size=64), 1, n_buckets
        )
        self.next_sid = 100

    def both(self, live, reference):
        got, moves = counter_moves(live)
        want, reference_moves = counter_moves(reference)
        assert got == want
        assert moves == reference_moves
        assert (
            self.table.pager.io.snapshot().as_dict()
            == self.reference.pager.io.snapshot().as_dict()
        )
        return got

    def _stored(self):
        return {
            sid: fp for b in range(int(self.table.n_buckets[0]))
            for fp, sid in _slots(self.reference, b)
        }

    def _delete(self, sid):
        fps = np.array([self._stored()[sid]], dtype=np.uint64)

        def reference():
            assert self.reference.delete(fps, sid)

        self.both(lambda: self.table.delete(sid), reference)

    def _probe(self, keys):
        fps = _fps(keys)
        reference_before = self.reference.pager.io.snapshot()
        (want, want_moves), _ = counter_moves(
            lambda: slot_probe(self.reference, fps[None])
        )
        reference_io = self.reference.pager.io.snapshot() - reference_before
        io = IOStats()
        got, moves = counter_moves(lambda: _stack_probe(self.table, fps, io))
        assert got == want
        assert moves == want_moves
        assert io == reference_io
        # The probe's reads, charged where the reference charged them.
        stats = self.table.pager.io.stats
        stats.random_reads += io.random_reads
        stats.sequential_reads += io.sequential_reads

    @rule(key=st.sampled_from(_WRITE_KEYS), sid=st.integers(0, 5))
    def insert(self, key, sid):
        fps = _fps([key])
        if sid in self._stored():
            self.insert_stored_refused(key, sid)
        else:
            self.both(
                lambda: self.table.insert(fps, sid),
                lambda: self.reference.insert(fps, sid),
            )

    def insert_stored_refused(self, key, sid):
        before = self.table.pager.io.snapshot()
        state = tables_state(self.table)
        with pytest.raises(ValueError, match="already stored"):
            _insert(self.table, key, sid)
        assert self.table.pager.io.snapshot() == before
        assert tables_state(self.table) == state

    @rule(data=st.data(), key=st.sampled_from(_WRITE_KEYS))
    def insert_duplicate(self, data, key):
        """A stored sid is refused, under its own key or another."""
        stored = self._stored()
        if stored:
            self.insert_stored_refused(key, data.draw(st.sampled_from(sorted(stored))))

    @rule(sid=st.integers(0, 5))
    def delete(self, sid):
        if sid in self._stored():
            self._delete(sid)
        else:
            self.delete_unknown(sid)

    @rule(data=st.data())
    def delete_chain_last(self, data):
        chains = [c for c in self.reference.chains[0] if c]
        if chains:
            chain = data.draw(st.sampled_from(chains))
            self._delete(self.reference.pager.peek(chain[-1]).slots[-1][1])

    @rule(data=st.data())
    def delete_freeing_tail(self, data):
        chains = self.reference.chains[0]
        buckets = [
            b for b, c in enumerate(chains)
            if c and len(self.reference.pager.peek(c[-1]).slots) == 1
        ]
        if buckets:
            bucket = data.draw(st.sampled_from(buckets))
            chain = chains[bucket]
            page_id = data.draw(st.sampled_from(chain))
            entry = data.draw(st.sampled_from(self.reference.pager.peek(page_id).slots))
            n_pages = len(chain)
            self._delete(entry[1])
            assert self.table.chain_pages[bucket] == n_pages - 1

    @rule(sid=st.sampled_from([6, 999, -1]))
    def delete_unknown(self, sid):
        """A sid not stored is refused before anything is read,
        written or counted."""
        before = self.table.pager.io.snapshot()
        state = tables_state(self.table)

        def refused():
            with pytest.raises(KeyError):
                self.table.delete(sid)

        assert counter_moves(refused)[1] == {}
        assert self.table.pager.io.snapshot() == before
        assert tables_state(self.table) == state

    @rule(keys=st.lists(st.sampled_from(_WRITE_KEYS), max_size=8))
    def bulk_load(self, keys):
        sids = list(range(self.next_sid, self.next_sid + len(keys)))
        self.next_sid += len(keys)
        self.both(
            lambda: _bulk_load(self.table, keys, sids),
            lambda: self.reference.bulk_load([_fps(keys)], sids),
        )

    @rule(keys=st.lists(st.sampled_from(_WRITE_KEYS + _MISSES), max_size=8))
    def probe(self, keys):
        self._probe(keys)

    @invariant()
    def pages_equal_reference(self):
        _assert_chain_pages_current(self.table)
        assert tables_state(self.table) == tables_state(self.reference)
        assert self.table.n_entries == self.reference.n_entries
        assert self.table.n_pages == self.reference.pager.n_pages

    @invariant()
    def stack_probe_equals_slot_scan(self):
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
    table statistics, same I/O accounting."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_buckets", [1, 7])
    def test_load_stats_regression(self, seed, n_buckets):
        keys, sids = _keyed_workload(60, seed)
        seq = _table(n_buckets=n_buckets, page_size=64)
        for key, sid in zip(keys, sids):
            _insert(seq, key, sid)
        bulk = _table(n_buckets=n_buckets, page_size=64)
        _bulk_load(bulk, keys, sids)
        assert bulk.table_stats() == seq.table_stats()
        assert tables_state(bulk) == tables_state(seq)
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
        """A bulk load into fresh buckets keeps their chain lengths, and
        the stack of its entries probes like scanning them."""
        keys, sids = _keyed_workload(30, 4)
        bulk = _table(n_buckets=4, page_size=64)
        _bulk_load(bulk, keys, sids)
        _assert_chain_pages_current(bulk)
        fps = _fps(sorted(set(keys)) + _MISSES)
        want, _ = slot_probe(bulk, fps[None])
        assert _stack_probe(bulk, fps, IOStats()) == want

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
        assert tables_state(mixed) == tables_state(seq)
        assert mixed.table_stats() == seq.table_stats()
        assert mixed.pager.io.snapshot().as_dict() == seq.pager.io.snapshot().as_dict()

    def test_bulk_load_resolves_unknown_tail(self):
        table = _table(n_buckets=1, page_size=64)
        for i in range(5):  # two pages: 4 + 1
            _insert(table, b"k", i)
        table.delete(4)  # frees the tail page -> state unknown
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
            table.bulk_load([_fps([b"a", b"b"])], [1])


class TestTailReadAccounting:
    """An insert must not re-read a tail page whose fill state it wrote
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
        table.delete(4)  # tail page freed, survivor unread
        before = table.pager.io.snapshot()
        _insert(table, b"k", 5)
        delta = table.pager.io.snapshot() - before
        assert delta.random_reads == 1  # the unavoidable tail re-read

    def test_delete_keeping_tail_tracks_state(self):
        table = _table(n_buckets=1, page_size=64)
        for i in range(6):  # pages of 4 + 2
            _insert(table, b"k", i)
        table.delete(0)  # tail shrinks to 1, state tracked
        before = table.pager.io.snapshot()
        _insert(table, b"k", 6)
        delta = table.pager.io.snapshot() - before
        assert delta.random_reads == 0
        assert sorted(_probe(table, b"k")) == [1, 2, 3, 4, 5, 6]


_KEYS = [f"key-{i}".encode() for i in range(12)]
_MISS_KEYS = [b"miss-0", b"miss-1", b"miss-2"]
_N_TABLES = 3
# One set's key in each of the three tables.
_set_keys = st.lists(st.sampled_from(_KEYS), min_size=_N_TABLES, max_size=_N_TABLES)
_live_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _set_keys),
        # Which stored sid to delete (0: a sid never stored).
        st.tuples(st.just("delete"), st.integers(0, 50)),
        st.tuples(st.just("bulk"), st.lists(_set_keys, max_size=8)),
        st.tuples(st.just("compact"), st.none()),
    ),
    max_size=40,
)
# Stored keys, keys never stored (misses), with repeats and the
# empty and one-row batches.
_probe_rows = st.lists(
    st.lists(
        st.sampled_from(_KEYS + _MISS_KEYS), min_size=_N_TABLES,
        max_size=_N_TABLES,
    ),
    max_size=12,
)


def _key_fps(keys_per_row):
    """``(tables, rows)`` fingerprints of rows of per-table keys."""
    fps = np.array(
        [[hash_key(key) for key in row] for row in keys_per_row],
        dtype=np.uint64,
    ).reshape(len(keys_per_row), _N_TABLES)
    return np.ascontiguousarray(fps.T)


def _replay(live, operations):
    """Apply ``operations`` to ``live``; returns the stored sids."""
    stored: dict[int, np.ndarray] = {}
    next_sid = 0
    for op, arg in operations:
        if op == "insert":
            stored[next_sid] = _key_fps([arg])[:, 0]
            live.insert(stored[next_sid], next_sid)
            next_sid += 1
        elif op == "delete":
            if arg and stored:
                sid = sorted(stored)[arg % len(stored)]
                stored.pop(sid)
                live.delete(sid)
            else:
                with pytest.raises(KeyError):
                    live.delete(10**6)
        elif op == "bulk":
            sids = list(range(next_sid, next_sid + len(arg)))
            next_sid += len(arg)
            block = _key_fps(arg)
            live.bulk_load(block, sids)
            stored.update(zip(sids, block.T))
        else:
            live.compact()
    return stored


class TestFrozenViewEquivalence:
    """A live filter's probe -- its stacked base plus its write delta,
    minus the tombstones -- equals the from-slots oracle over its pages
    after any interleaving of inserts, deletes, bulk loads and
    compactions: the same sids per row, the same page charges, the same
    counter moves.  Its frozen stack probes alike."""

    @given(_live_ops, st.integers(1, 5), _probe_rows)
    @settings(max_examples=80, deadline=None)
    def test_probe_hashed_matches_live(self, operations, n_buckets, probe_rows):
        def tables():
            # 4 entries per page: overflow chains and emptied buckets.
            pager = PageManager(IOCostModel(), page_size=64)
            return LiveTables(pager, _N_TABLES, n_buckets)

        live, twin = tables(), tables()
        stored = _replay(live, operations)
        _replay(twin, operations)
        fps = _key_fps(probe_rows)
        before = live.pager.io.snapshot()
        (rows, sids), moves = counter_moves(
            lambda: live.probe(0, _N_TABLES, fps)
        )
        live_io = live.pager.io.snapshot() - before
        before = twin.pager.io.snapshot()
        want, want_moves = slot_probe(twin, fps)
        assert twin.pager.io.snapshot() - before == live_io
        assert moves == want_moves
        got = _per_row(rows, sids, len(probe_rows))
        assert [sorted(row) for row in got] == [sorted(row) for row in want]
        for row in want:
            assert set(row) <= set(stored)
        stack = live.freeze()
        io = IOStats()
        frozen = _per_row(*stack.probe(0, _N_TABLES, fps, io), len(probe_rows))
        assert [sorted(row) for row in frozen] == [sorted(row) for row in want]
        assert io == live_io
        # Compacted runs are sid-ascending, the layout of a bulk build.
        for a, b in zip(stack.run_indptr[:-1], stack.run_indptr[1:]):
            run = stack.run_sids[a:b]
            assert np.all(run[1:] > run[:-1])
        assert stack.n_entries == _N_TABLES * len(stored)


class TestLiveTables:
    def _live(self, n_buckets=4):
        return LiveTables(PageManager(IOCostModel(), page_size=64), 2, n_buckets)

    def test_bulk_base_equals_compacted_inserts(self):
        """A bulk load into empty tables builds the base a compaction of
        the same sets inserted one by one builds."""
        rng = np.random.default_rng(0)
        block = rng.integers(0, 6, size=(2, 40)).astype(np.uint64)
        sids = list(range(40))
        bulk, one_by_one = self._live(), self._live()
        bulk.bulk_load(block, sids)
        for sid in sids:
            one_by_one.insert(block[:, sid], sid)
        one_by_one.compact()
        for name in ("run_offsets", "run_fps", "run_indptr", "run_sids"):
            assert np.array_equal(
                getattr(bulk.base, name), getattr(one_by_one.base, name)
            ), name
        assert np.array_equal(bulk.chain_pages, one_by_one.chain_pages)

    def test_compaction_starts_past_its_share(self):
        from repro.storage.hashtable import COMPACT_SHARE

        live = self._live()
        live.bulk_load(np.arange(80, dtype=np.uint64).reshape(2, 40), range(40))
        base = live.base
        writes = int(COMPACT_SHARE * 40)
        for sid in range(writes):
            live.delete(sid)
        assert live.base is base  # not yet past the share
        live.delete(writes)
        assert live.base is not base
        assert live.base.n_entries == 2 * (40 - writes - 1)

    def test_freeze_shares_the_base(self):
        live = self._live()
        live.bulk_load(np.arange(20, dtype=np.uint64).reshape(2, 10), range(10))
        live.insert(np.array([3, 13], dtype=np.uint64), 10)
        stack = live.freeze()
        assert stack.run_sids is live.base.run_sids  # compacted, not copied
        assert stack.chain_pages is not live.chain_pages
        assert np.array_equal(stack.chain_pages, live.chain_pages)
        live.insert(np.array([4, 14], dtype=np.uint64), 11)
        assert stack.n_entries == 22  # later writes cannot reach it

    def test_load_sorts_runs_written_in_slot_order(self):
        """A stored stack whose runs are not sid-ascending loads with
        each run sorted; its pages take the entries in sid order."""
        fps = np.array([5, 5, 5, 9], dtype=np.uint64)
        stack = TableStack(
            [4], np.array([1, 1, 0, 0]), [0, 2], np.array([5, 9], dtype=np.uint64),
            np.array([0, 3, 4]), np.array([2, 0, 1, 3]),
        )
        live = LiveTables(PageManager(IOCostModel(), page_size=64), 1, 4)
        live.load(stack, np.arange(4))
        assert live.base.run_sids.tolist() == [0, 1, 2, 3]
        reference = _table(n_buckets=4, page_size=64)
        reference.bulk_load([fps[[1, 2, 0, 3]]], [0, 1, 2, 3])
        assert tables_state(live) == tables_state(reference)

    def test_load_refuses_a_table_without_one_entry_a_set(self):
        """Every table must hold one entry of each stored set: a table
        with a set twice, a foreign sid or a sid of 2**40 is a
        ``ValueError`` before that table's sids index anything."""
        stored = self._live()
        stored.bulk_load(np.arange(8, dtype=np.uint64).reshape(2, 4), range(4))
        stack = stored.freeze()
        for planted in (0, 9, 2**40):
            run_sids = stack.run_sids.copy()
            run_sids[4 + 1] = planted  # table 1's entry of sid 1
            bad = TableStack(stack.n_buckets, stack.chain_pages, stack.run_offsets,
                             stack.run_fps, stack.run_indptr, run_sids)
            with pytest.raises(ValueError, match="table 1 does not hold"):
                self._live().load(bad, np.arange(4))

    def test_load_of_empty_tables(self):
        """A stored filter with no entries (an empty index's) loads, and
        its tables then take writes."""
        live = self._live()
        live.load(self._live().freeze(), np.zeros(0, dtype=np.int64))
        assert live.n_entries == 0 and live.n_pages == 0
        live.insert(np.array([3, 13], dtype=np.uint64), 0)
        rows, sids = live.probe(0, 2, np.array([[3], [13]], dtype=np.uint64))
        assert sids.tolist() == [0, 0]

    def test_slot_rows_are_reused(self):
        """The slot index grows with the sets stored, not with the sids
        ever used: a deleted set's row serves the next insert."""
        live = self._live()

        def fps(sid):
            return np.array([sid % 7, 7 + sid % 5], dtype=np.uint64)

        for sid in range(8):
            live.insert(fps(sid), sid)
        rows = len(live._slot)
        for sid in range(8, 400):
            live.delete(sid - 8)
            live.insert(fps(sid), sid)
        assert len(live._slot) == rows < 16
        assert live.n_entries == 8
        hits = live.probe(0, 2, np.stack([fps(sid) for sid in range(392, 400)], axis=1))[1]
        assert sorted(set(hits.tolist())) == list(range(392, 400))

    def test_delta_delete_is_a_tombstone(self):
        """Deleting a set still in the delta tombstones it like a base
        set: probes drop it at once, the merge drops its entries."""
        live = self._live()
        live.bulk_load(np.arange(40, dtype=np.uint64).reshape(2, 20), range(20))
        fps = np.array([3, 23], dtype=np.uint64)
        live.insert(fps, 20)
        live.insert(fps, 21)
        live.delete(20)
        rows, sids = live.probe(0, 2, fps[:, None])
        assert sorted(sids.tolist()) == [3, 3, 21, 21]
        live.compact()
        assert 20 not in live.base.run_sids.tolist()
        assert live.base.n_entries == 2 * 21
