"""Unit tests for the paged bucket hash table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics
from repro.storage.hashtable import (
    BucketHashTable,
    UnresolvedTailError,
    hash_key,
    hash_keys,
)
from repro.storage.iomodel import IOCostModel, IOStats
from repro.storage.pager import PageManager


def _table(n_buckets=8, page_size=4096):
    return BucketHashTable(PageManager(IOCostModel(), page_size=page_size), n_buckets)


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
        table.insert(b"k1", 10)
        table.insert(b"k1", 11)
        table.insert(b"k2", 20)
        assert sorted(table.probe(b"k1")) == [10, 11]
        assert table.probe(b"k2") == [20]
        assert table.probe(b"nope") == []
        assert table.n_entries == 3

    def test_no_bucket_cross_talk(self):
        """Keys sharing a bucket must not leak into each other's probes."""
        table = _table(n_buckets=1)
        for i in range(20):
            table.insert(f"key-{i}".encode(), i)
        for i in range(20):
            assert table.probe(f"key-{i}".encode()) == [i]

    def test_overflow_chains(self):
        table = _table(n_buckets=1, page_size=64)  # 4 entries per page
        for i in range(20):
            table.insert(b"same", i)
        assert table.n_pages == 5
        assert sorted(table.probe(b"same")) == list(range(20))

    def test_probe_io_chain_accounting(self):
        table = _table(n_buckets=1, page_size=64)
        for i in range(8):  # two pages in the chain
            table.insert(b"k", i)
        io = table.pager.io
        before = io.snapshot()
        table.probe(b"k")
        delta = io.snapshot() - before
        assert delta.random_reads == 1  # head page
        assert delta.sequential_reads == 1  # overflow page

    def test_delete_existing(self):
        table = _table()
        table.insert(b"a", 1)
        table.insert(b"a", 2)
        assert table.delete(b"a", 1)
        assert table.probe(b"a") == [2]
        assert table.n_entries == 1

    def test_delete_missing(self):
        table = _table()
        table.insert(b"a", 1)
        assert not table.delete(b"a", 99)
        assert not table.delete(b"zzz", 1)
        assert table.n_entries == 1

    def test_delete_last_entry_of_last_page(self):
        """The swap-remove edge case: hole == popped entry."""
        table = _table(n_buckets=1, page_size=64)
        for i in range(4):
            table.insert(b"k", i)
        assert table.delete(b"k", 3)  # last entry of the only page
        assert sorted(table.probe(b"k")) == [0, 1, 2]

    def test_delete_frees_empty_pages(self):
        table = _table(n_buckets=1, page_size=64)
        for i in range(5):  # 2 pages
            table.insert(b"k", i)
        assert table.n_pages == 2
        for i in range(5):
            table.delete(b"k", i)
        assert table.n_pages == 0
        assert table.probe(b"k") == []

    def test_duplicate_entries_supported(self):
        table = _table()
        table.insert(b"k", 7)
        table.insert(b"k", 7)
        assert table.probe(b"k") == [7, 7]
        table.delete(b"k", 7)
        assert table.probe(b"k") == [7]

    def test_items_iterates_everything(self):
        table = _table(n_buckets=4)
        for i in range(10):
            table.insert(str(i).encode(), i)
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
                table.insert(key, sid)
                model.setdefault(key, []).append(sid)
            else:
                expected = sid in model.get(key, [])
                assert table.delete(key, sid) == expected
                if expected:
                    model[key].remove(sid)
        for key in (b"a", b"b", b"c", b"d"):
            assert sorted(table.probe(key)) == sorted(model.get(key, []))
        assert table.n_entries == sum(len(v) for v in model.values())


class TestDirectoryInvalidation:
    """The per-bucket fingerprint directory is a memo over page chains;
    any mutation of a bucket must drop its memo or probes serve stale
    (or ghost) entries."""

    def test_delete_invalidates_bucket_directory(self):
        table = _table(n_buckets=2)
        table.insert(b"k1", 1)
        table.insert(b"k1", 2)
        bucket, _ = table._bucket_of(b"k1")
        assert sorted(table.probe(b"k1")) == [1, 2]  # memo built
        assert table._directory[bucket] is not None
        assert table.delete(b"k1", 1)
        assert table._directory[bucket] is None  # memo dropped
        assert table.probe(b"k1") == [2]  # no ghost entry

    def test_insert_invalidates_bucket_directory(self):
        table = _table(n_buckets=2)
        table.insert(b"k1", 1)
        table.probe(b"k1")
        bucket, _ = table._bucket_of(b"k1")
        assert table._directory[bucket] is not None
        table.insert(b"k1", 9)
        assert table._directory[bucket] is None
        assert sorted(table.probe(b"k1")) == [1, 9]

    def test_delete_only_invalidates_its_own_bucket(self):
        table = _table(n_buckets=64)
        keys = [f"key-{i}".encode() for i in range(32)]
        for i, key in enumerate(keys):
            table.insert(key, i)
        for key in keys:
            table.probe(key)  # warm every touched bucket's memo
        victim = keys[0]
        victim_bucket, _ = table._bucket_of(victim)
        warmed = {
            b for b in range(64)
            if table._directory[b] is not None and b != victim_bucket
        }
        assert warmed  # 32 keys over 64 buckets: others got warmed
        assert table.delete(victim, 0)
        assert table._directory[victim_bucket] is None
        for b in warmed:
            assert table._directory[b] is not None


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
            seq.insert(key, sid)
        bulk = _table(n_buckets=n_buckets, page_size=64)
        bulk.bulk_load(keys, sids)
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
            seq.insert(key, sid)
        bulk = _table(n_buckets=4, page_size=64)
        bulk.bulk_load(keys, sids)
        for key in set(keys):
            assert bulk.probe(key) == seq.probe(key)

    def test_fresh_buckets_get_eager_directories(self):
        keys, sids = _keyed_workload(30, 4)
        bulk = _table(n_buckets=4, page_size=64)
        bulk.bulk_load(keys, sids)
        for bucket, chain in enumerate(bulk._chains):
            if chain:
                assert bulk._directory[bucket] is not None

    def test_bulk_load_onto_existing_entries(self):
        keys, sids = _keyed_workload(50, 5)
        seq = _table(n_buckets=2, page_size=64)
        mixed = _table(n_buckets=2, page_size=64)
        for key, sid in zip(keys[:20], sids[:20]):
            seq.insert(key, sid)
            mixed.insert(key, sid)
        for key, sid in zip(keys[20:], sids[20:]):
            seq.insert(key, sid)
        mixed.bulk_load(keys[20:], sids[20:])
        assert mixed._chains == seq._chains
        assert mixed.load_stats() == seq.load_stats()
        assert mixed.pager.io.snapshot().as_dict() == seq.pager.io.snapshot().as_dict()

    def test_unresolved_tail_raises_then_resolves(self):
        table = _table(n_buckets=1, page_size=64)
        for i in range(5):  # two pages: 4 + 1
            table.insert(b"k", i)
        assert table.delete(b"k", 4)  # frees the tail page -> state unknown
        fps = hash_keys([b"k2"])
        with pytest.raises(UnresolvedTailError):
            table.plan_bulk_load(fps, [99])
        before = table.pager.io.snapshot()
        report = table.bulk_load([b"k2"], [99])
        delta = table.pager.io.snapshot() - before
        assert report["tail_reads"] == 1
        assert delta.random_reads == 1  # the one charged tail resolve
        assert table.probe(b"k2") == [99]

    def test_empty_bulk_load(self):
        table = _table()
        report = table.bulk_load([], [])
        assert report["entries"] == 0
        assert table.n_entries == 0
        assert table.pager.io.snapshot().as_dict()["page_writes"] == 0

    def test_length_mismatch_raises(self):
        table = _table()
        with pytest.raises(ValueError):
            table.plan_bulk_load(hash_keys([b"a", b"b"]), [1])


class TestTailReadAccounting:
    """insert() must not re-read a tail page whose fill state it wrote
    itself; only genuinely unknown tails (post-delete) cost a read."""

    def test_consecutive_inserts_charge_no_reads(self):
        table = _table(n_buckets=1, page_size=64)
        skipped = metrics.counter("hashtable.tail_reads_skipped")
        skipped_before = skipped.local_value
        before = table.pager.io.snapshot()
        for i in range(10):  # 3 pages: 4 + 4 + 2
            table.insert(b"k", i)
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
            table.insert(b"k", i)
        assert table.delete(b"k", 4)  # tail page freed, survivor unread
        before = table.pager.io.snapshot()
        table.insert(b"k", 5)
        delta = table.pager.io.snapshot() - before
        assert delta.random_reads == 1  # the unavoidable tail re-read

    def test_delete_keeping_tail_tracks_state(self):
        table = _table(n_buckets=1, page_size=64)
        for i in range(6):  # pages of 4 + 2
            table.insert(b"k", i)
        assert table.delete(b"k", 0)  # tail shrinks to 1, state tracked
        before = table.pager.io.snapshot()
        table.insert(b"k", 6)
        delta = table.pager.io.snapshot() - before
        assert delta.random_reads == 0
        assert sorted(table.probe(b"k")) == [1, 2, 3, 4, 5, 6]


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
    """``table.freeze()`` is the live grouped probe over arrays: same
    sids in the same order, same page charges, same counter movements."""

    @given(_table_ops, st.integers(1, 5), _probe_keys)
    @settings(max_examples=80, deadline=None)
    def test_probe_hashed_matches_live(self, operations, n_buckets, probe_keys):
        # 4 entries per page: overflow chains and emptied buckets occur.
        table = _table(n_buckets=n_buckets, page_size=64)
        for op, key, arg in operations:
            if op == "insert":
                table.insert(key, arg)
            elif op == "delete":
                table.delete(key, arg)
            else:
                table.bulk_load(key, list(range(arg, arg + len(key))))
        view = table.freeze()
        fps = hash_keys(probe_keys)

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
        frozen, frozen_moved = moved(lambda: view.probe_hashed(fps, io))
        assert frozen == live
        assert io == live_io
        assert frozen_moved == live_moved
