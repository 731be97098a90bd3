"""A live filter's array-backed pages against the slot-scanning model.

:class:`~repro.storage.hashtable.LiveTables` performs each insert and
delete as one array pass over its ``l`` tables and bulk-loads a table at
a time.  This machine keeps one next to a
:class:`~tests.slot_oracle.SlotScanTables` (``l`` tables of tuple pages
written one table after another, a delete finding its hole with a
``list.index`` scan) through the same interleaving of inserts, refused
inserts of stored sids, deletes (of any stored set, chain-last entries,
tail-freeing ones; refused deletes of unknown sids), bulk loads,
compactions and probes.  The live tables delete by sid alone; the
reference is handed the fingerprints the machine holds for each sid.
After every step the two must agree on every bucket's entries in chain
order, the tail states, the chain lengths, ``IOStats`` and the
``hashtable.*`` counter moves, and the live tables' pages must hold
exactly the entries their stacks probe.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.storage.hashtable import LiveTables
from repro.storage.iomodel import IOCostModel
from repro.storage.pager import PageManager
from tests.slot_oracle import (
    SlotScanTables,
    assert_pages_hold_the_stacks,
    counter_moves,
    slot_probe,
    tables_state,
)

_N_TABLES = 4
#: Fingerprints drawn from a few values, so buckets share keys and
#: chains of 4-entry pages grow, overflow and empty.
_FPS = st.lists(
    st.integers(0, 11), min_size=_N_TABLES, max_size=_N_TABLES
).map(lambda values: np.array(values, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15))


def _io(tables):
    return tables.pager.io.snapshot().as_dict()


class LivePagesMachine(RuleBasedStateMachine):
    @initialize(n_buckets=st.integers(1, 3))
    def setup(self, n_buckets):
        def pager():
            return PageManager(IOCostModel(), page_size=64)

        self.live = LiveTables(pager(), _N_TABLES, n_buckets)
        self.reference = SlotScanTables(pager(), _N_TABLES, n_buckets)
        #: Stored sids and their fingerprints.
        self.stored: dict[int, np.ndarray] = {}
        self.next_sid = 0

    def both(self, live, reference):
        got, moved = counter_moves(live)
        want, want_moved = counter_moves(reference)
        assert got == want
        assert moved == want_moved
        return got

    def _delete(self, sid):
        fps = self.stored.pop(sid)

        def reference():
            assert self.reference.delete(fps, sid)

        self.both(lambda: self.live.delete(sid), reference)

    @rule(fps=_FPS)
    def insert(self, fps):
        sid, self.next_sid = self.next_sid, self.next_sid + 1
        self.both(
            lambda: self.live.insert(fps, sid),
            lambda: self.reference.insert(fps, sid),
        )
        self.stored[sid] = fps

    @rule(data=st.data(), fps=_FPS)
    def insert_stored(self, data, fps):
        """A stored sid is refused, with its own fingerprints or others,
        before anything is read, written or counted."""
        if self.stored:
            sid = data.draw(st.sampled_from(sorted(self.stored)))
            state = tables_state(self.live), _io(self.live)

            def refused():
                with pytest.raises(ValueError, match="already stored"):
                    self.live.insert(fps, sid)

            assert counter_moves(refused)[1] == {}
            assert (tables_state(self.live), _io(self.live)) == state

    @rule(data=st.data())
    def delete(self, data):
        if self.stored:
            sid = data.draw(st.sampled_from(sorted(self.stored)))
            self._delete(sid)

    @rule(data=st.data())
    def delete_chain_last(self, data):
        """Delete the set whose entry ends some chain."""
        lasts = {
            int(self.reference.bucket_entries(t, b)[1][-1])
            for t in range(_N_TABLES)
            for b in range(int(self.reference.n_buckets[t]))
            if self.reference.chain(t, b)
        }
        if lasts:
            sid = data.draw(st.sampled_from(sorted(lasts)))
            self._delete(sid)

    @rule(data=st.data())
    def delete_freeing_tail(self, data):
        """Delete a set in a bucket whose tail page holds one entry, so
        the tail page is freed."""
        sids = set()
        for t in range(_N_TABLES):
            for b in range(int(self.reference.n_buckets[t])):
                chain = self.reference.chain(t, b)
                if chain and len(self.reference.pager.peek(chain[-1])) == 1:
                    sids.update(self.reference.bucket_entries(t, b)[1].tolist())
        if sids:
            sid = data.draw(st.sampled_from(sorted(sids)))
            self._delete(sid)

    @rule(data=st.data())
    def delete_unknown(self, data):
        """A sid never stored, or deleted since, is refused before
        anything is read, written or counted."""
        sid = data.draw(st.sampled_from(
            [self.next_sid, self.next_sid + 1000, -1]
            + sorted(set(range(self.next_sid)) - set(self.stored))
        ))
        state = tables_state(self.live), _io(self.live)

        def refused():
            with pytest.raises(KeyError):
                self.live.delete(sid)

        assert counter_moves(refused)[1] == {}
        assert (tables_state(self.live), _io(self.live)) == state

    @rule(block=st.lists(_FPS, max_size=6))
    def bulk_load(self, block):
        sids = list(range(self.next_sid, self.next_sid + len(block)))
        self.next_sid += len(block)
        columns = np.array(block, dtype=np.uint64).reshape(len(block), _N_TABLES).T
        self.both(
            lambda: self.live.bulk_load(columns, sids),
            lambda: self.reference.bulk_load(columns, sids),
        )
        self.stored.update(zip(sids, columns.T))

    @rule()
    def compact(self):
        self.live.compact()

    @rule(rows=st.lists(_FPS, max_size=6), start=st.integers(0, _N_TABLES - 1))
    def probe(self, rows, start):
        fps = np.array(rows, dtype=np.uint64).reshape(len(rows), _N_TABLES).T[start:]
        stop = _N_TABLES
        (hits, sids), moved = counter_moves(
            lambda: self.live.probe(start, stop, np.ascontiguousarray(fps))
        )
        (want, want_moved), _ = counter_moves(
            lambda: slot_probe(self.reference, fps, start)
        )
        assert moved == want_moved
        got = [sorted(sids[hits == i].tolist()) for i in range(len(rows))]
        assert got == [sorted(row) for row in want]

    @invariant()
    def pages_equal_the_reference(self):
        assert tables_state(self.live) == tables_state(self.reference)
        assert _io(self.live) == _io(self.reference)
        assert self.live.table_stats() == self.reference.table_stats()
        assert self.live.n_entries == len(self.stored)

    @invariant()
    def pages_hold_the_stacks(self):
        assert_pages_hold_the_stacks(self.live)


_SETTINGS = settings(max_examples=40, stateful_step_count=40, deadline=None)


class TestLivePages(LivePagesMachine.TestCase):
    settings = _SETTINGS
