"""The churned live index against its from-slots oracle.

Every live filter probes a stacked base plus a write delta, minus the
tombstones of sets deleted from the base
(:class:`~repro.storage.hashtable.LiveTables`).  This machine keeps two
indexes through the same interleaving of inserts, deletes, batch
queries, compactions (on the write path past their share, and forced),
``freeze`` / ``thaw`` and ``save`` / ``load``: the index under test, and
a twin whose filters answer every probe from their pages' slots
(:func:`tests.slot_oracle.oracle_probe_tables`).  After every step the
two must agree on each filter's candidate CSR, hit total, ``IOStats``
and ``hashtable.*`` / ``sfi.*`` / ``dfi.*`` counter moves, and on every
batch's answers; every filter's pages must hold exactly the entries its
stacks probe.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.index import SetSimilarityIndex
from repro.exec import ParallelExecutor
from repro.hamming.bitvector import pack_bits
from repro.obs import metrics
from repro.storage.iomodel import IOStats
from tests.slot_oracle import assert_pages_hold_the_stacks, oracle_probe_tables
from tests.test_index import build_planned_index

_COUNTERS = {
    name: metrics.counter(name)
    for name in (
        "hashtable.probes", "hashtable.probe_pages", "hashtable.probe_pages_saved",
        "hashtable.tail_reads_skipped", "hashtable.bulk_entries",
        "hashtable.bulk_pages", "sfi.probes", "sfi.candidates",
        "sfi.duplicate_candidates", "sfi.batch_probes", "dfi.probes",
        "dfi.candidates", "dfi.batch_probes",
    )
}

element_sets = st.frozensets(st.integers(0, 90), min_size=1, max_size=14)


def _moves(op):
    """Run ``op``: its result and the counter moves it made."""
    before = {name: c.local_value for name, c in _COUNTERS.items()}
    result = op()
    return result, {
        name: c.local_value - before[name] for name, c in _COUNTERS.items()
    }


def _with_oracle(index):
    """``index`` with every filter answering probes from its slots."""
    for fi in index._all_filters():
        fi.probe_tables = oracle_probe_tables(fi)
    return index


def _filters(index):
    return [fi for _, fi in sorted(index._sfis.items())] + [
        fi for _, fi in sorted(index._dfis.items())
    ]


def _collection():
    rng = np.random.default_rng(5)
    base = [frozenset(rng.choice(90, size=10, replace=False).tolist()) for _ in range(6)]
    return [
        frozenset(list(b)[: 6 + i % 4]) | {100 + i} for i in range(24)
        for b in [base[i % 6]]
    ]


class ChurnOracleMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        sets = _collection()
        self.live = build_planned_index(sets)
        self.twin = _with_oracle(build_planned_index(sets))
        self.model = dict(enumerate(sets))

    def _same_pagers(self):
        a, b = self.live.pager, self.twin.pager
        assert a.io.snapshot().as_dict() == b.io.snapshot().as_dict()

    @rule(elements=element_sets)
    def insert(self, elements):
        sid, moved = _moves(lambda: self.live.insert(elements))
        twin_sid, twin_moved = _moves(lambda: self.twin.insert(elements))
        assert sid == twin_sid and sid not in self.model
        assert moved == twin_moved
        self.model[sid] = elements
        self._same_pagers()

    @rule(data=st.data())
    def delete(self, data):
        if not self.model:
            return
        sid = data.draw(st.sampled_from(sorted(self.model)))
        self.live.delete(sid)
        self.twin.delete(sid)
        del self.model[sid]
        self._same_pagers()

    @rule(data=st.data())
    def query_batch(self, data):
        sids = sorted(self.model)
        queries = [
            self.model[sid] for sid in data.draw(
                st.lists(st.sampled_from(sids), max_size=5) if sids else st.just([])
            )
        ] + data.draw(st.lists(element_sets, max_size=3))
        low, high = sorted(data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)
        ))
        got, moved = _moves(lambda: self.live.query_batch(queries, low, high))
        want, want_moved = _moves(lambda: self.twin.query_batch(queries, low, high))
        assert [r.answers for r in got] == [r.answers for r in want]
        for a, b in zip(got.candidate_csr, want.candidate_csr):
            assert np.array_equal(a, b)
        assert got.io == want.io
        assert got.pages_saved == want.pages_saved
        assert moved == want_moved
        self._same_pagers()

    @rule()
    def compact(self):
        for fi in self.live._all_filters():
            fi._live.compact()

    @rule(data=st.data())
    def freeze_thaw(self, data):
        queries = [self.model[sid] for sid in sorted(self.model)[:4]] + [
            data.draw(element_sets)
        ]
        snapshot = self.live.freeze()
        with ParallelExecutor(snapshot, workers=1) as executor:
            got = executor.query_batch(queries, 0.0, 1.0)
        want = self.twin.query_batch(queries, 0.0, 1.0)
        assert [r.answers for r in got] == [r.answers for r in want]
        for a, b in zip(got.candidate_csr, want.candidate_csr):
            assert np.array_equal(a, b)
        assert got.io == want.io
        self.live.thaw()

    @rule()
    def save_load(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.d"
            self.live.save(path)
            self.live = SetSimilarityIndex.load(path)
            self.twin = _with_oracle(SetSimilarityIndex.load(path))
        self._same_pagers()

    @invariant()
    def pages_hold_the_stacks(self):
        for index in (self.live, self.twin):
            for fi in index._all_filters():
                assert_pages_hold_the_stacks(fi._live)

    @invariant()
    def probes_equal_the_slots(self):
        """Every filter's whole-table probe, against its twin's from
        the slots: candidate CSR, hit total, I/O and counter moves."""
        rng = np.random.default_rng(len(self.model))
        n_bits = self.live.embedder.dimension
        codes = [self.live._codes[sid] for sid in sorted(self.live._codes)[:6]]
        stored = self.live.embedder.encode(np.stack(codes)) if codes else None
        noise = pack_bits(rng.integers(0, 2, size=(3, n_bits)).astype(np.uint8))
        matrix = noise if stored is None else np.concatenate((stored, noise))
        for fi, twin in zip(_filters(self.live), _filters(self.twin)):
            io, twin_io = IOStats(), IOStats()
            before = self.live.pager.io.snapshot()
            (csr, hits), moved = _moves(
                lambda: fi.probe_tables(0, fi.n_tables, matrix, io)
            )
            live_io = self.live.pager.io.snapshot() - before
            before = self.twin.pager.io.snapshot()
            (want_csr, want_hits), want_moved = _moves(
                lambda: twin.probe_tables(0, twin.n_tables, matrix, twin_io)
            )
            assert self.twin.pager.io.snapshot() - before == live_io
            for a, b in zip(csr, want_csr):
                assert np.array_equal(a, b)
            assert hits == want_hits
            assert moved == want_moved
        self._same_pagers()


_SETTINGS = settings(max_examples=15, stateful_step_count=30, deadline=None)


class TestChurnOracle(ChurnOracleMachine.TestCase):
    settings = _SETTINGS
