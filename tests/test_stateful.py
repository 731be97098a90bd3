"""Stateful property tests: structures vs oracle models under random
operation sequences (hypothesis RuleBasedStateMachine)."""

import numpy as np

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.index import SetSimilarityIndex, _LiveView
from repro.core.similarity import jaccard
from repro.exec import ParallelExecutor
from repro.exec.columnar import hash_set
from repro.storage.btree import BTree
from repro.storage.iomodel import IOCostModel, IOStats
from repro.storage.pager import PageManager

element_sets = st.frozensets(st.integers(0, 60), min_size=1, max_size=12)


class IndexMachine(RuleBasedStateMachine):
    """Insert/delete/query an index; answers must be a (verified)
    subset of brute force, and exact-match queries must self-hit.  A
    frozen snapshot and a save/load round trip, cut after any writes,
    must answer (and, frozen, charge) as the live index does, and the hash
    arena and fetch charges the live view verifies from must match the
    set store after every step."""

    @initialize()
    def setup(self):
        seed_sets = [frozenset({i, i + 1, i + 2}) for i in range(0, 30, 3)]
        self.index = SetSimilarityIndex.build(
            seed_sets, budget=20, recall_target=0.7, k=16, b=5, seed=1
        )
        self.model: dict[int, frozenset] = dict(enumerate(seed_sets))

    @rule(elements=element_sets)
    def insert(self, elements):
        sid = self.index.insert(elements)
        assert sid not in self.model
        self.model[sid] = frozenset(elements)

    @rule(data=st.data())
    def delete_some(self, data):
        if not self.model:
            return
        sid = data.draw(st.sampled_from(sorted(self.model)))
        self.index.delete(sid)
        del self.model[sid]

    @rule(data=st.data(), low=st.floats(0.0, 1.0), high=st.floats(0.0, 1.0))
    def query_range(self, data, low, high):
        if not self.model:
            return
        low, high = sorted((low, high))
        sid = data.draw(st.sampled_from(sorted(self.model)))
        query_set = self.model[sid]
        result = self.index.query(query_set, low, high)
        truth = {
            other
            for other, stored in self.model.items()
            if low <= jaccard(stored, query_set) <= high
        }
        # No hallucinated answers, correct similarities, truth-subset.
        assert result.answer_sids <= truth
        for other, similarity in result.answers:
            assert similarity == jaccard(self.model[other], query_set)
        # The query's own (identical) set always collides in every table.
        if high == 1.0:
            assert sid in result.answer_sids

    def _drawn_query(self, data):
        low, high = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
        query_set = self.model[data.draw(st.sampled_from(sorted(self.model)))]
        return query_set, low, high

    @rule(data=st.data())
    def freeze_thaw(self, data):
        """A frozen snapshot answers as the live index it was cut from,
        whatever writes came before; thaw lets writes resume."""
        if not self.model:
            return
        query_set, low, high = self._drawn_query(data)
        live = self.index.query(query_set, low, high)
        try:
            with ParallelExecutor(self.index.freeze(), workers=1) as executor:
                frozen = executor.query_batch([query_set], low, high)
        finally:
            self.index.thaw()
        assert frozen.results[0].answers == live.answers
        assert frozen.io == live.io

    @rule(data=st.data())
    def save_load(self, data):
        """A save/load round trip keeps every sid and the next sid to
        assign, answers as the index it was saved from, and charges
        what a fresh bulk build of the same contents charges (a reload
        is a bulk build, whatever churn came before); the loaded index
        carries on as the machine's index."""
        if not self.model:
            return
        query_set, low, high = self._drawn_query(data)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.d"
            self.index.save(path)
            loaded = SetSimilarityIndex.load(path)
        assert loaded.sids == self.index.sids
        assert loaded.store.next_sid == self.index.store.next_sid
        got = loaded.query(query_set, low, high)
        assert got.answers == self.index.query(query_set, low, high).answers
        sids = sorted(self.model)
        fresh = SetSimilarityIndex.from_plan(
            [self.model[sid] for sid in sids], self.index.plan,
            self.index.distribution, k=16, b=5, seed=1,
        ).query(query_set, low, high)
        assert got.io == fresh.io
        assert got.answers == [(sids[i], sim) for i, sim in fresh.answers]
        self.index = loaded

    @invariant()
    def sizes_agree(self):
        assert self.index.n_sets == len(self.model)
        assert self.index.sids == set(self.model)

    @invariant()
    def arena_and_charges_match_store(self):
        """Every live sid's arena row is the hash array of its stored
        set, and the fetch the live view charges is what reading that
        set through the store costs."""
        index, arena = self.index, self.index._hashes
        view = _LiveView(index)
        for sid, elements in self.model.items():
            start, length = arena.start[sid], arena.lens[sid]
            row = arena.data[start:start + length]
            assert np.array_equal(row, hash_set(elements)[0])
            assert arena.size[sid] == length == len(elements)
            before = index.io.snapshot()
            assert index.store.get(sid) == elements
            charged = IOStats()
            view.fetch([sid], charged)
            assert charged == index.io.snapshot() - before


class BTreeMachine(RuleBasedStateMachine):
    """B-tree vs dict under interleaved inserts/deletes/searches."""

    @initialize()
    def setup(self):
        self.tree = BTree(PageManager(IOCostModel()), min_degree=2)
        self.model: dict[int, int] = {}

    @rule(key=st.integers(0, 50), value=st.integers())
    def insert(self, key, value):
        self.tree.insert(key, value)
        self.model[key] = value

    @rule(data=st.data())
    def delete_existing(self, data):
        if not self.model:
            return
        key = data.draw(st.sampled_from(sorted(self.model)))
        self.tree.delete(key)
        del self.model[key]

    @rule(key=st.integers(0, 50))
    def search(self, key):
        if key in self.model:
            assert self.tree.search(key) == self.model[key]
        else:
            assert key not in self.tree

    @rule(low=st.integers(0, 50), high=st.integers(0, 50))
    def range_scan(self, low, high):
        low, high = sorted((low, high))
        got = list(self.tree.range_scan(low, high))
        expected = sorted(
            (k, v) for k, v in self.model.items() if low <= k <= high
        )
        assert got == expected

    @invariant()
    def count_agrees(self):
        assert self.tree.n_keys == len(self.model)


TestIndexMachine = IndexMachine.TestCase
TestIndexMachine.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)

TestBTreeMachine = BTreeMachine.TestCase
TestBTreeMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
