"""Equivalence and report tests for the bulk build.

The contract under test (``SetSimilarityIndex.from_plan`` loading every
filter through ``insert_many`` -> ``LiveTables.bulk_load``): a
bulk-built index is *bit-identical* to one whose tables were filled
entry by entry through the slot-scanning reference model of the pages
-- same page chains (including page ids), same page contents, same I/O
accounting -- and each filter's stacked base is the stack of those
pages' entries.  An index whose sets were inserted one by one (write
deltas, compactions) answers as the bulk-built one.
"""

import numpy as np
import pytest

from repro.core.distribution import SimilarityDistribution
from repro.core.filter_index import FilterIndex
from repro.core.index import SetSimilarityIndex
from repro.core.optimizer import plan_index
from repro.hamming.sampling import sampled_key_words
from repro.obs.explain import BUILD_PHASE_SPANS, build_summaries
from repro.storage.hashtable import hash_key
from tests.slot_oracle import SlotScanTables, slot_stack, tables_state


def _collection(n_sets=60, seed=0, universe=400):
    rng = np.random.default_rng(seed)
    return [
        frozenset(
            int(e)
            for e in rng.choice(universe, size=int(rng.integers(3, 25)),
                                replace=False)
        )
        for _ in range(n_sets)
    ]


def _plan_for(sets, budget=60):
    dist = SimilarityDistribution.from_sets(sets, n_bins=50)
    plan = plan_index(dist, budget, recall_target=0.85, b=4)
    return dist, plan


def _build(sets, dist, plan, **kwargs):
    return SetSimilarityIndex.from_plan(
        sets, plan, dist, k=32, b=4, seed=3, **kwargs
    )


def _insert_loop(fi, matrix, sids):
    """The reference ``insert_many`` for pages: the slot-scanning model
    of the filter's tables (:class:`~tests.slot_oracle.SlotScanTables`,
    on the index's pager, kept as ``fi.reference``) filled one entry at a
    time, each key fingerprinted with the scalar ``hash_key``,
    table-major.  ``from_plan`` calls it filter-major -- the order the
    bulk load promises to reproduce.  (It fills the model only: such an
    index is compared, not queried.)"""
    key_bytes = -(-fi.r // 8)
    live = fi._live
    fi.reference = SlotScanTables(live.pager, live.n_tables, int(live.n_buckets[0]))
    for t, positions in enumerate(fi.positions):
        keys = sampled_key_words(
            matrix, positions // 64, (positions % 64).astype(np.uint64)
        )
        for key, sid in zip(keys, sids):
            fi.reference.insert_one(t, hash_key(key.tobytes()[:key_bytes]), sid)
    return {}


def _set_loop(fi, matrix, sids):
    """The reference ``insert_many`` for answers: one dynamic
    ``FilterIndex.insert`` per set (write delta, compactions)."""
    for row, sid in zip(matrix, sids):
        fi.insert(row, sid)
    return {}


def _build_by_insert(monkeypatch, sets, dist, plan, loop=_insert_loop):
    with monkeypatch.context() as patch:
        patch.setattr(FilterIndex, "insert_many", loop)
        return _build(sets, dist, plan)


def _filters_of(index):
    """(key, filter) pairs in a comparison-stable order."""
    out = []
    for kind, filters in (("sfi", index._sfis), ("dfi", index._dfis)):
        for point, fi in sorted(filters.items()):
            out.append((f"{kind}({point})", fi))
    return out


def _assert_bit_identical(a, b):
    """Every chain, page and counter of ``b`` matches ``a``'s reference
    model, and each filter's stacked base of ``b`` is the stack of the
    model's entries."""
    filters_a, filters_b = _filters_of(a), _filters_of(b)
    assert [k for k, _ in filters_a] == [k for k, _ in filters_b]
    for (key, fa), (_, fb) in zip(filters_a, filters_b):
        reference = fa.reference
        assert tables_state(fb._live) == tables_state(reference), key
        assert fb._live.table_stats() == reference.table_stats(), key
        assert fb.n_entries == reference.n_entries
        want = slot_stack(reference)
        for name in ("chain_pages", "run_offsets", "run_fps", "run_indptr",
                     "run_sids"):
            assert np.array_equal(
                getattr(fb._live.base, name), getattr(want, name)
            ), (key, name)
    assert a.io.snapshot() == b.io.snapshot()
    assert set(a._codes) == set(b._codes)
    for sid in a._codes:
        assert np.array_equal(a._codes[sid], b._codes[sid])
    ha, hb = a._hashes, b._hashes
    assert (ha.used, ha.rows) == (hb.used, hb.rows)
    assert np.array_equal(ha.data[: ha.used], hb.data[: hb.used])
    for name in ("start", "lens", "size"):
        assert np.array_equal(
            getattr(ha, name)[: ha.rows], getattr(hb, name)[: hb.rows]
        )


class TestBuildEquivalence:
    def test_bulk_matches_insert_bit_identical(self, monkeypatch):
        sets = _collection(n_sets=80, seed=7)
        dist, plan = _plan_for(sets)
        a = _build_by_insert(monkeypatch, sets, dist, plan)
        io_a = a.io.snapshot()  # before any probe perturbs the counters
        b = _build(sets, dist, plan)
        io_b = b.io.snapshot()
        assert io_a.as_dict() == io_b.as_dict()
        _assert_bit_identical(a, b)

    @pytest.mark.parametrize("seed", [0, 11, 23])
    def test_query_results_identical(self, seed, monkeypatch):
        sets = _collection(n_sets=50, seed=seed)
        dist, plan = _plan_for(sets)
        a = _build_by_insert(monkeypatch, sets, dist, plan, _set_loop)
        b = _build(sets, dist, plan)
        rng = np.random.default_rng(seed)
        for _ in range(6):
            q = sets[int(rng.integers(len(sets)))]
            lo = float(rng.uniform(0.0, 0.6))
            hi = float(rng.uniform(lo, 1.0))
            ra = a.query(q, lo, hi)
            rb = b.query(q, lo, hi)
            assert ra.answers == rb.answers
            assert ra.candidates == rb.candidates
            assert ra.io.as_dict() == rb.io.as_dict()

    def test_empty_collection(self):
        sets = _collection(n_sets=10, seed=5)
        dist, plan = _plan_for(sets)
        index = _build([], dist, plan)
        assert index.n_sets == 0
        assert index.build_report["filters"] is None

    def test_validation(self):
        """The build has no ``workers`` option: every table loads on the
        calling thread, so every entry point rejects it."""
        sets = _collection(n_sets=5, seed=1)
        dist, plan = _plan_for(sets)
        with pytest.raises(TypeError):
            _build(sets, dist, plan, workers=2)
        with pytest.raises(TypeError):
            SetSimilarityIndex.build(sets, budget=40, workers=2)


class TestBuildReport:
    def test_report_structure(self):
        sets = _collection(n_sets=40, seed=3)
        dist, plan = _plan_for(sets)
        index = _build(sets, dist, plan)
        report = index.build_report
        assert report is not None
        assert report["n_sets"] == len(sets)
        assert set(report["phases"]) >= {
            "store_load_seconds", "embed_corpus_seconds",
        }
        filters = report["filters"]
        assert set(filters) == {
            "tables", "entries", "new_pages", "tail_reads", "wall_seconds",
        }
        all_filters = list(index._all_filters())
        n_tables = sum(fi.n_tables for fi in all_filters)
        assert filters["tables"] == n_tables
        assert filters["entries"] == len(sets) * n_tables
        assert filters["new_pages"] == sum(
            fi.table_stats()["pages"] for fi in all_filters
        )
        assert filters["tail_reads"] == 0  # fresh tables: no tail to read
        assert filters["wall_seconds"] >= 0.0

    def test_build_classmethod_adds_planning_phases(self):
        sets = _collection(n_sets=30, seed=2)
        index = SetSimilarityIndex.build(
            sets, budget=40, recall_target=0.85, k=32, b=4, seed=1
        )
        phases = index.build_report["phases"]
        assert "estimate_distribution_seconds" in phases
        assert "plan_index_seconds" in phases

    def test_harness_build_summary_is_the_report(self):
        from repro.eval.harness import ExperimentHarness

        sets = _collection(n_sets=30, seed=4)
        dist, plan = _plan_for(sets)
        index = _build(sets, dist, plan)
        summary = ExperimentHarness(sets, index).build_summary()
        assert summary == index.build_report
        assert summary["filters"]["entries"] > 0


class TestBuildTrace:
    def test_explain_build_spans(self):
        sets = _collection(n_sets=30, seed=6)
        index = SetSimilarityIndex.build(
            sets, budget=40, recall_target=0.85, k=32, b=4, seed=1,
            explain=True,
        )
        root = index.build_trace
        assert root is not None and root.name == "build"
        names = {span.name for span in root.walk()}
        assert set(BUILD_PHASE_SPANS) <= names
        summaries = build_summaries(root)
        assert [s["phase"] for s in summaries] == list(BUILD_PHASE_SPANS)
        fb = next(s for s in summaries if s["phase"] == "filter_build")
        assert fb["entries"] == index.build_report["filters"]["entries"]

    def test_untraced_build_has_no_trace(self):
        sets = _collection(n_sets=15, seed=8)
        index = SetSimilarityIndex.build(
            sets, budget=40, recall_target=0.85, k=32, b=4, seed=1
        )
        assert index.build_trace is None

    def test_build_trace_not_pickled(self, tmp_path):
        sets = _collection(n_sets=15, seed=8)
        index = SetSimilarityIndex.build(
            sets, budget=40, recall_target=0.85, k=32, b=4, seed=1,
            explain=True,
        )
        assert index.build_trace is not None
        path = tmp_path / "index.ssi"
        index.save(path)
        loaded = SetSimilarityIndex.load(path)
        assert loaded.build_trace is None
