"""A saved index loads back as the index it was saved from.

``SetSimilarityIndex.load`` thaws a snapshot directory into a live
index through the bulk build path, without re-embedding or re-hashing a
set.  For a bulk-built index the result must be indistinguishable from
the original on every Section 4.3 plan family -- answers, candidates,
simulated I/O, the batch's page and fetch savings and every probe
counter's movement -- on the loaded index's live path, its ``freeze()``
and its own saved directory mapped back.  A churned index loads with
the same sids and answers, and charges what a fresh bulk build of its
current sets charges.
"""

from __future__ import annotations

import pytest

from repro.core.index import SetSimilarityIndex
from repro.exec import ParallelExecutor, open_snapshot
from repro.exec.snapfile import ARRAYS_FILE, MANIFEST_FILE
from repro.obs import metrics
from tests.test_index import PLAN_CASES, build_planned_index, oracle_queries

PROBE_FAMILIES = ("hashtable.", "sfi.", "dfi.")


def _probe_counters() -> dict[str, int]:
    return {
        name: value for name, value in metrics.counter_values().items()
        if name.startswith(PROBE_FAMILIES)
    }


@pytest.fixture(scope="module")
def pair(clustered_sets, tmp_path_factory):
    """The original index, the index loaded from its save, and both
    saved directories (the loaded index saved again)."""
    index = build_planned_index(clustered_sets)
    root = tmp_path_factory.mktemp("thaw")
    index.save(root / "original")
    loaded = SetSimilarityIndex.load(root / "original")
    loaded.save(root / "resaved")
    return index, loaded, root / "original", root / "resaved"


def test_resave_is_byte_identical(pair):
    """Saving the loaded index writes the bytes the original saved."""
    _, _, original, resaved = pair
    for name in (MANIFEST_FILE, ARRAYS_FILE):
        assert (resaved / name).read_bytes() == (original / name).read_bytes()


def _batch(run, queries, lo, hi, strategy):
    before = _probe_counters()
    batch = run(queries, lo, hi, strategy=strategy)
    after = _probe_counters()
    return batch, {name: after[name] - before.get(name, 0) for name in after}


@pytest.mark.parametrize("view", ["live", "frozen", "mapped"])
@pytest.mark.parametrize(
    "case,lo,hi,strategy,plan,io", PLAN_CASES, ids=[c[0] for c in PLAN_CASES]
)
def test_loaded_index_is_the_saved_index(
    pair, clustered_sets, view, case, lo, hi, strategy, plan, io
):
    index, loaded, original, resaved = pair
    queries = (
        [frozenset()] if case == "empty_query"
        else oracle_queries(clustered_sets) + [frozenset()]
    )
    if view == "live":
        want_run, got_run, close = index.query_batch, loaded.query_batch, []
    else:
        close = [
            ParallelExecutor(source)
            for source in (
                (index.freeze(), loaded.freeze()) if view == "frozen"
                else (open_snapshot(original), open_snapshot(resaved))
            )
        ]
        want_run, got_run = (executor.query_batch for executor in close)
    try:
        want, want_moves = _batch(want_run, queries, lo, hi, strategy)
        got, got_moves = _batch(got_run, queries, lo, hi, strategy)
    finally:
        for executor in close:
            executor.close()
        index.thaw()
        loaded.thaw()
    assert [r.answers for r in got] == [r.answers for r in want]
    assert [r.candidates for r in got] == [r.candidates for r in want]
    assert got.io == want.io
    assert (got.pages_saved, got.fetches_saved) == (want.pages_saved, want.fetches_saved)
    assert got_moves == want_moves


def test_loaded_index_outlives_its_directory(pair, clustered_sets, tmp_path):
    """Everything a load reads is copied off the mapping: the index keeps
    answering (and accepting writes) after its directory is gone."""
    import shutil

    index = pair[0]
    index.save(tmp_path / "doomed")
    loaded = SetSimilarityIndex.load(tmp_path / "doomed")
    shutil.rmtree((tmp_path / "doomed").resolve())
    (tmp_path / "doomed").unlink()
    queries = oracle_queries(clustered_sets)
    want = index.query_batch(queries, 0.2, 0.7)
    got = loaded.query_batch(queries, 0.2, 0.7)
    assert [r.answers for r in got] == [r.answers for r in want]
    assert got.io == want.io
    sid = loaded.insert(clustered_sets[0])
    assert sid in loaded.query(clustered_sets[0], 0.9, 1.0).answer_sids


def test_churned_index_loads_as_a_bulk_build(clustered_sets, tmp_path):
    """After inserts and deletes a reload keeps every sid and the next
    sid to assign, answers as before, and charges what a fresh bulk
    build of the same sets (same plan) charges."""
    index = build_planned_index(clustered_sets[:80])
    for s in clustered_sets[80:110]:
        index.insert(s)
    for sid in range(0, 80, 3):
        index.delete(sid)
    index.save(tmp_path / "churned")
    loaded = SetSimilarityIndex.load(tmp_path / "churned")
    assert loaded.sids == index.sids
    assert loaded.insert(frozenset({1, 2, 3})) == index.insert(frozenset({1, 2, 3}))
    sids = sorted(index.sids)
    fresh = SetSimilarityIndex.from_plan(
        [index.store.get(sid) for sid in sids], index.plan, index.distribution,
        k=48, b=6, seed=11,
    )
    queries = oracle_queries(clustered_sets)
    for lo, hi in [(0.65, 1.0), (0.0, 0.25), (0.2, 0.7), (0.3, 0.9)]:
        got = loaded.query_batch(queries, lo, hi)
        want = fresh.query_batch(queries, lo, hi)
        assert [r.answers for r in got] == [r.answers for r in index.query_batch(queries, lo, hi)]
        assert [r.answers for r in got] == [
            [(sids[i], sim) for i, sim in r.answers] for r in want
        ]
        assert got.io == want.io


def test_positions_the_seed_does_not_draw_are_refused(pair, monkeypatch):
    """A load re-draws every filter's bit positions from the embedder
    seed; a stored filter whose positions differ is a format error,
    not an index answering through the wrong keys."""
    from repro.exec.snapfile import SnapshotFormatError

    original = pair[2]
    draw = SetSimilarityIndex._materialize_filters
    monkeypatch.setattr(
        SetSimilarityIndex, "_materialize_filters",
        lambda self, expected_entries, seed: draw(self, expected_entries, seed + 1),
    )
    with pytest.raises(SnapshotFormatError, match="bit positions do not match"):
        SetSimilarityIndex.load(original)
