"""Freeze/thaw semantics of :class:`repro.exec.snapshot.IndexSnapshot`.

``freeze()`` pins the index's entire queryable state -- bucket
directories, ECC vectors, CSR set arrays, measured fetch costs, the
planner -- into a read-only snapshot.  The contract: the snapshot is
cached and idempotent, mutation while frozen raises
:class:`~repro.core.index.FrozenIndexError` *before* touching storage,
thaw releases the pin, and a freeze taken after mutation reflects the
new contents.
"""

from __future__ import annotations


import pytest

from repro.core.index import FrozenIndexError, SetSimilarityIndex
from repro.data.generators import uniform_random_sets
from repro.exec import IndexSnapshot, ParallelExecutor


@pytest.fixture
def index():
    sets = uniform_random_sets(n_sets=30, set_size=12, universe=500, seed=9)
    return SetSimilarityIndex.build(
        sets, budget=30, recall_target=0.8, k=16, b=4, seed=9,
        sample_pairs=1_000,
    )


def test_freeze_idempotent_and_thaw(index):
    assert not index.frozen
    snap = index.freeze()
    assert isinstance(snap, IndexSnapshot)
    assert index.frozen
    assert index.freeze() is snap  # cached, not rebuilt
    index.thaw()
    assert not index.frozen
    assert index.freeze() is not snap  # thaw really released it
    index.thaw()


def test_mutation_while_frozen_raises_and_leaves_index_intact(index):
    sids_before = set(index.sids)
    pages_before = index.store.n_pages
    index.freeze()
    with pytest.raises(FrozenIndexError):
        index.insert(frozenset({"a", "b", "c"}))
    with pytest.raises(FrozenIndexError):
        index.delete(next(iter(sids_before)))
    # The refusal happened before any storage mutation.
    assert set(index.sids) == sids_before
    assert index.store.n_pages == pages_before
    index.thaw()


def test_freeze_after_mutation_is_fresh(index):
    """Interleaved insert -> freeze -> query sees the new set."""
    lo, hi = 0.5, 1.0
    first = index.freeze()
    index.thaw()

    new_set = frozenset({"zeta", "eta", "theta"})
    sid = index.insert(new_set)
    second = index.freeze()
    try:
        assert second is not first
        with ParallelExecutor(second) as ex:
            batch = ex.query_batch([new_set], lo, hi)
        sequential = index.query_batch([new_set], lo, hi)
        assert batch.results[0].answers == sequential.results[0].answers
        assert any(s == sid for s, _ in batch.results[0].answers)
    finally:
        index.thaw()

    # Delete then refreeze: the set is gone from the snapshot too.
    index.delete(sid)
    third = index.freeze()
    try:
        with ParallelExecutor(third) as ex:
            batch = ex.query_batch([new_set], lo, hi)
        assert all(s != sid for s, _ in batch.results[0].answers)
    finally:
        index.thaw()


def test_snapshot_not_pickled_with_index(index, tmp_path):
    """Saving a frozen index keeps it frozen; the loaded index is a
    live one that answers as the saved index and can freeze anew."""
    path = tmp_path / "frozen.d"
    index.freeze()
    try:
        index.save(path)
        assert index.frozen
    finally:
        index.thaw()
    loaded = SetSimilarityIndex.load(path)
    assert not loaded.frozen
    query = frozenset(index.store.get(next(iter(index.sids))))
    want = index.query_batch([query], 0.4, 1.0)
    got = loaded.query_batch([query], 0.4, 1.0)
    for g, w in zip(got.results, want.results):
        assert g.answers == w.answers
    loaded.freeze()
    loaded.thaw()


def test_snapshot_plan_probes_cover_all_families(index):
    """Every plan family the live planner can pick maps to probes."""
    snap = index.freeze()
    try:
        known = {
            "full_collection", "dfi(up)", "complement_sfi(up)", "sfi(lo)",
            "complement_dfi(lo)", "sfi_difference", "dfi_difference",
            "pivot_union",
        }
        seen = set()
        for lo, hi in [(0.0, 1.0), (0.5, 1.0), (0.0, 0.4), (0.2, 0.8),
                       (0.7, 0.9), (0.3, 0.6), (0.9, 1.0), (0.0, 0.1)]:
            plan_name, probes, _ = snap.plan_probes(lo, hi)
            assert plan_name in known
            seen.add(plan_name)
            for kind, point in probes:
                assert kind in ("sfi", "dfi")
                assert snap.filter_probe(kind, point) is not None
        assert len(seen) >= 2  # small plan: at least two families arise
    finally:
        index.thaw()
