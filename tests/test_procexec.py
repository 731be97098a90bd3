"""Process-backend executor: bit-identical answers from spawn workers.

``ParallelExecutor(snapshot_dir, backend="process")`` fans (filter,
table) probe shards and verify chunks out to worker *processes* that
each ``open_snapshot()`` the same mmap'd directory.  Because every
element/key hash in the engine is content-derived (blake2b /
splitmix64, never builtin ``hash``), a spawn worker reproduces the
parent's results exactly; these tests pin that equivalence against the
sequential index at several worker counts, the cross-process folding
of module counters, and the constructor's validation paths.

Spawn start-up costs dominate here, so the suite keeps one shared
snapshot and a handful of worker counts rather than the full
randomized sweep of ``test_parallel.py`` (the thread-backend suite
already covers the scheduling logic both backends share).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.index import SetSimilarityIndex
from repro.data.generators import planted_clusters
from repro.exec import ParallelExecutor, open_snapshot
from repro.obs import metrics

WORKER_COUNTS = (1, 2, 4)

RANGES = [(0.5, 1.0), (0.0, 0.4), (0.2, 0.8), (0.0, 1.0)]


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    sets = planted_clusters(
        n_clusters=5, per_cluster=7, base_size=20, universe=1200,
        mutation_rate=0.2, seed=11,
    )
    index = SetSimilarityIndex.build(
        sets, budget=36, recall_target=0.8, k=24, b=4, seed=11,
        sample_pairs=2_000,
    )
    rng = np.random.default_rng(11)
    queries = [sets[int(rng.integers(len(sets)))] for _ in range(6)]
    queries.append(frozenset(int(x) for x in rng.integers(0, 1200, size=8)))
    queries.append(frozenset())
    path = tmp_path_factory.mktemp("proc") / "snapdir"
    index.save_snapshot(path)
    return index, queries, path


def _assert_batches_identical(got, want):
    assert got.n_queries == want.n_queries
    for g, w in zip(got.results, want.results):
        assert g.answers == w.answers
        assert g.candidates == w.candidates
    assert got.io == want.io
    assert got.io_time == want.io_time
    assert got.cpu_time == want.cpu_time
    assert got.pages_saved == want.pages_saved
    assert got.fetches_saved == want.fetches_saved


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_process_backend_matches_sequential(workload, workers):
    index, queries, path = workload
    with ParallelExecutor(path, workers=workers, backend="process") as ex:
        assert ex.backend == "process"
        for lo, hi in RANGES:
            sequential = index.query_batch(queries, lo, hi)
            served = ex.query_batch(queries, lo, hi)
            _assert_batches_identical(served, sequential)
            stats = served.exec_stats
            assert stats["workers"] == workers
            assert stats["backend"] == "process"


def test_process_backend_scan_strategy(workload):
    index, queries, path = workload
    sequential = index.query_batch(queries, 0.2, 0.9, strategy="scan")
    with ParallelExecutor(path, workers=2, backend="process") as ex:
        served = ex.query_batch(queries, 0.2, 0.9, strategy="scan")
    _assert_batches_identical(served, sequential)


def test_process_backend_accepts_open_mapped_snapshot(workload):
    index, queries, path = workload
    mapped = open_snapshot(path)
    sequential = index.query_batch(queries, 0.3, 0.8)
    with ParallelExecutor(mapped, workers=2, backend="process") as ex:
        served = ex.query_batch(queries, 0.3, 0.8)
    _assert_batches_identical(served, sequential)


def test_worker_counter_deltas_fold_into_parent(workload):
    """Probe counters moved inside workers surface in this process."""
    index, queries, path = workload
    probes = metrics.counter("hashtable.probes")
    pages = metrics.counter("hashtable.probe_pages")

    base_probes, base_pages = probes.value, pages.value
    sequential = index.query_batch(queries, 0.5, 1.0)
    seq_probes = probes.value - base_probes
    seq_pages = pages.value - base_pages
    assert seq_probes > 0

    with ParallelExecutor(path, workers=2, backend="process") as ex:
        base_probes, base_pages = probes.value, pages.value
        served = ex.query_batch(queries, 0.5, 1.0)
        assert probes.value - base_probes == seq_probes
        assert pages.value - base_pages == seq_pages
    _assert_batches_identical(served, sequential)


def test_process_backend_rejects_live_snapshot(workload):
    index, _, _ = workload
    snapshot = index.freeze()
    try:
        with pytest.raises(ValueError, match="saved snapshot"):
            ParallelExecutor(snapshot, workers=2, backend="process")
    finally:
        index.thaw()


def test_unknown_backend_rejected(workload):
    _, _, path = workload
    with pytest.raises(ValueError, match="backend"):
        ParallelExecutor(open_snapshot(path), workers=2, backend="fibers")


def test_thread_backend_over_mapped_snapshot(workload):
    """The default thread backend also serves a mapped snapshot."""
    index, queries, path = workload
    sequential = index.query_batch(queries, 0.4, 0.9)
    with ParallelExecutor(open_snapshot(path)) as ex:
        assert ex.backend == "thread"
        served = ex.query_batch(queries, 0.4, 0.9)
    _assert_batches_identical(served, sequential)
