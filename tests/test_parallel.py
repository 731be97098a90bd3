"""Executor equivalence: bit-identical to the live index.

The executor (:class:`repro.exec.ParallelExecutor` over a
:meth:`~repro.core.index.SetSimilarityIndex.freeze` snapshot) runs the
live index's pipeline over another view.  For every workload it must
return exactly the answers, candidate sets, simulated page counts and
CPU accounting of the live ``query_batch``.  These tests pin that
contract over randomized workloads and all three execution strategies;
that the thread backend runs inline whatever ``workers`` says; and the
thread-safety of the per-thread metric cells that ``repro serve``'s two
threads record into.  The process backend's suites are in
``test_procexec.py``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.index import FrozenIndexError, SetSimilarityIndex
from repro.data.generators import planted_clusters, uniform_random_sets
from repro.exec import ParallelExecutor
from repro.obs import metrics

#: Randomized-equivalence coverage: one workload per seed (>= 12 per
#: the acceptance bar).
SEEDS = range(12)

#: Ranges cycled per seed so every plan family (sfi, dfi, complements,
#: differences, pivot union, full collection) comes up.
RANGES = [(0.5, 1.0), (0.0, 0.4), (0.2, 0.8), (0.0, 1.0), (0.7, 0.9), (0.3, 0.6)]

STRATEGIES = ("index", "scan", "auto")


def _build_workload(seed: int):
    """A small index plus a mixed query batch, all derived from ``seed``."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        sets = planted_clusters(
            n_clusters=5,
            per_cluster=7,
            base_size=20,
            universe=1200,
            mutation_rate=0.2,
            seed=seed,
        )
    else:
        sets = uniform_random_sets(
            n_sets=40, set_size=14, universe=700, seed=seed
        )
    index = SetSimilarityIndex.build(
        sets, budget=36, recall_target=0.8, k=24, b=4, seed=seed,
        sample_pairs=2_000,
    )
    queries = []
    for _ in range(5):
        queries.append(sets[int(rng.integers(len(sets)))])
    for _ in range(3):
        base = set(sets[int(rng.integers(len(sets)))])
        for element in list(base)[: len(base) // 3]:
            base.discard(element)
        base.add(10_000 + int(rng.integers(1000)))
        queries.append(frozenset(base))
    queries.append(frozenset(int(x) for x in rng.integers(0, 700, size=8)))
    queries.append(frozenset())  # empty query rides along
    lo, hi = RANGES[seed % len(RANGES)]
    return index, queries, lo, hi


def _assert_batches_identical(got, want):
    """Answers, candidates, and every simulated cost, bit for bit."""
    assert got.n_queries == want.n_queries
    for g, w in zip(got.results, want.results):
        assert g.answers == w.answers
        assert g.candidates == w.candidates
        assert g.n_candidates == w.n_candidates
        assert g.n_verified == w.n_verified
    assert got.io == want.io
    assert got.io_time == want.io_time  # == not approx: bit-identical
    assert got.cpu_time == want.cpu_time
    assert got.pages_saved == want.pages_saved
    assert got.fetches_saved == want.fetches_saved


@pytest.mark.parametrize("seed", SEEDS)
def test_parallel_matches_sequential(seed):
    """The executor reproduces the live ``query_batch`` exactly."""
    index, queries, lo, hi = _build_workload(seed)
    strategy = STRATEGIES[seed % len(STRATEGIES)]

    before = index.io.snapshot()
    sequential = index.query_batch(queries, lo, hi, strategy=strategy)
    seq_delta = index.io.snapshot() - before

    snapshot = index.freeze()
    try:
        with ParallelExecutor(snapshot) as ex:
            before = index.io.snapshot()
            parallel = ex.query_batch(queries, lo, hi, strategy=strategy)
            par_delta = index.io.snapshot() - before
        _assert_batches_identical(parallel, sequential)
        assert par_delta == seq_delta
        stats = parallel.exec_stats
        assert stats is not None and stats["workers"] == 1
        assert stats["strategy"] in ("index", "scan")
    finally:
        index.thaw()


@pytest.mark.parametrize("seed", [1, 4])
def test_parallel_explain_matches_sequential_summaries(seed):
    """Traced runs produce the same per-filter EXPLAIN summaries."""
    from repro.obs.explain import filter_summaries

    index, queries, lo, hi = _build_workload(seed)
    sequential = index.query_batch(queries, lo, hi, explain=True)
    snapshot = index.freeze()
    try:
        with ParallelExecutor(snapshot) as ex:
            parallel = ex.query_batch(queries, lo, hi, explain=True)
    finally:
        index.thaw()
    _assert_batches_identical(parallel, sequential)

    seq_sum = filter_summaries(sequential.trace)
    par_sum = filter_summaries(parallel.trace)
    assert len(par_sum) == len(seq_sum)
    for p, s in zip(par_sum, seq_sum):
        for key in ("kind", "tables_probed", "buckets_read",
                    "candidates", "pages_saved"):
            assert p.get(key) == s.get(key), key
    # No pool ran, so the trace has no worker spans: EXPLAIN describes
    # what ran (process-pool worker spans: test_procexec.py).
    names = {span.name for span in parallel.trace.walk()}
    assert parallel.trace.attrs["workers"] == 1
    assert not names & {"parallel_exec", "worker", "shard_merge"}


def test_parallel_wrappers_and_validation():
    index, queries, _, _ = _build_workload(2)
    snapshot = index.freeze()
    try:
        with ParallelExecutor(snapshot) as ex:
            above = ex.query_above_batch(queries, 0.6)
            below = ex.query_below_batch(queries, 0.3)
            with pytest.raises(ValueError):
                ex.query_batch(queries, 0.9, 0.4)
            with pytest.raises(ValueError):
                ex.query_batch(queries, -0.1, 0.5)
            with pytest.raises(ValueError):
                ex.query_batch(queries, 0.2, 0.8, strategy="bogus")
    finally:
        index.thaw()
    _assert_batches_identical(above, index.query_batch(queries, 0.6, 1.0))
    _assert_batches_identical(below, index.query_batch(queries, 0.0, 0.3))


def test_parallel_empty_batch():
    index, _, _, _ = _build_workload(3)
    snapshot = index.freeze()
    try:
        with ParallelExecutor(snapshot) as ex:
            empty = ex.query_batch([], 0.5, 1.0)
    finally:
        index.thaw()
    assert empty.n_queries == 0
    _assert_batches_identical(empty, index.query_batch([], 0.5, 1.0))


def test_executor_rejects_nonpositive_workers():
    index, _, _, _ = _build_workload(0)
    snapshot = index.freeze()
    try:
        with pytest.raises(ValueError):
            ParallelExecutor(snapshot, workers=0)
    finally:
        index.thaw()


def test_mutation_during_parallel_service_raises():
    """A frozen index refuses writes while an executor serves it."""
    index, queries, lo, hi = _build_workload(5)
    snapshot = index.freeze()
    try:
        with ParallelExecutor(snapshot) as ex:
            ex.query_batch(queries, lo, hi)
            with pytest.raises(FrozenIndexError):
                index.insert(frozenset({"x", "y"}))
            with pytest.raises(FrozenIndexError):
                index.delete(next(iter(index.sids)))
    finally:
        index.thaw()
    # Thawed: mutation works again and queries see it.
    sid = index.insert(frozenset({"freshly", "inserted"}))
    assert sid in index.sids


# -- thread backend: inline at any ``workers`` ----------------------------


def _counter_deltas(before: dict, after: dict) -> dict:
    return {
        name: value - before.get(name, 0)
        for name, value in after.items() if value != before.get(name, 0)
    }


def test_thread_backend_workers_start_no_thread(tmp_path):
    """``workers`` sizes only the process pool.  On the thread backend an
    executor asked for 4 workers starts no thread, reports ``workers=1``
    and runs exactly what ``workers=1`` runs: answers, candidates,
    ``IOStats``, saved pages and fetches, and every counter delta."""
    from repro.exec.shard import ShardedExecutor, build_sharded, open_sharded

    index, queries, lo, hi = _build_workload(1)
    sets = [index.store.get(sid) for sid in sorted(index.sids)]
    build_sharded(
        sets, tmp_path / "fleet", n_shards=2, budget=36, recall_target=0.8,
        k=24, b=4, seed=1, sample_pairs=2_000,
    )
    sharded = open_sharded(tmp_path / "fleet")
    snapshot = index.freeze()
    try:
        for make in (
            lambda w: ParallelExecutor(snapshot, workers=w),
            lambda w: ShardedExecutor(sharded, workers=w),
        ):
            runs = {}
            for workers in (1, 4):
                threads = threading.active_count()
                before = metrics.registry.counter_values()
                with make(workers) as ex:
                    batch = ex.query_batch(queries, lo, hi)
                    assert threading.active_count() == threads
                    assert ex.workers == 1
                after = metrics.registry.counter_values()
                assert batch.exec_stats["workers"] == 1
                runs[workers] = (batch, _counter_deltas(before, after))
            (one, one_counters), (four, four_counters) = runs[1], runs[4]
            _assert_batches_identical(four, one)
            assert four_counters == one_counters
    finally:
        index.thaw()


# -- per-thread metric cells ------------------------------------------------


def test_sharded_counters_exact_under_threads():
    """N threads hammering ``inc``/``shard()`` lose no increments."""
    counter = metrics.counter("test.parallel.hammer")
    counter._reset()
    n_threads, n_incs = 8, 5_000
    barrier = threading.Barrier(n_threads)

    def hammer():
        barrier.wait()
        shard = counter.shard()
        for i in range(n_incs):
            if i % 3 == 0:
                counter.inc(2)
            else:
                shard.count += 1

    threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    per_thread = 2 * ((n_incs + 2) // 3) + (n_incs - (n_incs + 2) // 3)
    assert counter.value == n_threads * per_thread


def test_sharded_counter_local_value_is_thread_local():
    counter = metrics.counter("test.parallel.local")
    counter._reset()
    counter.inc(7)
    seen = {}

    def other():
        seen["before"] = counter.local_value
        counter.inc(5)
        seen["after"] = counter.local_value

    t = threading.Thread(target=other)
    t.start()
    t.join()
    assert seen == {"before": 0, "after": 5}
    assert counter.local_value == 7
    assert counter.value == 12


def test_module_counters_consistent_under_concurrent_probes():
    """The executor's probes count exactly what the live index's do."""
    index, queries, lo, hi = _build_workload(7)
    probes = metrics.counter("hashtable.probes")
    pages = metrics.counter("hashtable.probe_pages")
    base_probes, base_pages = probes.value, pages.value

    sequential = index.query_batch(queries, lo, hi)
    seq_probes = probes.value - base_probes
    seq_pages = pages.value - base_pages

    snapshot = index.freeze()
    try:
        with ParallelExecutor(snapshot) as ex:
            parallel = ex.query_batch(queries, lo, hi)
    finally:
        index.thaw()
    _assert_batches_identical(parallel, sequential)
    assert probes.value - base_probes == 2 * seq_probes
    assert pages.value - base_pages == 2 * seq_pages
