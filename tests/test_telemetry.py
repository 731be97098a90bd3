"""End-to-end telemetry: phase timings, query events on real paths,
and the cross-backend latency-quantile identity.

The acceptance surface of the telemetry layer: every query path
populates ``result.timings``; every path records exactly one event per
user-facing call; and the ``query.sim_time`` HDR histogram -- fed with
the paper's backend-invariant simulated cost -- accumulates the *same
distribution* (identical bucket counts, hence identical p50/p90/p99/
p999) whether a workload runs on the live index, on an executor over
its frozen snapshot, or on process workers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.index import SetSimilarityIndex
from repro.data.generators import planted_clusters
from repro.exec import ParallelExecutor
from repro.obs import events, metrics
from repro.obs.hdr import HdrHistogram

PHASES = ("embed", "probe", "fetch", "verify")


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
    path = tmp_path_factory.mktemp("telemetry") / "snapdir"
    index.save_snapshot(path)
    return index, queries, path


@pytest.fixture(autouse=True)
def clean_event_log():
    events.log.clear()
    events.log.configure(sample=1.0, slow_ms=events.DEFAULT_SLOW_MS,
                         enabled=True)
    yield
    events.log.clear()


def sim_delta(run) -> dict:
    """Run a workload and return the ``query.sim_time`` state delta it
    contributed (isolated from whatever the registry held before)."""
    hist = metrics.hdr("query.sim_time")
    before = hist.state()
    run()
    return hist.delta(before)


class TestTimings:
    def test_sequential_query_populates_phases(self, workload):
        index, queries, _ = workload
        result = index.query(queries[0], 0.5, 1.0)
        assert set(result.timings) <= set(PHASES)
        assert "probe" in result.timings
        assert "verify" in result.timings
        assert all(ms >= 0.0 for ms in result.timings.values())

    def test_scan_strategy_reports_scan_phase(self, workload):
        index, queries, _ = workload
        result = index.query(queries[0], 0.5, 1.0, strategy="scan")
        assert set(result.timings) == {"scan"}

    def test_batch_populates_phases(self, workload):
        index, queries, _ = workload
        batch = index.query_batch(queries, 0.5, 1.0)
        assert "probe" in batch.timings
        assert "verify" in batch.timings

    def test_timings_do_not_affect_equality(self, workload):
        index, queries, _ = workload
        a = index.query(queries[0], 0.5, 1.0)
        b = index.query(queries[0], 0.5, 1.0)
        assert a.timings != {} and b.timings != {}
        assert a == b  # timings are compare=False by design

    def test_executor_batch_carries_stage_timings(self, workload):
        index, queries, _ = workload
        with ParallelExecutor(index.freeze()) as ex:
            batch = ex.query_batch(queries, 0.5, 1.0)
        index.thaw()
        assert batch.timings
        assert all(ms >= 0.0 for ms in batch.timings.values())


class TestQueryEvents:
    def test_one_event_per_query_call(self, workload):
        index, queries, _ = workload
        seen0 = events.log.stats()["seen"]
        count, batches = metrics.counter("query.count"), metrics.counter("query.batches")
        count0, batches0 = count.value, batches.value
        index.query(queries[0], 0.5, 1.0)
        index.query_batch(queries, 0.5, 1.0)
        assert events.log.stats()["seen"] == seen0 + 2
        # query() is the one-row batch, but it is still one "query"
        # event and a row in query.count, not a batch in query.batches.
        assert count.value == count0 + 1 + len(queries)
        assert batches.value == batches0 + 1
        single_event, batch_event = events.log.events()[-2:]
        assert single_event.kind == "query" and single_event.n_queries == 1
        assert batch_event.kind == "query_batch"
        assert batch_event.n_queries == len(queries)
        assert batch_event.backend == "thread"
        assert batch_event.workers == 1
        assert batch_event.timings

    def test_executor_batch_records_one_event(self, workload):
        index, queries, _ = workload
        seen0 = events.log.stats()["seen"]
        with ParallelExecutor(index.freeze()) as ex:
            ex.query_batch(queries, 0.5, 1.0)
        index.thaw()
        assert events.log.stats()["seen"] == seen0 + 1
        event = events.log.events()[-1]
        assert event.backend == "thread"
        assert event.workers == 1
        assert event.n_queries == len(queries)

    def test_event_funnel_matches_result(self, workload):
        index, queries, _ = workload
        result = index.query(queries[0], 0.5, 1.0)
        event = events.log.events()[-1]
        assert event.n_candidates == result.n_candidates
        assert event.n_verified == result.n_verified
        assert event.sim_time == result.total_time


class TestCrossBackendQuantiles:
    """The acceptance criterion: identical sim-time distribution --
    bucket for bucket, hence quantile for quantile -- across the live
    index, an executor over its frozen snapshot, and process workers."""

    RANGES = [(0.5, 1.0), (0.2, 0.8), (0.0, 1.0)]

    def _run_all_backends(self, workload):
        index, queries, path = workload

        def live():
            for lo, hi in self.RANGES:
                index.query_batch(queries, lo, hi)

        def frozen():
            with ParallelExecutor(index.freeze()) as ex:
                for lo, hi in self.RANGES:
                    ex.query_batch(queries, lo, hi)
            index.thaw()

        def process():
            with ParallelExecutor(path, workers=2, backend="process") as ex:
                for lo, hi in self.RANGES:
                    ex.query_batch(queries, lo, hi)

        return {
            "live": sim_delta(live),
            "frozen": sim_delta(frozen),
            "process": sim_delta(process),
        }

    def test_sim_time_distribution_identical(self, workload):
        deltas = self._run_all_backends(workload)
        reference = deltas["live"]
        assert reference["count"] == len(self.RANGES) * len(workload[1])
        for backend in ("frozen", "process"):
            assert deltas[backend]["counts"] == reference["counts"], backend
            assert deltas[backend]["zero_count"] == reference["zero_count"]
            assert deltas[backend]["count"] == reference["count"]

    def test_quantiles_identical_across_backends(self, workload):
        deltas = self._run_all_backends(workload)
        quantiles = {}
        for backend, delta in deltas.items():
            hist = HdrHistogram(backend)
            hist.apply_delta(delta)
            quantiles[backend] = [
                hist.quantile(q) for q in (0.5, 0.9, 0.99, 0.999)
            ]
        assert quantiles["frozen"] == quantiles["live"]
        assert quantiles["process"] == quantiles["live"]


class TestOneHistogramKind:
    def test_distribution_instruments_are_hdr(self, workload):
        """Candidates per query and batch size record into the registry's
        one histogram kind, and export as Prometheus summaries."""
        from repro.obs.export import prometheus_text, validate_prometheus_text
        from repro.obs.top import quantile

        index, queries, _ = workload
        per_query = metrics.hdr("query.candidates_per_query")
        batch_size = metrics.hdr("query.batch_size")
        before = per_query.state(), batch_size.state()
        batch = index.query_batch(queries, 0.5, 1.0)
        delta = per_query.delta(before[0])
        assert delta["count"] == len(queries)
        moved = HdrHistogram("moved")
        moved.apply_delta(delta)
        exact = quantile([r.n_candidates for r in batch.results], 0.5)
        assert moved.quantile(0.5) == pytest.approx(exact, rel=0.01)
        sizes = batch_size.delta(before[1])
        assert sizes["count"] == 1
        assert sizes["sum"] == len(queries)
        families = validate_prometheus_text(prometheus_text())
        assert families["repro_query_candidates_per_query"] == "summary"
        assert families["repro_query_batch_size"] == "summary"


class TestRegistryAcrossProcesses:
    """Gauges and histograms survive the worker->parent fold (the
    historical counter-only fold silently dropped both)."""

    def test_worker_histogram_movement_reaches_parent(self, workload):
        index, queries, path = workload
        hist = metrics.hdr("query.sim_time")
        before = hist.state()
        with ParallelExecutor(path, workers=2, backend="process") as ex:
            batch = ex.query_batch(queries, 0.5, 1.0)
        delta = hist.delta(before)
        assert delta["count"] == batch.n_queries

    def test_gauges_ship_only_when_moved(self):
        reg = metrics.MetricsRegistry()
        reg.gauge("static").set(5.0)
        before = reg.registry_values()
        reg.gauge("moving").set(1.0)
        delta = metrics.registry_delta(before, reg.registry_values())
        assert delta.get("gauges") == {"moving": 1.0}

    def test_full_registry_roundtrip_through_delta(self):
        src = metrics.MetricsRegistry()
        src.counter("c").inc(4)
        src.gauge("g").set(2.5)
        src.hdr("sizes").observe(3.0)
        src.hdr("lat").observe_many([1.0, 50.0])
        payload = metrics.registry_delta(
            metrics.MetricsRegistry().registry_values(), src.registry_values()
        )
        dst = metrics.MetricsRegistry()
        dst.apply_deltas(payload)
        got = dst.registry_values()
        assert got["counters"]["c"] == 4
        assert got["gauges"]["g"] == 2.5
        assert got["hdr"]["sizes"]["count"] == 1
        assert got["hdr"]["lat"]["counts"] == \
            src.registry_values()["hdr"]["lat"]["counts"]
