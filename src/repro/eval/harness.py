"""Query-workload runner and result-size bucketing (Section 6 protocol).

The paper's measurement protocol: ask random queries (query sets drawn
from the collection, range bounds random), classify each query by the
size of the candidate list the index returns as a fraction of the
collection, and report precision, recall and response time averaged
per bucket.

``ExperimentHarness`` reproduces that protocol over one dataset: it
holds the built index, a sequential-scan baseline over the *same* set
store (so both pay the same I/O model), and an exact inverted-index
oracle for ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.baselines.inverted_index import InvertedIndex
from repro.baselines.sequential_scan import SequentialScan
from repro.core.index import SetSimilarityIndex
from repro.core.metrics import evaluate_query
from repro.data.queries import PAPER_BUCKETS, RangeQuery, bucket_index, bucket_label
from repro.obs.explain import filter_summaries


@dataclass
class QueryRecord:
    """Everything measured for one query.

    ``trace_summary`` is populated when the harness runs with
    ``collect_trace=True``: the per-filter probe statistics of this
    query's trace (see :func:`repro.obs.explain.filter_summaries`)
    plus the I/O breakdown, JSON-safe so benchmark drivers can attach
    it to their output files.
    """

    query: RangeQuery
    n_truth: int
    n_candidates: int
    n_answers: int
    recall: float
    precision: float
    index_io_time: float
    index_cpu_time: float
    scan_io_time: float
    scan_cpu_time: float
    trace_summary: dict | None = None

    @property
    def index_time(self) -> float:
        return self.index_io_time + self.index_cpu_time

    @property
    def scan_time(self) -> float:
        return self.scan_io_time + self.scan_cpu_time


@dataclass
class BucketSummary:
    """Per-result-size-bucket averages (one bar group in Fig. 6/7)."""

    label: str
    n_queries: int
    recall: float
    precision: float
    index_io_time: float
    index_cpu_time: float
    scan_io_time: float
    scan_cpu_time: float

    @property
    def index_time(self) -> float:
        return self.index_io_time + self.index_cpu_time

    @property
    def scan_time(self) -> float:
        return self.scan_io_time + self.scan_cpu_time


class ExperimentHarness:
    """Runs range queries against index + scan and scores them."""

    def __init__(self, sets: Sequence[frozenset], index: SetSimilarityIndex):
        self.sets = [frozenset(s) for s in sets]
        self.index = index
        self.scan = SequentialScan(index.store)
        self.oracle = InvertedIndex(self.sets)

    def build_summary(self) -> dict | None:
        """JSON-safe summary of how the harness's index was built.

        The index's :attr:`~repro.core.index.SetSimilarityIndex.build_report`
        (phase timings and the filter load's totals) -- the build-side
        analogue of ``record.trace_summary``, attachable to benchmark
        artifacts.  None for per-insert builds and loaded indexes.
        """
        return self.index.build_report

    def run_query(
        self,
        query: RangeQuery,
        measure_scan: bool = True,
        collect_trace: bool = False,
    ) -> QueryRecord:
        """Execute one query on the index (and optionally the scan).

        ``collect_trace=True`` traces the index query and attaches a
        JSON-safe per-filter summary as ``record.trace_summary``.
        """
        query_set = self.sets[query.set_index]
        result = self.index.query(
            query_set, query.sigma_low, query.sigma_high, explain=collect_trace
        )
        truth = {
            sid for sid, _ in self.oracle.query(query_set, query.sigma_low, query.sigma_high)
        }
        quality = evaluate_query(result.answer_sids, result.candidates, truth)
        if measure_scan:
            scan_result = self.scan.query(query_set, query.sigma_low, query.sigma_high)
            scan_io, scan_cpu = scan_result.io_time, scan_result.cpu_time
        else:
            scan_io = scan_cpu = 0.0
        trace_summary = None
        if collect_trace and result.trace is not None:
            trace_summary = {
                "filters": filter_summaries(result.trace),
                "io": result.io.as_dict(),
                "duration_ms": round(result.trace.duration_ms, 3),
            }
        return QueryRecord(
            query=query,
            n_truth=len(truth),
            n_candidates=result.n_candidates,
            n_answers=result.n_verified,
            recall=quality.recall,
            precision=quality.precision,
            index_io_time=result.io_time,
            index_cpu_time=result.cpu_time,
            scan_io_time=scan_io,
            scan_cpu_time=scan_cpu,
            trace_summary=trace_summary,
        )

    def run(
        self,
        queries: Sequence[RangeQuery],
        measure_scan: bool = True,
        collect_trace: bool = False,
    ) -> list[QueryRecord]:
        return [
            self.run_query(q, measure_scan, collect_trace=collect_trace)
            for q in queries
        ]

    def run_batch(
        self,
        queries: Sequence[RangeQuery],
        measure_scan: bool = True,
        collect_trace: bool = False,
        workers: int = 1,
        backend: str = "thread",
        snapshot_dir=None,
    ) -> list[QueryRecord]:
        """Execute a workload through the batched query path.

        Queries are grouped by their ``[sigma_low, sigma_high]`` range
        (a batch shares one range) and each group runs as one
        :meth:`~repro.core.index.SetSimilarityIndex.query_batch`.
        Answers, candidates, recall and precision are identical to
        :meth:`run`; response *time* is a batch-level quantity, so each
        group's simulated time is amortized evenly over its queries
        (the per-query I/O split of a shared bucket read is arbitrary).
        Records are returned in workload order.

        On the ``thread`` backend every group runs on the live index,
        on the calling thread, and ``workers`` is ignored.
        ``backend="process"`` saves the frozen snapshot to
        ``snapshot_dir`` (a temporary directory if ``None``) as a
        zero-copy :mod:`repro.exec.snapfile` image and serves every
        group from ``workers`` spawn worker *processes* that each map
        it -- results and accounting remain identical to the live path.
        """
        if backend not in ("thread", "process"):
            raise ValueError(f"unknown backend: {backend!r}")
        executor = None
        tmpdir = None
        frozen = False
        try:
            if backend == "process":
                import tempfile
                from pathlib import Path

                from repro.exec import ParallelExecutor, save_snapshot

                if snapshot_dir is None:
                    tmpdir = tempfile.TemporaryDirectory(prefix="repro-snap-")
                    snapshot_dir = Path(tmpdir.name) / "snap"
                snapshot = self.index.freeze()
                frozen = True
                save_snapshot(snapshot, snapshot_dir)
                executor = ParallelExecutor(
                    snapshot_dir, workers=workers, backend="process"
                )
            return self._run_batch_groups(
                queries, measure_scan, collect_trace, executor
            )
        finally:
            if executor is not None:
                executor.close()
            if frozen:
                self.index.thaw()
            if tmpdir is not None:
                tmpdir.cleanup()

    def _run_batch_groups(
        self,
        queries: Sequence[RangeQuery],
        measure_scan: bool,
        collect_trace: bool,
        executor,
    ) -> list[QueryRecord]:
        groups: dict[tuple[float, float], list[int]] = {}
        for i, q in enumerate(queries):
            groups.setdefault((q.sigma_low, q.sigma_high), []).append(i)
        records: list[QueryRecord | None] = [None] * len(queries)
        for (lo, hi), members in groups.items():
            query_sets = [self.sets[queries[i].set_index] for i in members]
            engine = executor if executor is not None else self.index
            batch = engine.query_batch(
                query_sets, lo, hi, explain=collect_trace
            )
            share = 1.0 / max(1, len(members))
            if measure_scan:
                scan_batch = self.scan.query_batch(query_sets, lo, hi)
                scan_io = scan_batch.io_time * share
                scan_cpu = scan_batch.cpu_time * share
            else:
                scan_io = scan_cpu = 0.0
            trace_summary = None
            if collect_trace and batch.trace is not None:
                trace_summary = {
                    "filters": filter_summaries(batch.trace),
                    "io": batch.io.as_dict(),
                    "pages_saved": batch.pages_saved,
                    "fetches_saved": batch.fetches_saved,
                    "n_queries": batch.n_queries,
                    "duration_ms": round(batch.trace.duration_ms, 3),
                }
            for i, query_set, result in zip(members, query_sets, batch.results):
                truth = {
                    sid for sid, _ in self.oracle.query(query_set, lo, hi)
                }
                quality = evaluate_query(
                    result.answer_sids, result.candidates, truth
                )
                records[i] = QueryRecord(
                    query=queries[i],
                    n_truth=len(truth),
                    n_candidates=result.n_candidates,
                    n_answers=result.n_verified,
                    recall=quality.recall,
                    precision=quality.precision,
                    index_io_time=batch.io_time * share,
                    index_cpu_time=batch.cpu_time * share,
                    scan_io_time=scan_io,
                    scan_cpu_time=scan_cpu,
                    trace_summary=trace_summary,
                )
        return [r for r in records if r is not None]

    def telemetry_summary(self) -> dict:
        """JSON-safe snapshot of the query-telemetry layer.

        Distribution quantiles under ``latency`` (every non-empty
        histogram: end-to-end wall, per-phase, simulated, and the
        candidates-per-query and batch-size counts), the candidate
        funnel and the event-log sampler statistics -- the
        numbers ``repro top`` renders, in one attachable dict.
        Registry instruments are process-wide and monotonic, so this
        describes everything recorded since the last
        ``metrics.reset()``, not only this harness's queries.
        """
        from repro.obs import events, metrics

        latency = {
            name: hist.to_dict()
            for name, hist in metrics.registry.hdr_histograms().items()
            if hist.count
        }
        counters = metrics.counter_values()
        n_candidates = counters.get("query.candidates", 0)
        n_verified = counters.get("query.verified_hits", 0)
        return {
            "latency": latency,
            "funnel": {
                "queries": counters.get("query.count", 0),
                "batches": counters.get("query.batches", 0),
                "candidates": n_candidates,
                "verified": n_verified,
                "precision": n_verified / n_candidates if n_candidates else 0.0,
            },
            "events": events.log.stats(),
        }

    def bucket_summaries(
        self,
        records: Sequence[QueryRecord],
        buckets=PAPER_BUCKETS,
    ) -> list[BucketSummary]:
        """Group records into the paper's result-size buckets.

        Classification follows the paper: by the *candidate* result
        size as a fraction of the collection.  Queries falling outside
        every bucket (e.g. > 35%) are dropped, as in the paper.
        """
        n = max(1, self.index.n_sets)
        grouped: dict[int, list[QueryRecord]] = {}
        for record in records:
            bucket = bucket_index(record.n_candidates / n, buckets)
            if bucket is not None:
                grouped.setdefault(bucket, []).append(record)
        summaries = []
        for i in range(len(buckets)):
            members = grouped.get(i, [])
            if not members:
                summaries.append(
                    BucketSummary(bucket_label(i, buckets), 0, *([float("nan")] * 6))
                )
                continue
            summaries.append(
                BucketSummary(
                    label=bucket_label(i, buckets),
                    n_queries=len(members),
                    recall=float(np.mean([r.recall for r in members])),
                    precision=float(np.mean([r.precision for r in members])),
                    index_io_time=float(np.mean([r.index_io_time for r in members])),
                    index_cpu_time=float(np.mean([r.index_cpu_time for r in members])),
                    scan_io_time=float(np.mean([r.scan_io_time for r in members])),
                    scan_cpu_time=float(np.mean([r.scan_cpu_time for r in members])),
                )
            )
        return summaries
