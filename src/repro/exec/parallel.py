"""Parallel batch-query execution over a frozen index snapshot.

:class:`ParallelExecutor` shards one ``query_batch`` across a worker
thread pool in three stages -- embed (by query chunk), filter probe (by
range of hash tables), exact verify (by query chunk) -- against an
:class:`~repro.exec.snapshot.IndexSnapshot`.  The heavy kernels
(vectorized min-hash, packed Hamming popcounts, columnar sorted-hash
intersection) are numpy calls that release the GIL, so the shards
genuinely overlap on multi-core hosts.

Determinism is the design center, not an afterthought:

- every task charges simulated I/O into its **own**
  :class:`~repro.storage.iomodel.IOStats`; module counters use their
  per-thread shards (:mod:`repro.obs.metrics`).  Merges are integer
  sums, so totals are independent of scheduling order;
- probe work is sharded **by table** (one contiguous range of a
  filter's tables per worker), never by splitting a batch's keys: a
  bucket's page chain is read once per (filter, table) for the whole
  batch regardless of worker count, which keeps page accounting --
  including ``pages_saved`` -- bit-identical to the sequential grouped
  probe;
- embedding a query chunk is a per-set pure function, so chunked
  embeddings concatenate to exactly the full-batch matrix;
- results are assembled by position, and all floating-point similarity
  values come from the same kernels the sequential path uses.

Consequently ``ParallelExecutor(snapshot, workers=w).query_batch(...)``
returns answers, candidates, page counts and CPU accounting
bit-identical to ``index.query_batch(...)`` for every ``w``.

``backend="process"`` swaps the thread pool for a ``spawn``-based
process pool over a **saved** snapshot
(:mod:`repro.exec.snapfile`): each worker process maps the snapshot
directory once (O(ms), pages shared between processes) and runs the
same per-task stage bodies, shipping back its results, its private
:class:`~repro.storage.iomodel.IOStats` and its module-counter deltas
(:mod:`repro.exec.procpool`).  All merge logic runs on the parent
exactly as in the thread backend, so the bit-identical guarantee --
answers, page counts, CPU accounting, ``pages_saved``, counter totals
-- holds across backends at any worker count; only the wall clock
changes, because worker processes dodge the GIL on the pure-Python
probe/verify loops.

The executor also mirrors the sequential path's observability: the
same ``query_batch`` / ``candidates_batch`` / ``*_probe_batch`` /
``verify_batch`` span tree (so EXPLAIN and ``filter_summaries`` work
unchanged), plus per-worker spans and a shard-merge summary under
``parallel_exec``.  Simulated charges are applied to the index's cost
model *inside* the matching spans at merge time, on the calling
thread, so span I/O deltas remain exact.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Iterable, Sequence

import numpy as np

from repro.core.filter_index import record_batch_probe_counters
from repro.core.index import BatchQueryResult, assemble_batch, record_batch
from repro.core.query_plan import plan_batch
from repro.exec.columnar import merge_verify_info
from repro.hamming.bitvector import complement
from repro.obs import metrics, trace
from repro.storage.iomodel import IOStats

_PAGES_SAVED = metrics.counter("hashtable.probe_pages_saved")
_CACHE_HITS = metrics.counter("pager.cache_hits")
_PARALLEL_BATCHES = metrics.counter("exec.parallel_batches")
_PARALLEL_TASKS = metrics.counter("exec.parallel_tasks")


def _apply(cost, io: IOStats) -> None:
    """Fold one shard's accumulated charges into the live cost model."""
    stats = cost.stats
    stats.sequential_reads += io.sequential_reads
    stats.random_reads += io.random_reads
    stats.page_writes += io.page_writes
    stats.cpu_ops += io.cpu_ops


def _chunks(items: Sequence, pieces: int) -> list:
    """Split into at most ``pieces`` contiguous, near-equal chunks."""
    n = len(items)
    pieces = max(1, min(pieces, n))
    bounds = [n * p // pieces for p in range(pieces + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


class _Task:
    """One unit of sharded work: stage label plus measured execution."""

    __slots__ = ("stage", "label", "io", "seconds", "thread", "result", "extra")

    def __init__(self, stage: str, label: str):
        self.stage = stage
        self.label = label
        self.io = IOStats()
        self.seconds = 0.0
        self.thread = ""
        self.result = None
        self.extra = None


class ParallelExecutor:
    """Serves ``query_batch`` from a snapshot with a worker pool.

    Parameters
    ----------
    snapshot:
        For ``backend="thread"``: a frozen
        :class:`~repro.exec.snapshot.IndexSnapshot` (``index.freeze()``
        or an opened mapped snapshot).  For ``backend="process"``: a
        :class:`~repro.exec.snapfile.MappedSnapshot`
        (:func:`~repro.exec.snapfile.open_snapshot`) or the path of a
        saved snapshot directory -- worker processes re-open it by
        path, sharing its mmap'd pages.
    workers:
        Pool size.  Any value >= 1 produces bit-identical results and
        accounting; it only changes wall-clock overlap.
    backend:
        ``"thread"`` (default) or ``"process"`` (``spawn`` start
        method; genuine multi-core execution of the pure-Python probe
        and verify loops).
    record:
        When False, skip the per-batch query-level telemetry (the
        ``query.*`` aggregate counters and the ``record_query`` event).
        The scatter-gather :class:`~repro.exec.shard.ShardedExecutor`
        sets this on its per-shard executors and emits one merged
        record itself, so a sharded batch counts each query once, not
        once per shard.  Work-level counters (probe pages, hashtable
        and ``exec.parallel_*`` counters) always record -- they meter
        real work, which sharding genuinely multiplies.

    Usable as a context manager; :meth:`close` shuts the pool down.
    """

    def __init__(self, snapshot, workers: int = 1, backend: str = "thread",
                 record: bool = True):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend not in ("thread", "process"):
            raise ValueError(f"unknown backend: {backend!r}")
        if backend == "process":
            from repro.exec import procpool
            from repro.exec.snapfile import MappedSnapshot, open_snapshot

            if isinstance(snapshot, (str, os.PathLike)):
                snapshot = open_snapshot(snapshot)
            if not isinstance(snapshot, MappedSnapshot):
                raise ValueError(
                    "backend='process' needs a saved snapshot: "
                    "save_snapshot(index.freeze(), dir), then pass "
                    "open_snapshot(dir) or the directory path"
                )
            self._procpool = procpool
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=procpool.worker_init,
                initargs=(str(snapshot.path),),
            )
        else:
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-exec"
            )
        self.snapshot = snapshot
        self.workers = workers
        self.backend = backend
        self.record = record

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- task plumbing -----------------------------------------------------

    def _run_tasks(self, tasks: list[_Task], fns: list, specs=None) -> None:
        """Execute task bodies on the pool; each charges only its own
        ``task.io`` and thread-local counter shards.

        With the process backend, ``specs`` carries the picklable
        ``(stage, *payload)`` form of each task
        (:func:`repro.exec.procpool.run_task`); results, IOStats and
        full-registry metric deltas (counters, gauges, histograms --
        see :func:`repro.obs.metrics.registry_delta`) come back over
        the pool.  The per-task deltas are merged order-independently
        and folded into this process's registry in one application, so
        downstream merge code is backend-agnostic and histogram
        observations survive the process boundary.
        """
        if self.backend == "process":
            futures = [
                self._pool.submit(self._procpool.run_task, spec)
                for spec in specs
            ]
            deltas: list[dict] = []
            for task, future in zip(tasks, futures):
                out = future.result()
                task.result = out["result"]
                task.io = out["io"]
                task.seconds = out["seconds"]
                task.thread = out["worker"]
                task.extra = out["metrics"].get("counters", {}).get(
                    "hashtable.probe_pages_saved", 0
                )
                deltas.append(out["metrics"])
            metrics.apply_deltas(metrics.merge_registry_deltas(deltas))
            _PARALLEL_TASKS.inc(len(tasks))
            return

        def run(task: _Task, fn) -> None:
            t0 = time.perf_counter()
            task.result = fn(task)
            task.seconds = time.perf_counter() - t0
            task.thread = threading.current_thread().name

        futures = [
            self._pool.submit(run, task, fn) for task, fn in zip(tasks, fns)
        ]
        for future in futures:
            future.result()
        _PARALLEL_TASKS.inc(len(tasks))

    # -- public API --------------------------------------------------------

    def query_batch(
        self,
        queries: Sequence[Iterable],
        sigma_low: float,
        sigma_high: float,
        strategy: str = "index",
        explain: bool = False,
        verify_rows: Sequence[int] | None = None,
    ) -> BatchQueryResult:
        """Answer a batch over one shared range; see the module docstring
        for the equivalence guarantees.  Parameters and result semantics
        match :meth:`repro.core.index.SetSimilarityIndex.query_batch`.

        ``verify_rows`` (index strategy only; ignored by scan) limits
        the fetch/verify stage to the named query rows: other rows keep
        their full candidate sets but return no answers and charge no
        fetch I/O.  This is the shard router's verify mask -- sound
        only when the caller has proven the masked rows can hold no
        in-range answer on this snapshot, which is exactly what
        :class:`~repro.exec.route.ShardRouter` establishes per shard.
        """
        snap = self.snapshot
        cost = snap.cost
        if not 0.0 <= sigma_low <= sigma_high <= 1.0:
            raise ValueError(
                f"invalid similarity range [{sigma_low}, {sigma_high}]"
            )
        if strategy not in ("index", "scan", "auto"):
            raise ValueError(f"unknown strategy: {strategy!r}")
        if strategy == "auto":
            strategy = snap.choose_strategy(sigma_low, sigma_high)
        query_sets = [frozenset(q) for q in queries]
        n = len(query_sets)
        wall0 = time.perf_counter()
        hits_before = _CACHE_HITS.value
        all_tasks: list[_Task] = []
        with trace.capture(
            "query_batch",
            io=cost,
            force=explain,
            strategy=strategy,
            sigma_low=sigma_low,
            sigma_high=sigma_high,
            n_queries=n,
            workers=self.workers,
            backend=self.backend,
        ) as root:
            recording = root is not None
            before = cost.snapshot()
            if strategy == "scan":
                candidates_list, answers_list = self._scan_batch(
                    query_sets, sigma_low, sigma_high, all_tasks
                )
                fetches_saved = 0
                probe_pages_saved = 0
                verify_info = {}
            else:
                (candidates_list, answers_list, fetches_saved,
                 probe_pages_saved, verify_info) = self._index_batch(
                    query_sets, sigma_low, sigma_high, all_tasks, recording,
                    verify_rows,
                )
            delta = cost.snapshot() - before
            if strategy == "scan":
                # One shared collection pass instead of one per query.
                pages_saved = (delta.random_reads + delta.sequential_reads) * max(
                    0, n - 1
                )
            else:
                pages_saved = probe_pages_saved
            self._emit_worker_spans(all_tasks)
            exec_stats = {
                **self._exec_stats(all_tasks, strategy, wall0),
                **verify_info,
            }
            # Phase wall milliseconds: summed worker-task durations per
            # stage (fetch accounting happens on the parent inside the
            # verify merge, so the executor reports embed/probe/verify,
            # or scan).
            timings = {
                stage: seconds * 1e3
                for stage, seconds in exec_stats["stage_seconds"].items()
            }
            batch = assemble_batch(
                root, cost, delta, answers_list, candidates_list,
                pages_saved, fetches_saved, timings, exec_stats,
            )
        if self.record:
            record_batch(
                "query_batch",
                batch,
                wall0,
                cache_hits=_CACHE_HITS.value - hits_before,
                backend=self.backend,
                workers=self.workers,
                strategy=strategy,
                sigma_low=sigma_low,
                sigma_high=sigma_high,
            )
        _PARALLEL_BATCHES.inc()
        return batch

    def query_above_batch(
        self, queries: Sequence[Iterable], sigma: float, **kwargs
    ) -> BatchQueryResult:
        """Batched at-least-``sigma`` queries (cf. ``query_above_batch``)."""
        return self.query_batch(queries, sigma, 1.0, **kwargs)

    def query_below_batch(
        self, queries: Sequence[Iterable], sigma: float, **kwargs
    ) -> BatchQueryResult:
        """Batched at-most-``sigma`` queries (cf. ``query_below_batch``)."""
        return self.query_batch(queries, 0.0, sigma, **kwargs)

    # -- scan strategy -----------------------------------------------------

    def _scan_batch(
        self,
        query_sets: list[frozenset],
        sigma_low: float,
        sigma_high: float,
        all_tasks: list[_Task],
    ) -> tuple[list[set[int]], list[list[tuple[int, float]]]]:
        snap = self.snapshot
        n = len(query_sets)
        candidates_list: list[set[int]] = [set() for _ in range(n)]
        answers_list: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        chunks = _chunks(list(range(n)), self.workers * 4)
        tasks = [
            _Task("scan", f"scan[{chunk[0]}:{chunk[-1] + 1}]")
            for chunk in chunks
        ]

        def make(chunk):
            def body(task: _Task):
                return [
                    snap.scan_one(
                        query_sets[i], sigma_low, sigma_high, task.io
                    )
                    for i in chunk
                ]
            return body

        specs = None
        if self.backend == "process":
            specs = [
                ("scan", [query_sets[i] for i in chunk], sigma_low, sigma_high)
                for chunk in chunks
            ]
        self._run_tasks(tasks, [make(chunk) for chunk in chunks], specs)
        with trace.span(
            "scan_batch", n_pages=snap.scan_pages, n_queries=n
        ) as sp:
            # The one shared sequential pass over the heap, then each
            # worker's per-query CPU shards, merged deterministically.
            snap.cost.stats.sequential_reads += snap.scan_pages
            for task, chunk in zip(tasks, chunks):
                _apply(snap.cost, task.io)
                for i, (candidates, answers) in zip(chunk, task.result):
                    candidates_list[i] = candidates
                    answers_list[i] = answers
            sp.set(
                n_candidates=sum(len(c) for c in candidates_list),
                n_verified=sum(len(a) for a in answers_list),
            )
        all_tasks.extend(tasks)
        return candidates_list, answers_list

    # -- index strategy ----------------------------------------------------

    def _index_batch(
        self,
        query_sets: list[frozenset],
        sigma_low: float,
        sigma_high: float,
        all_tasks: list[_Task],
        recording: bool,
        verify_rows: Sequence[int] | None = None,
    ) -> tuple[list[set[int]], list[list[tuple[int, float]]], int, int, dict]:
        snap = self.snapshot
        n = len(query_sets)
        lo, up = snap.enclosing_points(sigma_low, sigma_high)
        plan, probes, pivot, rows = plan_batch(
            snap.plan.cut_points, snap.sfis, snap.dfis,
            query_sets, sigma_low, sigma_high,
        )
        matrix: np.ndarray | None = None
        with trace.span(
            "candidates_batch", lo=lo, up=up, n_queries=n
        ) as csp:
            probed: dict[tuple[str, float], list[set[int]]] = {}
            probe_pages_saved = 0
            if probes:
                matrix = self._embed_stage(query_sets, rows, all_tasks)
                probed, probe_pages_saved = self._probe_stage(
                    probes, matrix, len(rows), all_tasks, recording
                )
            candidates_list = snap.combine_candidates(
                plan, probed, probes, n, rows
            )
            if csp.recording:
                csp.set(
                    plan=plan,
                    n_candidates=sum(len(s) for s in candidates_list),
                    _rows=rows,
                )
                if pivot is not None:
                    csp.set(pivot=pivot)
        if verify_rows is None:
            vcands_list = candidates_list
        else:
            # The router's verify mask: masked rows keep their probe
            # candidates (reported unchanged) but skip fetch + exact
            # verification -- they provably hold no in-range answer.
            keep = set(verify_rows)
            vcands_list = [
                cands if i in keep else set()
                for i, cands in enumerate(candidates_list)
            ]
        answers_list, fetches_saved, verify_info = self._verify_stage(
            query_sets, vcands_list, sigma_low, sigma_high,
            matrix, rows, all_tasks, recording,
        )
        return (
            candidates_list, answers_list, fetches_saved, probe_pages_saved,
            verify_info,
        )

    def _embed_stage(
        self,
        query_sets: list[frozenset],
        rows: list[int],
        all_tasks: list[_Task],
    ) -> np.ndarray:
        """Vectorized embedding, sharded by query chunk.

        Embedding is a per-set pure function, so the chunk matrices
        concatenate to exactly the full-batch ``embed_many`` result.
        """
        snap = self.snapshot
        chunks = _chunks(rows, self.workers * 2)
        tasks = [
            _Task("embed", f"embed[{chunk[0]}:{chunk[-1] + 1}]")
            for chunk in chunks
        ]

        def make(chunk):
            def body(task: _Task):
                task.io.cpu_ops += snap.embedder.k * len(chunk)
                return snap.embedder.embed_many(
                    [query_sets[i] for i in chunk]
                )
            return body

        specs = None
        if self.backend == "process":
            specs = [
                ("embed", [query_sets[i] for i in chunk]) for chunk in chunks
            ]
        self._run_tasks(tasks, [make(chunk) for chunk in chunks], specs)
        with trace.span(
            "embed_batch", k=snap.embedder.k, n_queries=len(rows)
        ):
            for task in tasks:
                _apply(snap.cost, task.io)
        all_tasks.extend(tasks)
        return np.concatenate([task.result for task in tasks])

    def _probe_stage(
        self,
        probes: list[tuple[str, float]],
        matrix: np.ndarray,
        n_rows: int,
        all_tasks: list[_Task],
        recording: bool,
    ) -> tuple[dict[tuple[str, float], list[set[int]]], int]:
        """Probe every planned filter, one task per (filter, worker's
        contiguous range of its hash tables).

        Inside a task every table groups the whole batch's keys by
        bucket exactly as the sequential grouped probe does, so page
        charges and ``pages_saved`` cannot depend on the worker count.
        """
        snap = self.snapshot
        cmatrix: np.ndarray | None = None
        if any(kind == "dfi" for kind, _ in probes):
            # Theorem 2: DFI probes use the complemented queries;
            # complement once per batch, not once per table.
            cmatrix = complement(matrix, snap.n_bits)
        tasks: list[_Task] = []
        fns = []
        specs: list[tuple] | None = [] if self.backend == "process" else None
        by_key: dict[tuple[str, float], list[_Task]] = {}
        for key in probes:
            kind, point = key
            fp = snap.filter_probe(kind, point)
            probe_matrix = cmatrix if fp.complement_query else matrix
            for chunk in _chunks(range(fp.n_tables), self.workers):
                start, stop = chunk[0], chunk[-1] + 1
                task = _Task("probe", f"{kind}({point:.3f})[t{start}:{stop}]")
                tasks.append(task)
                by_key.setdefault(key, []).append(task)
                if specs is not None:
                    specs.append(
                        ("probe", kind, point, start, stop, probe_matrix)
                    )

                def body(task: _Task, fp=fp, start=start, stop=stop,
                         probe_matrix=probe_matrix):
                    saved_before = _PAGES_SAVED.local_value
                    got = fp.probe_tables(start, stop, probe_matrix, task.io)
                    task.extra = _PAGES_SAVED.local_value - saved_before
                    return got

                fns.append(body)
        self._run_tasks(tasks, fns, specs)
        # Deterministic merge: per filter, union each query's sids over
        # its tables (order-independent), sum page/CPU shards, and
        # record the same aggregate counters and probe span the live
        # batch probe records.
        probed: dict[tuple[str, float], list[set[int]]] = {}
        total_saved = 0
        for key in probes:
            kind, point = key
            fp = snap.filter_probe(kind, point)
            sids: list[set[int]] = [set() for _ in range(n_rows)]
            totals = 0
            merged_io = IOStats()
            saved = 0
            for task in by_key[key]:
                for per_row in task.result:
                    for j, got in enumerate(per_row):
                        totals += len(got)
                        sids[j].update(got)
                merged_io = merged_io + task.io
                saved += task.extra
            unique = sum(len(s) for s in sids)
            record_batch_probe_counters(kind, n_rows, unique, totals - unique)
            total_saved += saved
            probed[key] = sids
            with trace.span(
                f"{kind}_probe_batch",
                s_star=fp.threshold,
                sigma=fp.sigma_point,
                r=fp.r,
                l=fp.n_tables,
                n_queries=n_rows,
            ) as psp:
                _apply(snap.cost, merged_io)
                if psp.recording:
                    psp.set(
                        tables_probed=fp.n_tables,
                        candidates=unique,
                        pages_saved=saved,
                        _sids_per_query=sids,
                    )
                    if kind == "sfi":
                        psp.set(collisions=totals - unique)
        all_tasks.extend(tasks)
        return probed, total_saved

    def _verify_stage(
        self,
        query_sets: list[frozenset],
        candidates_list: list[set[int]],
        sigma_low: float,
        sigma_high: float,
        matrix: np.ndarray | None,
        rows: list[int],
        all_tasks: list[_Task],
        recording: bool,
    ) -> tuple[list[list[tuple[int, float]]], int, dict]:
        """Columnar exact verification, one contiguous query chunk per
        worker: candidates are shared inside a chunk only, so smaller
        chunks would forfeit the sharing ``verify_batch`` lives on."""
        snap = self.snapshot
        n = len(query_sets)
        n_pairs = sum(len(c) for c in candidates_list)
        distinct = (
            sorted(set().union(*candidates_list)) if candidates_list else []
        )
        fetches_saved = n_pairs - len(distinct)
        chunks = _chunks(list(range(n)), self.workers)
        tasks = [
            _Task("verify", f"verify[{chunk[0]}:{chunk[-1] + 1}]")
            for chunk in chunks
        ]

        def make(chunk):
            def body(task: _Task):
                return snap.verify_batch(
                    [query_sets[i] for i in chunk],
                    [candidates_list[i] for i in chunk],
                    sigma_low, sigma_high, task.io,
                )
            return body

        specs = None
        if self.backend == "process":
            specs = [
                (
                    "verify",
                    [query_sets[i] for i in chunk],
                    [candidates_list[i] for i in chunk],
                    sigma_low,
                    sigma_high,
                )
                for chunk in chunks
            ]
        self._run_tasks(tasks, [make(chunk) for chunk in chunks], specs)
        answers_list: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        with trace.span(
            "verify_batch", n_queries=n, n_pairs=n_pairs
        ) as sp:
            fetch_io = IOStats()
            snap.charge_fetches(distinct, fetch_io)
            _apply(snap.cost, fetch_io)
            for task, chunk in zip(tasks, chunks):
                _apply(snap.cost, task.io)
                for i, answers in zip(chunk, task.result[0]):
                    answers_list[i] = answers
            info = merge_verify_info([task.result[1] for task in tasks])
            # Chunks share candidates: the batch's distinct count is not
            # the sum of theirs.
            info["distinct"] = len(distinct)
            n_verified = sum(len(a) for a in answers_list)
            if sp.recording:
                sp.set(
                    n_candidates=len(distinct),
                    n_verified=n_verified,
                    false_positives=n_pairs - n_verified,
                    fetches_saved=fetches_saved,
                    est_in_range=snap.estimate_in_range(
                        candidates_list, matrix, rows, sigma_low, sigma_high
                    ),
                    **info,
                )
        all_tasks.extend(tasks)
        return answers_list, fetches_saved, info

    # -- observability -----------------------------------------------------

    def _emit_worker_spans(self, all_tasks: list[_Task]) -> None:
        """Per-worker spans plus the shard-merge summary (EXPLAIN)."""
        with trace.span(
            "parallel_exec", workers=self.workers, backend=self.backend,
            n_tasks=len(all_tasks),
        ) as sp:
            if not sp.recording:
                return
            by_thread: dict[str, list[_Task]] = {}
            for task in all_tasks:
                by_thread.setdefault(task.thread, []).append(task)
            for name in sorted(by_thread):
                tasks = by_thread[name]
                with trace.span(
                    "worker",
                    thread=name,
                    n_tasks=len(tasks),
                    busy_ms=round(sum(t.seconds for t in tasks) * 1e3, 3),
                    stages=sorted({t.stage for t in tasks}),
                ):
                    pass
            merged = IOStats()
            for task in all_tasks:
                merged = merged + task.io
            with trace.span(
                "shard_merge",
                shards=len(all_tasks),
                sequential_reads=merged.sequential_reads,
                random_reads=merged.random_reads,
                cpu_ops=merged.cpu_ops,
            ):
                pass

    def _exec_stats(
        self, all_tasks: list[_Task], strategy: str, wall0: float
    ) -> dict:
        stage_seconds: dict[str, float] = {}
        for task in all_tasks:
            stage_seconds[task.stage] = (
                stage_seconds.get(task.stage, 0.0) + task.seconds
            )
        return {
            "workers": self.workers,
            "backend": self.backend,
            "strategy": strategy,
            "wall_seconds": time.perf_counter() - wall0,
            "stage_seconds": stage_seconds,
            "tasks": [
                {
                    "stage": task.stage,
                    "label": task.label,
                    "thread": task.thread,
                    "seconds": task.seconds,
                }
                for task in all_tasks
            ],
        }

    def __repr__(self) -> str:
        return (
            f"ParallelExecutor(workers={self.workers}, "
            f"backend={self.backend!r}, snapshot={self.snapshot!r})"
        )
