"""The executors' scheduler -- the calling thread or a process pool --
and the executor that binds it to one frozen index snapshot.

:class:`WorkerPool` is one of the pipeline's two schedulers.  On the
``thread`` backend (the default) a stage's tasks -- filter probe (by
range of one filter's hash tables), exact verify or scan (by query
chunk) -- run inline on the calling thread, exactly
as the live index runs them, and no pool exists whatever ``workers``
says: the scheduler reports ``workers=1``, so task splits,
``exec_stats``, events and EXPLAIN describe what ran.  On the
``process`` backend they go to a ``spawn``-based pool of ``workers``
processes.  It holds no snapshot -- ``run(view, specs)`` is told which
view a stage runs against -- so one scheduler serves every shard of a
fleet (:class:`~repro.exec.shard.ShardedExecutor` owns exactly one).
:class:`ParallelExecutor` is the one-snapshot case: a scheduler plus
the :class:`~repro.exec.snapshot.IndexSnapshot` it serves
``query_batch`` from, by running the one staged pipeline
(:func:`repro.exec.pipeline.run_batch`) with itself as the scheduler.

Determinism is the design center, not an afterthought:

- every task charges simulated I/O into its **own**
  :class:`~repro.storage.iomodel.IOStats`.  Merges are integer sums, so
  totals are independent of scheduling order;
- the pipeline splits work so that results cannot depend on the worker
  count (see its module docstring), and assembles results by position.

Consequently ``ParallelExecutor(snapshot, workers=w).query_batch(...)``
returns answers, candidates, page counts and CPU accounting
bit-identical to ``index.query_batch(...)`` for every ``w`` -- they are
the same function over two views.

``backend="process"`` runs tasks in worker processes over **saved**
snapshots (:mod:`repro.exec.snapfile`): each worker maps the pool's
snapshot directories once (O(ms), pages shared between processes) and
runs the shipped ``(path, spec)`` tasks through the same bodies
(:mod:`repro.exec.procpool`), returning each task with its
module-counter deltas.  All merge logic runs on the parent, so the
bit-identical guarantee -- answers, page counts, CPU accounting,
``pages_saved``, counter totals -- holds across backends at any worker
count; only the wall clock changes, because worker processes dodge the
GIL on the pure-Python probe/verify loops.

Where a process pool ran, the trace additionally carries per-worker
spans and a shard-merge summary under ``parallel_exec``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Sequence

from repro.core.index import BatchQueryResult
from repro.exec import procpool
from repro.exec.pipeline import Inline, run_batch, stage_seconds
from repro.obs import metrics, trace
from repro.storage.iomodel import IOStats

_PARALLEL_BATCHES = metrics.counter("exec.parallel_batches")
_PARALLEL_TASKS = metrics.counter("exec.parallel_tasks")


class WorkerPool:
    """The pipeline's executor scheduler: ``workers``, ``backend``,
    ``run(view, specs)``, ``report(tasks, strategy, wall0)``.

    Parameters
    ----------
    workers:
        Process-pool size.  Any value >= 1 produces bit-identical
        results and accounting; it only changes wall clock.  The thread
        backend has no pool, so there it is accepted and ignored, and
        :attr:`workers` reads 1.
    backend:
        ``"thread"`` (default): every task runs on the calling thread.
        ``"process"``: a ``spawn`` pool of ``workers`` processes
        (genuine multi-core execution of the pure-Python probe and
        verify loops).
    paths:
        Process backend only: the saved snapshot directories the
        workers map at start-up -- every view later handed to
        :meth:`run` must be one of them, opened by path.

    Usable as a context manager; :meth:`close` shuts the pool down.
    """

    def __init__(self, workers: int = 1, backend: str = "thread",
                 paths: Sequence = ()):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend not in ("thread", "process"):
            raise ValueError(f"unknown backend: {backend!r}")
        self._pool = None
        if backend == "process":
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=procpool.worker_init,
                initargs=([str(path) for path in paths],),
            )
        else:
            workers = 1
        self.workers = workers
        self.backend = backend

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- the pipeline's scheduler ----------------------------------------

    def run(self, view, specs: list[tuple]) -> list[procpool.Task]:
        """Execute one stage's task specs (see
        :func:`repro.exec.procpool.run_task`).

        The process backend ships each spec and gets the task back with
        its full-registry metric delta (counters, gauges, histograms --
        see :func:`repro.obs.metrics.registry_delta`); the deltas are
        merged order-independently and folded into this process's
        registry in one application, so the pipeline's merges are
        backend-agnostic and histogram observations survive the process
        boundary.
        """
        if self._pool is None:
            tasks = Inline.run(view, specs)
        else:
            futures = [
                self._pool.submit(procpool.run_remote, str(view.path), spec)
                for spec in specs
            ]
            tasks, deltas = [], []
            for future in futures:
                task, delta = future.result()
                tasks.append(task)
                deltas.append(delta)
            metrics.apply_deltas(metrics.merge_registry_deltas(deltas))
        _PARALLEL_TASKS.inc(len(tasks))
        return tasks

    def report(
        self, tasks: list[procpool.Task], strategy: str, wall0: float
    ) -> dict:
        """The batch's ``exec_stats`` (called once a batch, so it also
        counts ``exec.parallel_batches``); where a process pool ran, also
        the per-worker spans and the shard-merge summary (EXPLAIN)."""
        _PARALLEL_BATCHES.inc()
        if self._pool is not None:
            self._emit_worker_spans(tasks)
        return {
            "workers": self.workers,
            "backend": self.backend,
            "strategy": strategy,
            "wall_seconds": time.perf_counter() - wall0,
            "stage_seconds": stage_seconds(tasks),
            "tasks": [
                {
                    "stage": task.stage,
                    "label": task.label,
                    "thread": task.worker,
                    "seconds": task.seconds,
                }
                for task in tasks
            ],
        }

    # -- observability -----------------------------------------------------

    def _emit_worker_spans(self, all_tasks: list[procpool.Task]) -> None:
        with trace.span(
            "parallel_exec", workers=self.workers, backend=self.backend,
            n_tasks=len(all_tasks),
        ) as sp:
            if not sp.recording:
                return
            by_worker: dict[str, list[procpool.Task]] = {}
            for task in all_tasks:
                by_worker.setdefault(task.worker, []).append(task)
            for name in sorted(by_worker):
                tasks = by_worker[name]
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


class ParallelExecutor(WorkerPool):
    """Serves ``query_batch`` from one snapshot: a :class:`WorkerPool`
    bound to the view it schedules for.

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
    workers, backend:
        The scheduler; see :class:`WorkerPool`.
    """

    def __init__(self, snapshot, workers: int = 1, backend: str = "thread"):
        paths = ()
        if backend == "process":
            from repro.exec.snapfile import MappedSnapshot, open_snapshot

            if isinstance(snapshot, (str, os.PathLike)):
                snapshot = open_snapshot(snapshot)
            if not isinstance(snapshot, MappedSnapshot):
                raise ValueError(
                    "backend='process' needs a saved snapshot: "
                    "index.save(dir), then pass "
                    "open_snapshot(dir) or the directory path"
                )
            paths = (snapshot.path,)
        super().__init__(workers, backend, paths)
        self.snapshot = snapshot

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
        return run_batch(
            self.snapshot, self, "query_batch", queries, sigma_low,
            sigma_high, strategy, explain, verify_rows,
        )

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

    def __repr__(self) -> str:
        return (
            f"ParallelExecutor(workers={self.workers}, "
            f"backend={self.backend!r}, snapshot={self.snapshot!r})"
        )
