"""The query pipeline's task bodies, and the worker-process side of the
``backend="process"`` scheduler.

A task is its picklable ``(stage, *payload)`` spec.  The three stage
bodies below are the only task bodies in ``src/``: each takes the view
it runs against (:mod:`repro.exec.pipeline` lists the operations a view
offers) and a private :class:`~repro.storage.iomodel.IOStats` to charge,
and :func:`run_task` is the one runner that brackets a task the same
way for both schedulers -- inline on the calling thread, or in a
worker process.

Every function here is a plain module-level callable so the pool's
``spawn`` start method (the only one that is safe on every platform
and under threads) can pickle references to it.  Each worker process
initializes once by mapping every snapshot directory its pool serves
(:func:`worker_init`: one for a ``ParallelExecutor``, every shard for
a shard fleet, so any worker serves any shard); because
:func:`repro.exec.snapfile.open_snapshot` is O(ms) and ``np.memmap``
pages are shared between processes, adding a worker costs an
interpreter start, not an index copy.  A worker runs a shipped spec
against the named snapshot through :func:`run_remote`, which adds the
one thing a process boundary hides: the task's **full-registry metrics
delta**.
Workers are single-threaded, so a before/after snapshot of the registry
(:func:`repro.obs.metrics.registry_values`) brackets exactly this
task's movements -- counters, gauges, fixed-bucket *and* HDR
histograms; the parent folds the delta into its own registry
(:func:`repro.obs.metrics.apply_deltas`), making process totals
indistinguishable from in-process totals for every instrument kind.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro.exec.columnar import csr_slice
from repro.obs import metrics
from repro.storage.iomodel import IOStats

_PAGES_SAVED = metrics.counter("hashtable.probe_pages_saved")

#: The worker's mapped snapshots by directory, filled once per process
#: by ``worker_init``.
_SNAPS: dict[str, object] = {}


def worker_init(paths: list[str]) -> None:
    """Pool initializer: map every snapshot this worker will serve."""
    from repro.exec.snapfile import open_snapshot

    for path in paths:
        _SNAPS[path] = open_snapshot(path)


def _probe(view, io, kind, point, start, stop, matrix):
    """``(candidate CSR, hit total)`` of tables ``start .. stop - 1`` of
    one planned filter (``matrix`` pre-complemented for a DFI)."""
    return view.filter_probe(kind, point).probe_tables(start, stop, matrix, io)


def _verify(view, io, query_sets, candidates, sigma_low, sigma_high,
            query_hashes):
    """``(answers_list, info)`` of a chunk of the batch (``candidates``
    is the chunk's candidate CSR, ``query_hashes`` its queries' hash
    CSR); candidates are shared inside a chunk only."""
    return view.verify_batch(
        query_sets, candidates, sigma_low, sigma_high, io, query_hashes
    )


def _scan(view, io, query_sets, sigma_low, sigma_high, query_hashes):
    """Each query's answers against the whole collection (CPU charges
    only; the one shared page pass is the view's ``fetch(None, io)``,
    charged once by the stage), from the chunk's query hash CSR."""
    universe = view.sid_array
    everything = (np.array([0, len(universe)], dtype=np.int64), universe)
    indptr, data, collided = query_hashes
    return [
        view.verify_batch(
            [query_set], everything, sigma_low, sigma_high, io,
            (*csr_slice((indptr, data), q, q + 1), collided[q:q + 1]),
        )[0][0]
        for q, query_set in enumerate(query_sets)
    ]


_STAGES = {"probe": _probe, "verify": _verify, "scan": _scan}


class Task:
    """One executed task: its stage result plus what the merge needs --
    the charges it made (``io``), its wall ``seconds``, the bucket pages
    its grouped probes saved and the worker that ran it."""

    __slots__ = ("stage", "label", "result", "io", "seconds", "worker",
                 "pages_saved")


def run_task(view, spec: tuple) -> Task:
    """Run one ``(stage, *payload)`` spec against ``view``.

    The body charges a fresh :class:`IOStats` and the calling thread's
    counter cells only, so a merge of task results is independent of
    scheduling order.  (A live view's pager additionally charges its
    reads straight to the view's cost model; those tasks only ever run
    inline.)
    """
    task = Task()
    task.stage, task.label = spec[0], ""
    task.io = IOStats()
    saved_before = _PAGES_SAVED.local_value
    t0 = time.perf_counter()
    task.result = _STAGES[spec[0]](view, task.io, *spec[1:])
    task.seconds = time.perf_counter() - t0
    task.pages_saved = _PAGES_SAVED.local_value - saved_before
    task.worker = threading.current_thread().name
    return task


def run_remote(path: str, spec: tuple) -> tuple[Task, dict]:
    """:func:`run_task` in a worker process, against its mapped
    snapshot of ``path``: the task and its full-registry metrics delta."""
    before = metrics.registry_values()
    task = run_task(_SNAPS[path], spec)
    task.worker = f"pid-{os.getpid()}"
    return task, metrics.registry_delta(before, metrics.registry_values())
