"""Worker-process side of the ``backend="process"`` executor.

Every function here is a plain module-level callable so the pool's
``spawn`` start method (the only one that is safe on every platform
and under threads) can pickle references to it.  Each worker process
initializes once by mapping the shared snapshot directory
(:func:`worker_init`); because :func:`repro.exec.snapfile.open_snapshot`
is O(ms) and ``np.memmap`` pages are shared between processes, adding
a worker costs an interpreter start, not an index copy.

A task arrives as a ``spec`` tuple -- ``(stage, *payload)`` -- runs the
same per-task body the thread backend runs, and returns everything the
parent needs to merge deterministically:

- the stage result (a table range's per-table probe sid lists /
  embedding matrix / answers plus the verify kernel's ``info``);
- the task's private :class:`~repro.storage.iomodel.IOStats`;
- the task's **full-registry metrics delta**.  Workers are
  single-threaded, so a before/after snapshot of the registry
  (:func:`repro.obs.metrics.registry_values`) brackets exactly this
  task's movements -- counters, gauges, fixed-bucket *and* HDR
  histograms; the parent folds the delta into its own registry
  (:func:`repro.obs.metrics.apply_deltas`), making process totals
  indistinguishable from thread-backend totals for every instrument
  kind.
"""

from __future__ import annotations

import os
import time

from repro.obs import metrics
from repro.storage.iomodel import IOStats

#: The worker's mapped snapshot, set once per process by ``worker_init``.
_SNAP = None


def worker_init(path: str) -> None:
    """Pool initializer: map the snapshot this worker will serve."""
    global _SNAP
    from repro.exec.snapfile import open_snapshot

    _SNAP = open_snapshot(path)


def _embed(snap, io, query_sets):
    io.cpu_ops += snap.embedder.k * len(query_sets)
    return snap.embedder.embed_many(query_sets)


def _probe(snap, io, kind, point, start, stop, matrix):
    return snap.filter_probe(kind, point).probe_tables(start, stop, matrix, io)


def _verify(snap, io, query_sets, candidates_list, sigma_low, sigma_high):
    return snap.verify_batch(
        query_sets, candidates_list, sigma_low, sigma_high, io
    )


def _scan(snap, io, items, sigma_low, sigma_high):
    return [
        snap.scan_one(query_set, sigma_low, sigma_high, io)
        for query_set in items
    ]


_STAGES = {"embed": _embed, "probe": _probe, "verify": _verify, "scan": _scan}


def run_task(spec: tuple) -> dict:
    """Execute one sharded task; see the module docstring for the
    returned merge payload."""
    stage = spec[0]
    io = IOStats()
    before = metrics.registry_values()
    t0 = time.perf_counter()
    result = _STAGES[stage](_SNAP, io, *spec[1:])
    seconds = time.perf_counter() - t0
    return {
        "result": result,
        "io": io,
        "seconds": seconds,
        "worker": f"pid-{os.getpid()}",
        "metrics": metrics.registry_delta(before, metrics.registry_values()),
    }
