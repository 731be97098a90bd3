"""Bulk index construction: parallel planning, deterministic apply.

The build-side counterpart of :mod:`repro.exec.parallel`.  Loading a
filter index is one independent unit of work per (filter, hash table):
extract the table's keys from the embedded corpus matrix, fingerprint
them, and lay the entries out page by page.  All of that is pure CPU
over arrays (:meth:`~repro.storage.hashtable.BucketHashTable.plan_bulk_load`
touches no pages), so the units fan out over a thread pool; the pager
replay (:meth:`~repro.storage.hashtable.BucketHashTable.apply_bulk_load`)
then runs on the calling thread in a fixed filter-major, table-major
order -- the exact order the sequential per-insert build walks the
tables.

Determinism follows the PR-3 playbook: worker tasks mutate nothing
shared (counter updates go to per-thread shards), every pager touch
happens in the sequential apply phase, and page ids come out of the
plans' sequential-equivalent allocation schedules.  Consequently
``bulk_load_filters(..., workers=w)`` produces chains, page contents,
directories and I/O accounting bit-identical to the per-entry insert
loop for every ``w``.

Wall-clock parallel speedup is *modeled*, not promised: a unit's plan
is numpy kernels (bit extraction, splitmix64 word mixing, argsort)
which release the GIL for large corpora but interleave with Python
glue at small ones, so the report carries per-unit plan times plus an
LPT-packed makespan (:func:`lpt_makespan`) -- what a ``workers``-wide
pool delivers where the kernels overlap.
"""

from __future__ import annotations

import gc
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from repro.core.filter_index import DissimilarityFilterIndex
from repro.obs import metrics, trace
from repro.storage.hashtable import UnresolvedTailError, hash_words

_BUILD_UNITS = metrics.counter("build.units")
_BUILD_ENTRIES = metrics.counter("build.entries")
#: Units whose plan needed a sequential re-plan because a target
#: bucket's tail-page fill state was unknown at fan-out time.
_BUILD_REPLANS = metrics.counter("build.tail_replans")


class BuildUnit:
    """One (filter, table) slice of a bulk build.

    Carries the unit through both phases: the worker fills ``plan``
    (or, when the table has buckets with unread tails, leaves the raw
    ``fingerprints`` for a sequential re-plan), the apply phase fills
    ``report``.
    """

    __slots__ = ("label", "sampler", "table", "plan", "fingerprints",
                 "seconds", "thread", "report")

    def __init__(self, label: str, sampler, table):
        self.label = label
        self.sampler = sampler
        self.table = table
        self.plan = None
        self.fingerprints = None
        self.seconds = 0.0
        self.thread = ""
        self.report = None


def build_units(filters) -> list[BuildUnit]:
    """Flatten filters into their independent (sampler, table) units.

    Order is load-bearing: filter-major, table-major is the order the
    sequential per-insert build touches the pager, and the apply phase
    replays plans in exactly this order so page ids match.
    """
    units: list[BuildUnit] = []
    for fi in filters:
        kind = "dfi" if isinstance(fi, DissimilarityFilterIndex) else "sfi"
        point = fi.sigma_point
        tag = f"{kind}({point:.3f})" if point is not None else kind
        for t, (sampler, table) in enumerate(fi.table_units()):
            units.append(BuildUnit(f"{tag}[t{t}]", sampler, table))
    return units


def lpt_makespan(task_seconds: Sequence[float], workers: int) -> float:
    """Longest-processing-time-first packing of tasks onto lanes.

    Same model as the query-side bench: the makespan a ``workers``-wide
    pool achieves on these task durations where the kernels overlap.
    """
    if not task_seconds or workers <= 1:
        return sum(task_seconds)
    lanes = [0.0] * workers
    for seconds in sorted(task_seconds, reverse=True):
        lanes[lanes.index(min(lanes))] += seconds
    return max(lanes)


def _plan_unit(unit: BuildUnit, matrix: np.ndarray, sids: Sequence[int]) -> None:
    """Phase-1 body: keys -> fingerprints -> page-layout plan.

    Runs on a worker thread; touches no pages and nothing shared (the
    key-extraction counter uses the calling thread's shard).
    """
    t0 = time.perf_counter()
    sampler = unit.sampler
    fps = hash_words(sampler.key_words(matrix), sampler.key_bytes)
    try:
        unit.plan = unit.table.plan_bulk_load(fps, sids)
    except UnresolvedTailError:
        # A target bucket's tail is unread (e.g. the table saw deletes
        # since its last write); keep the fingerprints and re-plan in
        # the apply phase, after the charged tail reads.
        unit.fingerprints = fps
    unit.seconds = time.perf_counter() - t0
    unit.thread = threading.current_thread().name


def bulk_load_filters(
    filters, matrix: np.ndarray, sids: Sequence[int], workers: int = 1
) -> dict:
    """Load every filter's hash tables from one embedded corpus matrix.

    Equivalent -- chains, page ids and contents, directories, counter
    and I/O-accounting totals -- to inserting every row into every
    table one entry at a time (filter-major, table-major), at any
    ``workers`` value; only wall clock changes.  Returns the
    build report: totals, per-unit plan timings, and the LPT-modeled
    plan-phase makespan at the given worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    units = build_units(filters)
    with trace.span(
        "filter_build", n_units=len(units), n_sets=len(sids), workers=workers
    ) as sp:
        # Nearly every object a bulk load allocates (page entry tuples,
        # directory lists) is still live when the load finishes, so the
        # generational collector's mid-load passes only re-scan a
        # growing heap for garbage that is not there.  Suspend cyclic
        # GC for the load; the normal schedule resumes afterwards.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            plan_wall0 = time.perf_counter()
            if workers > 1 and len(units) > 1:
                with ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-build"
                ) as pool:
                    futures = [
                        pool.submit(_plan_unit, unit, matrix, sids)
                        for unit in units
                    ]
                    for future in futures:
                        future.result()
            else:
                for unit in units:
                    _plan_unit(unit, matrix, sids)
            plan_wall = time.perf_counter() - plan_wall0
            # Apply phase: sequential, in unit order, so pager
            # allocations interleave across tables exactly as the
            # per-insert path's.
            apply_wall0 = time.perf_counter()
            entries = new_pages = tail_reads = replans = 0
            for unit in units:
                if unit.plan is None:
                    fps = unit.fingerprints
                    touched = np.unique(
                        fps % np.uint64(unit.table.n_buckets)
                    ).astype(np.int64)
                    tail_reads += unit.table.resolve_tails(touched.tolist())
                    unit.plan = unit.table.plan_bulk_load(fps, sids)
                    replans += 1
                unit.report = unit.table.apply_bulk_load(unit.plan)
                entries += unit.report["entries"]
                new_pages += unit.report["new_pages"]
            apply_wall = time.perf_counter() - apply_wall0
        finally:
            if gc_was_enabled:
                gc.enable()
        _BUILD_UNITS.inc(len(units))
        _BUILD_ENTRIES.inc(entries)
        if replans:
            _BUILD_REPLANS.inc(replans)
        unit_seconds = [unit.seconds for unit in units]
        report = {
            "workers": workers,
            "n_units": len(units),
            "entries": entries,
            "new_pages": new_pages,
            "tail_reads": tail_reads,
            "tail_replans": replans,
            "plan_wall_seconds": round(plan_wall, 6),
            "plan_busy_seconds": round(sum(unit_seconds), 6),
            "apply_wall_seconds": round(apply_wall, 6),
            "modeled_plan_makespan": round(
                lpt_makespan(unit_seconds, workers), 6
            ),
            "units": [
                {
                    "label": unit.label,
                    "entries": unit.report["entries"],
                    "new_pages": unit.report["new_pages"],
                    "plan_seconds": round(unit.seconds, 6),
                    "thread": unit.thread,
                }
                for unit in units
            ],
        }
        if sp.recording:
            sp.set(
                entries=entries,
                new_pages=new_pages,
                tail_reads=tail_reads,
                plan_busy_seconds=report["plan_busy_seconds"],
                modeled_plan_makespan=report["modeled_plan_makespan"],
            )
        return report
