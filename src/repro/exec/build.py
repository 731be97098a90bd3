"""Bulk index construction: plan every table, then apply in order.

Loading a filter index is one unit of work per (filter, hash table):
extract the table's keys from the embedded corpus matrix, fingerprint
them, and lay the entries out page by page.  All of that is pure CPU
over arrays (:meth:`~repro.storage.hashtable.BucketHashTable.plan_bulk_load`
touches no pages), so the plan phase is one loop over the units on the
calling thread; the pager replay
(:meth:`~repro.storage.hashtable.BucketHashTable.apply_bulk_load`) then
runs in a fixed filter-major, table-major order -- the exact order the
sequential per-insert build walks the tables.

Determinism: planning touches no pager, every pager touch happens in
the apply phase, and page ids come out of the plans'
sequential-equivalent allocation schedules.  Consequently
``bulk_load_filters`` produces chains, page contents, directories and
I/O accounting bit-identical to the per-entry insert loop.  The report
carries each unit's plan time and the wall of both phases.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from repro.core.filter_index import DissimilarityFilterIndex
from repro.exec.columnar import sorted_unique
from repro.obs import metrics, trace
from repro.storage.hashtable import UnresolvedTailError, hash_words

_BUILD_UNITS = metrics.counter("build.units")
_BUILD_ENTRIES = metrics.counter("build.entries")
#: Units whose plan needed a re-plan in the apply phase because a
#: target bucket's tail-page fill state was unknown at plan time.
_BUILD_REPLANS = metrics.counter("build.tail_replans")


class BuildUnit:
    """One (filter, table) slice of a bulk build.

    Carries the unit through both phases: the plan phase fills
    ``plan`` (or, when the table has buckets with unread tails, leaves
    the raw ``fingerprints`` for a re-plan), the apply phase fills
    ``report``.
    """

    __slots__ = ("label", "sampler", "table", "plan", "fingerprints",
                 "seconds", "report")

    def __init__(self, label: str, sampler, table):
        self.label = label
        self.sampler = sampler
        self.table = table
        self.plan = None
        self.fingerprints = None
        self.seconds = 0.0
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


def _plan_unit(unit: BuildUnit, matrix: np.ndarray, sids: Sequence[int]) -> None:
    """Plan-phase body: keys -> fingerprints -> page-layout plan.
    Touches no pages."""
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


@contextmanager
def gc_suspended():
    """Suspend cyclic GC for a bulk load: nearly every object it
    allocates (page entry tuples, directory lists, stored sets) is still
    live when it finishes, so mid-load collections only re-scan a
    growing heap for garbage that is not there."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def bulk_load_filters(filters, matrix: np.ndarray, sids: Sequence[int]) -> dict:
    """Load every filter's hash tables from one embedded corpus matrix.

    Equivalent -- chains, page ids and contents, directories, counter
    and I/O-accounting totals -- to inserting every row into every
    table one entry at a time (filter-major, table-major).  Returns the
    build report: totals, per-unit plan timings and the wall of the
    plan and apply phases.
    """
    units = build_units(filters)
    with trace.span("filter_build", n_units=len(units), n_sets=len(sids)) as sp:
        with gc_suspended():
            plan_wall0 = time.perf_counter()
            for unit in units:
                _plan_unit(unit, matrix, sids)
            plan_wall = time.perf_counter() - plan_wall0
            # Apply phase: in unit order, so pager allocations
            # interleave across tables exactly as the per-insert path's.
            apply_wall0 = time.perf_counter()
            entries = new_pages = tail_reads = replans = 0
            for unit in units:
                if unit.plan is None:
                    fps = unit.fingerprints
                    touched = sorted_unique(
                        fps % np.uint64(unit.table.n_buckets)
                    ).astype(np.int64)
                    tail_reads += unit.table.resolve_tails(touched.tolist())
                    unit.plan = unit.table.plan_bulk_load(fps, sids)
                    replans += 1
                unit.report = unit.table.apply_bulk_load(unit.plan)
                entries += unit.report["entries"]
                new_pages += unit.report["new_pages"]
            apply_wall = time.perf_counter() - apply_wall0
        _BUILD_UNITS.inc(len(units))
        _BUILD_ENTRIES.inc(entries)
        if replans:
            _BUILD_REPLANS.inc(replans)
        if sp.recording:
            sp.set(entries=entries, new_pages=new_pages, tail_reads=tail_reads)
        return {
            "n_units": len(units),
            "entries": entries,
            "new_pages": new_pages,
            "tail_reads": tail_reads,
            "tail_replans": replans,
            "plan_wall_seconds": round(plan_wall, 6),
            "apply_wall_seconds": round(apply_wall, 6),
            "units": [
                {
                    "label": unit.label,
                    "entries": unit.report["entries"],
                    "new_pages": unit.report["new_pages"],
                    "plan_seconds": round(unit.seconds, 6),
                }
                for unit in units
            ],
        }
