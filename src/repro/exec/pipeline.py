"""The query pipeline, once: staged, over a view, on a scheduler.

The paper has one query algorithm (Section 4.3): enclose the range with
cut points, probe the SFI/DFI structures placed there, difference/union
the probe results, then fetch and verify every candidate exactly.
:func:`run_batch` is that algorithm for a batch of queries --

    validate, resolve ``auto`` -> root span + I/O bracket ->
    ``plan_batch`` -> embed -> probe each planned filter -> combine ->
    verify mask -> fetch -> verify (or: scan) -> assemble -> record

-- and every execution path is a choice of two arguments.

**The view** is where the data lives.  Two classes implement it because
the storage genuinely differs, and nothing above these operations does:

- ``cost`` (the :class:`~repro.storage.iomodel.IOCostModel` a batch
  charges), ``embedder``, ``plan``, ``planner``, ``n_bits``,
  ``sfis`` / ``dfis`` and ``filter_probe(kind, point)`` -- each filter
  answering ``probe_tables(start, stop, matrix, io)`` -- ``sid_array``
  (every stored sid, ascending), ``scan_pages``;
- ``fetch(sids, io)``: charge reading the sets of the given ascending
  sid array (``None``: the whole heap, sequentially);
- ``verify_batch(query_sets, candidates, lo, hi, io, query_hashes)``:
  exact verification over the view's per-set hash rows, which reads a
  set's elements only on the exact fallback paths;
- ``codes_of(sids)``, the stored signature codes of the given sids,
  for the traced ``est_in_range`` aggregate.

Both views *account* each fetch into the ``io`` they are handed, from
the set store's page rule (a snapshot froze it into arrays; the live
view applies it to the sizes in its hash arena).

**The scheduler** is where a stage's tasks run: ``workers``,
``backend``, ``run(view, specs)`` and ``report(tasks, strategy,
wall0)``.  A task is a picklable ``(stage, *payload)`` spec whose body
lives in :mod:`repro.exec.procpool`.  There are two places to run
them: on the calling thread (:class:`Inline` for the live index, and
:class:`~repro.exec.parallel.WorkerPool` on its ``thread`` backend),
or in a ``spawn`` process pool (``WorkerPool`` on its ``process``
backend).  :class:`~repro.exec.parallel.ParallelExecutor` is a
``WorkerPool`` bound to one snapshot; a shard fleet runs every shard's
view on one.  Each stage runs its tasks *inside* its span and folds
their private charges into ``view.cost`` there, so a span's I/O delta
is exact whether a charge was accounted by a task or made by the live
pager mid-task.

A batch's queries are hashed once, on the calling thread
(:func:`prepare_batch`): the embed stage makes each query's sorted
element-hash row (:func:`repro.core.minhash.hash_rows`) and signs, codes
and packs it from those hashes; verify and scan tasks read the same rows,
and a shard fleet hands every shard the one batch it prepared
(:class:`Prepared`).

A batch's candidates are one CSR over its query rows from probe to
result (:func:`repro.exec.columnar.pairs_csr`: each row's sids ascending
and unique): probes return one, the plan algebra combines them, verify
chunks slice it, and :class:`~repro.core.index.QueryResult` rows are
views into it.

Work is split so that results cannot depend on the worker count: probe
tasks take contiguous ranges of one filter's tables (a bucket's chain
is read once per table for the whole batch), verify and scan tasks take
contiguous query chunks (candidates are shared inside a verify chunk
only, so one chunk per worker), and every merge is an integer sum or a
positional concatenation.
"""

from __future__ import annotations

import logging
import time
from typing import Iterable, Sequence

import numpy as np

from repro.core.filter_index import record_batch_probe_counters
from repro.core.index import BatchQueryResult, assemble_batch, record_batch
from repro.core.minhash import hash_rows
from repro.core.query_plan import (
    combine_candidates,
    enclosing_points,
    estimate_in_range,
    plan_batch,
)
from repro.exec.columnar import (
    csr_from_counts,
    csr_rows,
    csr_slice,
    merge_verify_info,
    pairs_csr,
    sorted_unique,
)
from repro.exec.procpool import Task, run_task
from repro.hamming.bitvector import complement
from repro.obs import trace
from repro.storage.iomodel import IOStats

logger = logging.getLogger(__name__)


class Inline:
    """The live index's scheduler: tasks run on the calling thread."""

    workers = 1
    backend = "thread"

    @staticmethod
    def run(view, specs: list[tuple]) -> list[Task]:
        return [run_task(view, spec) for spec in specs]

    @staticmethod
    def report(tasks: list[Task], strategy: str, wall0: float) -> None:
        """No executor-side detail: ``exec_stats`` stays None."""


class Prepared:
    """A batch's query side, computed once: every query's sorted
    element-hash row (``hashes``, the :func:`~repro.core.minhash.hash_rows`
    CSR ``(indptr, data, collided)`` over all the batch's queries), and
    the signature codes of its non-empty queries, in batch order
    (``codes``), with their packed embedding (``matrix``, what the
    probes key on) -- both None when the batch was not embedded.

    Signatures, exact-verify rows and routing bits all come from the one
    hash pass.  Every shard of a fleet shares ``k``, ``b``, seed and
    codec, so one ``Prepared`` serves all of them.
    """

    __slots__ = ("hashes", "codes", "matrix")

    def __init__(self, hashes, codes, matrix):
        self.hashes = hashes
        self.codes = codes
        self.matrix = matrix

    def chunk(self, start: int, stop: int):
        """The hash CSR of queries ``start .. stop - 1``."""
        indptr, data, collided = self.hashes
        return (*csr_slice((indptr, data), start, stop), collided[start:stop])


def prepare_batch(embedder, query_sets: Sequence[frozenset],
                  embed: bool = True) -> Prepared:
    """Hash a batch's queries once and (``embed``) sign, code and pack
    the non-empty ones from those hashes."""
    indptr, data, collided = hash_rows(query_sets)
    codes = matrix = None
    if embed:
        starts = indptr[:-1][np.diff(indptr) > 0]
        codes = embedder.code_hashes(np.append(starts, indptr[-1]), data)
        matrix = embedder.encode(codes)
    return Prepared((indptr, data, collided), codes, matrix)


def stage_seconds(tasks: list[Task]) -> dict[str, float]:
    """Summed task wall seconds per stage."""
    seconds: dict[str, float] = {}
    for task in tasks:
        seconds[task.stage] = seconds.get(task.stage, 0.0) + task.seconds
    return seconds


def _ranges(n: int, pieces: int) -> list[tuple[int, int]]:
    """At most ``pieces`` contiguous, near-equal ``(start, stop)``
    ranges covering ``range(n)``."""
    pieces = max(1, min(pieces, n))
    bounds = [n * p // pieces for p in range(pieces + 1)]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def _apply(cost, io: IOStats) -> None:
    """Fold privately accumulated charges into the view's cost model."""
    stats = cost.stats
    stats.sequential_reads += io.sequential_reads
    stats.random_reads += io.random_reads
    stats.page_writes += io.page_writes
    stats.cpu_ops += io.cpu_ops


def _run(view, sched, tasks: list[Task], labelled: list[tuple]) -> list[Task]:
    """Run one stage's ``(label, spec)`` tasks and fold their charges
    into ``view.cost`` -- called inside the stage's span."""
    done = sched.run(view, [spec for _, spec in labelled])
    for task, (label, _) in zip(done, labelled):
        task.label = label
        _apply(view.cost, task.io)
    tasks.extend(done)
    return done


def _fetch(view, sids: np.ndarray | None) -> float:
    """The view's fetch on the calling thread; returns its wall ms."""
    t0 = time.perf_counter()
    io = IOStats()
    view.fetch(sids, io)
    _apply(view.cost, io)
    return (time.perf_counter() - t0) * 1e3


def run_batch(
    view,
    sched,
    kind: str,
    queries: Sequence[Iterable],
    sigma_low: float,
    sigma_high: float,
    strategy: str = "index",
    explain: bool = False,
    verify_rows: Sequence[int] | None = None,
    record: bool = True,
    prepared: Prepared | None = None,
) -> BatchQueryResult:
    """Answer a batch over one shared range; see the module docstring.

    ``kind`` names the root span and the telemetry event (``"query"``
    for the one-row batch behind ``index.query()``); ``verify_rows`` is
    the shard router's verify mask (see
    :meth:`~repro.exec.parallel.ParallelExecutor.query_batch`).
    ``record=False`` skips the query-level telemetry (the ``query.*``
    aggregate counters and the ``record_query`` event):
    :class:`~repro.exec.shard.ShardedExecutor` runs this once per shard
    and emits one merged record, so a sharded batch counts each query
    once.  Work-level counters (probe pages, hashtable and
    ``exec.parallel_*`` counters) always record -- they meter real
    work, which sharding genuinely multiplies.  ``prepared`` is the
    batch already hashed and embedded (:func:`prepare_batch`, with
    ``embed`` unless ``strategy="scan"``): the fleet prepares a batch
    once for all its shards, and each shard is still charged its embed
    CPU, as a stand-alone index would be.  Without it the batch
    prepares itself, once, on the calling thread.
    """
    if not 0.0 <= sigma_low <= sigma_high <= 1.0:
        raise ValueError(
            f"invalid similarity range [{sigma_low}, {sigma_high}]"
        )
    if strategy not in ("index", "scan", "auto"):
        raise ValueError(f"unknown strategy: {strategy!r}")
    if strategy == "auto":
        strategy = view.planner.choose(sigma_low, sigma_high)
    query_sets = [frozenset(q) for q in queries]
    n = len(query_sets)
    cost = view.cost
    wall0 = time.perf_counter()
    tasks: list[Task] = []
    with trace.capture(
        kind,
        io=cost,
        force=explain,
        strategy=strategy,
        sigma_low=sigma_low,
        sigma_high=sigma_high,
        n_queries=n,
        workers=sched.workers,
        backend=sched.backend,
    ) as root:
        before = cost.snapshot()
        if strategy == "scan":
            candidates, answers_list, local_ms = _scan_stage(
                view, sched, tasks, query_sets, sigma_low, sigma_high,
                prepared,
            )
            fetches_saved, verify_info = 0, {}
            timings = {
                "scan": local_ms + stage_seconds(tasks).get("scan", 0.0) * 1e3
            }
        else:
            candidates, prepared, rows, pages_saved, embed_ms = (
                _candidates_stage(
                    view, sched, tasks, query_sets, sigma_low, sigma_high,
                    prepared,
                )
            )
            answers_list, fetches_saved, verify_info, fetch_ms = _verify_stage(
                view, sched, tasks, query_sets, candidates, verify_rows,
                sigma_low, sigma_high, prepared, rows,
            )
            timings = dict.fromkeys(("embed", "probe", "fetch", "verify"), 0.0)
            timings.update(
                (stage, seconds * 1e3)
                for stage, seconds in stage_seconds(tasks).items()
            )
            timings["embed"] = embed_ms
            timings["fetch"] = fetch_ms
        delta = cost.snapshot() - before
        if strategy == "scan":
            # One shared collection pass instead of one per query.
            pages_saved = (delta.random_reads + delta.sequential_reads) * max(
                0, n - 1
            )
        exec_stats = sched.report(tasks, strategy, wall0)
        if exec_stats is not None:
            exec_stats.update(verify_info)
            if strategy != "scan":
                exec_stats["stage_seconds"]["embed"] = embed_ms / 1e3
        batch = assemble_batch(
            root, cost, delta, answers_list, candidates,
            pages_saved, fetches_saved, timings, exec_stats,
        )
    if record:
        record_batch(
            kind,
            batch,
            wall0,
            backend=sched.backend,
            workers=sched.workers,
            strategy=strategy,
            sigma_low=sigma_low,
            sigma_high=sigma_high,
        )
    logger.debug(
        "%s [%.3f, %.3f] strategy=%s: %d queries, %d answers / "
        "%d candidates, %d bucket pages + %d fetches saved, "
        "simulated time %.1f",
        kind, sigma_low, sigma_high, strategy, batch.n_queries,
        batch.n_verified, batch.n_candidates,
        batch.pages_saved, batch.fetches_saved, batch.total_time,
    )
    return batch


def _scan_stage(view, sched, tasks, query_sets, sigma_low, sigma_high,
                prepared):
    """Exact evaluation: one sequential pass over the heap serves every
    query; each is then verified against the whole collection."""
    n = len(query_sets)
    with trace.span("scan_batch", n_pages=view.scan_pages, n_queries=n) as sp:
        local_ms = _fetch(view, None)
        if prepared is None:
            t0 = time.perf_counter()
            prepared = prepare_batch(view.embedder, query_sets, embed=False)
            local_ms += (time.perf_counter() - t0) * 1e3
        done = _run(view, sched, tasks, [
            (f"scan[{a}:{b}]", (
                "scan", query_sets[a:b], sigma_low, sigma_high,
                prepared.chunk(a, b),
            ))
            for a, b in _ranges(n, sched.workers)
        ])
        answers_list = [answers for task in done for answers in task.result]
        universe = view.sid_array
        candidates = (
            np.arange(n + 1, dtype=np.int64) * len(universe),
            np.tile(universe, n),
        )
        sp.set(
            n_candidates=len(candidates[1]),
            n_verified=sum(len(a) for a in answers_list),
        )
    return candidates, answers_list, local_ms


def _candidates_stage(view, sched, tasks, query_sets, sigma_low, sigma_high,
                      prepared):
    """The batch's candidate CSR under the range's Section 4.3 plan.

    Also returns the prepared batch (:class:`Prepared`; not embedded
    when the plan probes nothing and none was given), the batch
    positions its matrix rows correspond to (for the ``est_in_range``
    aggregate and trace annotation), the bucket pages the grouped probes
    saved and the embed stage's wall ms.  The embed stage hashes each
    query once and signs and packs the non-empty ones from those hashes;
    verify reads the same hash rows.
    """
    n = len(query_sets)
    cut_points = view.plan.cut_points
    lo, up = enclosing_points(cut_points, sigma_low, sigma_high)
    plan, probes, pivot, rows = plan_batch(
        cut_points, view.sfis, view.dfis, query_sets, sigma_low, sigma_high
    )
    pages_saved, embed_ms = 0, 0.0
    with trace.span("candidates_batch", lo=lo, up=up, n_queries=n) as sp:
        probed: dict[tuple[str, float], tuple[np.ndarray, np.ndarray]] = {}
        if probes:
            with trace.span(
                "embed_batch", k=view.embedder.k, n_queries=len(rows)
            ):
                t0 = time.perf_counter()
                if prepared is None:
                    prepared = prepare_batch(view.embedder, query_sets)
                _apply(view.cost, IOStats(cpu_ops=view.embedder.k * len(rows)))
                embed_ms = (time.perf_counter() - t0) * 1e3
            matrix = prepared.matrix
            # Theorem 2: DFI probes use the complemented queries;
            # complement once per batch, not once per filter.
            cmatrix: np.ndarray | None = None
            for kind, point in probes:
                if kind == "dfi" and cmatrix is None:
                    cmatrix = complement(matrix, view.n_bits)
                probed[kind, point], saved = probe_filter(
                    view, sched, tasks, kind, point,
                    cmatrix if kind == "dfi" else matrix,
                )
                pages_saved += saved
        elif prepared is None:
            prepared = prepare_batch(view.embedder, query_sets, embed=False)
        candidates = combine_candidates(
            plan, probed, probes, n, rows, lambda: view.sid_array
        )
        if sp.recording:
            sp.set(plan=plan, n_candidates=len(candidates[1]), _rows=rows)
            if pivot is not None:
                sp.set(pivot=pivot)
    return candidates, prepared, rows, pages_saved, embed_ms


def probe_filter(
    view, sched, tasks: list[Task], kind: str, point: float | None,
    matrix: np.ndarray,
) -> tuple[tuple[np.ndarray, np.ndarray], int]:
    """The probe stage for one planned filter: its ``{kind}_probe_batch``
    span, one task per worker's contiguous range of its hash tables, the
    per-row union of their hits and the ``sfi.*`` / ``dfi.*`` counters.

    ``matrix`` holds the complemented queries for a DFI.  Returns the
    candidate CSR over the matrix rows and the bucket pages the grouped
    reads saved.
    Inside a task every table groups the whole batch's fingerprints by
    bucket, so page charges and ``pages_saved`` cannot depend on the
    worker count.
    """
    fp = view.filter_probe(kind, point)
    n_rows = matrix.shape[0]
    with trace.span(
        f"{kind}_probe_batch",
        s_star=fp.threshold,
        sigma=fp.sigma_point,
        r=fp.r,
        l=fp.n_tables,
        n_queries=n_rows,
    ) as sp:
        done = _run(view, sched, tasks, [
            (
                f"{kind}({point})[t{start}:{stop}]",
                ("probe", kind, point, start, stop, matrix),
            )
            for start, stop in _ranges(fp.n_tables, sched.workers)
        ])
        csr, hits = done[0].result
        if len(done) > 1:
            parts = [task.result[0] for task in done]
            hits = sum(task.result[1] for task in done)
            csr = pairs_csr(
                np.concatenate([csr_rows(indptr) for indptr, _ in parts]),
                np.concatenate([sids for _, sids in parts]),
                n_rows,
            )
        unique = len(csr[1])
        record_batch_probe_counters(kind, n_rows, unique, hits - unique)
        saved = sum(task.pages_saved for task in done)
        if sp.recording:
            sp.set(
                tables_probed=fp.n_tables,
                candidates=unique,
                pages_saved=saved,
                _probe_csr=csr,
            )
            if kind == "sfi":
                sp.set(collisions=hits - unique)
    return csr, saved


def _verify_stage(
    view, sched, tasks, query_sets, candidates, verify_rows,
    sigma_low, sigma_high, prepared, rows,
):
    """Fetch each distinct candidate once and verify all pairs exactly
    (:func:`repro.exec.columnar.verify_batch` per worker chunk of the
    candidate CSR, over the prepared hash rows)."""
    n = len(query_sets)
    if verify_rows is not None:
        # The router's verify mask: masked rows keep their probe
        # candidates (reported unchanged) but skip fetch + exact
        # verification -- they provably hold no in-range answer.
        indptr, sids = candidates
        keep = np.zeros(n, dtype=bool)
        keep[list(verify_rows)] = True
        candidates = (
            csr_from_counts(np.where(keep, np.diff(indptr), 0)),
            sids[keep[csr_rows(indptr)]],
        )
    n_pairs = len(candidates[1])
    with trace.span("verify_batch", n_queries=n, n_pairs=n_pairs) as sp:
        distinct = sorted_unique(candidates[1])
        fetches_saved = n_pairs - len(distinct)
        fetch_ms = _fetch(view, distinct)
        done = _run(view, sched, tasks, [
            (
                f"verify[{a}:{b}]",
                ("verify", query_sets[a:b], csr_slice(candidates, a, b),
                 sigma_low, sigma_high, prepared.chunk(a, b)),
            )
            for a, b in _ranges(n, sched.workers)
        ])
        answers_list = [
            answers for task in done for answers in task.result[0]
        ]
        info = merge_verify_info([task.result[1] for task in done])
        # Chunks share candidates: the batch's distinct count is not
        # the sum of theirs.
        info["distinct"] = len(distinct)
        if sp.recording:
            n_verified = sum(len(a) for a in answers_list)
            sp.set(
                n_candidates=len(distinct),
                n_verified=n_verified,
                false_positives=n_pairs - n_verified,
                fetches_saved=fetches_saved,
                est_in_range=estimate_in_range(
                    view.embedder, candidates, prepared.codes, rows,
                    view.codes_of, sigma_low, sigma_high,
                ),
                **info,
            )
    return answers_list, fetches_saved, info, fetch_ms
