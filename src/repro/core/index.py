"""The tunable set-similarity index (Sections 3-5, end to end).

``SetSimilarityIndex`` is the system the paper evaluates: it
preprocesses a set collection into Hamming embeddings, plans filter
placement and budget allocation with the Section 5 optimizer, builds
the planned SFI/DFI structures over simulated disk pages, and answers
similarity range queries with the Section 4.3 candidate plans followed
by exact verification against sets fetched through the B-tree.

The query algorithm itself is :func:`repro.exec.pipeline.run_batch`,
one staged function shared with the snapshot executors; ``query()`` and
``query_batch()`` run it over a view of the live index (``_LiveView``)
on the calling thread.  This module also holds the batch epilogue every
execution path ends with (:func:`assemble_batch`, :func:`record_batch`).

Dynamic maintenance (insert/delete of whole sets) is supported, as the
paper claims for the hash-based primitives.
"""

from __future__ import annotations

import gc
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.distribution import SimilarityDistribution
from repro.core.embedding import SetEmbedder
from repro.core.filter_index import FilterIndex
from repro.core.minhash import hash_rows
from repro.core.optimizer import SFI, IndexPlan, greedy_allocate, plan_index
from repro.obs import events, metrics, trace
from repro.obs.explain import probe_spans
from repro.obs.trace import Span
from repro.storage.iomodel import IOCostModel, IOStats
from repro.storage.pager import PageManager
from repro.storage.setstore import SetStore

logger = logging.getLogger(__name__)


@contextmanager
def gc_suspended():
    """Suspend cyclic GC for a bulk load: nearly every object it
    allocates (page entry tuples, stored sets) is still
    live when it finishes, so mid-load collections only re-scan a
    growing heap for garbage that is not there."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


_QUERIES = metrics.counter("query.count")
_QUERY_CANDIDATES = metrics.counter("query.candidates")
_QUERY_VERIFIED = metrics.counter("query.verified_hits")
_QUERY_FALSE_POSITIVES = metrics.counter("query.false_positives")
_CANDIDATES_PER_QUERY = metrics.hdr("query.candidates_per_query")
_QUERY_BATCHES = metrics.counter("query.batches")
_BATCH_SIZE = metrics.hdr("query.batch_size")
_BATCH_FETCHES_SAVED = metrics.counter("query.batch_fetches_saved")


class FrozenIndexError(RuntimeError):
    """Mutation of a frozen index, or a freeze the index cannot honor.

    A :meth:`SetSimilarityIndex.freeze` snapshot shares the index's
    stacked filter bases and stored sets by reference; any
    insert/delete while a snapshot is live would silently corrupt it,
    so mutation raises this instead.  Call
    :meth:`SetSimilarityIndex.thaw` first.
    """


@dataclass
class QueryResult:
    """Outcome of one similarity range query.

    ``answers`` contains exactly the sets whose true similarity lies in
    the requested range among the retrieved candidates (verification is
    exact, so there are no false positives; filter false negatives may
    be missing).  ``candidates`` is the sid set the filters produced
    before verification -- its size is what the paper's precision
    metric measures against.  The query paths store it as the query's
    row of the batch's candidate CSR (an ascending sid array, also
    readable as :attr:`candidate_sids`) and build the ``set`` only when
    ``candidates`` is read; a caller may pass a set instead.

    ``n_candidates`` / ``n_verified`` carry those counts directly
    (derived automatically when not given, so existing construction
    sites keep working), and ``trace`` holds the root
    :class:`~repro.obs.trace.Span` when the query ran with tracing
    (``explain=True`` or an enclosing ``trace.capture``).

    ``timings`` maps pipeline phases (``embed`` / ``probe`` / ``fetch``
    / ``verify``, or ``scan``) to measured wall milliseconds.  It is
    host-dependent observability, not part of the answer: like
    ``trace`` it is excluded from equality, so bit-identical result
    comparisons across backends and worker counts are unaffected.
    """

    answers: list[tuple[int, float]]
    candidates: set[int]
    io: IOStats
    io_time: float
    cpu_time: float
    n_candidates: int = -1
    n_verified: int = -1
    trace: Span | None = field(default=None, repr=False, compare=False)
    timings: dict[str, float] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n_candidates < 0:
            self.n_candidates = len(self._candidates)
        if self.n_verified < 0:
            self.n_verified = len(self.answers)

    @property
    def candidate_sids(self) -> np.ndarray:
        """The candidate sids as an ascending int64 array."""
        got = self._candidates
        if isinstance(got, np.ndarray):
            return got
        return np.array(sorted(got), dtype=np.int64)

    @property
    def total_time(self) -> float:
        """Simulated response time: I/O plus CPU."""
        return self.io_time + self.cpu_time

    @property
    def answer_sids(self) -> set[int]:
        """The answer set identifiers (without similarities)."""
        return {sid for sid, _ in self.answers}


def _candidates_set(self: QueryResult) -> set[int]:
    got = self._candidates
    if isinstance(got, np.ndarray):
        got = self._candidates = set(got.tolist())
    return got


def _store_candidates(self: QueryResult, candidates) -> None:
    self._candidates = candidates


# ``candidates`` stays a dataclass field (constructor argument, equality,
# repr), read through a property so a CSR row becomes a set on first read.
QueryResult.candidates = property(
    _candidates_set, _store_candidates,
    doc="The candidate sid set (built from the CSR row when first read).",
)


@dataclass
class BatchQueryResult:
    """Outcome of one batched similarity range query.

    ``results[i]`` answers ``queries[i]`` with exactly the answers and
    candidates a standalone :meth:`SetSimilarityIndex.query` would have
    produced.  I/O is a *batch-level* quantity: grouped probes and
    deduplicated candidate fetches share page reads across queries, so
    per-query attribution would be arbitrary -- the inner results carry
    zeroed I/O fields and the real totals live here.

    ``pages_saved`` counts bucket pages the grouped probes did not read
    (versus looping :meth:`~SetSimilarityIndex.query`); ``fetches_saved``
    counts candidate fetches avoided because a candidate was shared by
    several queries of the batch.  ``candidate_csr`` is the batch's
    candidate CSR (``(indptr, sids)``, one row per query, see
    :func:`repro.exec.columnar.pairs_csr`) that the rows' ``candidates``
    are views of, when the batch came from the query pipeline.
    """

    results: list[QueryResult]
    io: IOStats
    io_time: float
    cpu_time: float
    pages_saved: int = 0
    fetches_saved: int = 0
    trace: Span | None = field(default=None, repr=False, compare=False)
    #: Executor-side timing detail (per-stage task durations, worker
    #: count) when the batch ran through a
    #: :class:`~repro.exec.parallel.ParallelExecutor`; None otherwise.
    #: Wall-clock only -- excluded from equality like ``trace``.
    exec_stats: dict | None = field(default=None, repr=False, compare=False)
    #: Batch-level phase wall milliseconds (``embed`` / ``probe`` /
    #: ``fetch`` / ``verify``, or ``scan``); same contract as
    #: :attr:`QueryResult.timings`.
    timings: dict[str, float] = field(
        default_factory=dict, repr=False, compare=False
    )
    candidate_csr: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n_queries(self) -> int:
        return len(self.results)

    @property
    def total_time(self) -> float:
        """Simulated response time of the whole batch: I/O plus CPU."""
        return self.io_time + self.cpu_time

    @property
    def n_candidates(self) -> int:
        """Candidate count summed over the batch."""
        return sum(r.n_candidates for r in self.results)

    @property
    def n_verified(self) -> int:
        """Verified answer count summed over the batch."""
        return sum(r.n_verified for r in self.results)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, i: int) -> QueryResult:
        return self.results[i]

    def only(self) -> QueryResult:
        """The result of a one-row batch -- what ``query()`` returns.

        With a single row there is nothing to attribute, so the row
        carries the batch's I/O, costs, timings and trace.
        """
        (result,) = self.results
        result.io, result.io_time, result.cpu_time = (
            self.io, self.io_time, self.cpu_time
        )
        result.trace, result.timings = self.trace, self.timings
        return result


def assemble_batch(
    root: Span | None,
    cost: IOCostModel,
    delta: IOStats,
    answers_list: list[list[tuple[int, float]]],
    candidates: tuple[np.ndarray, np.ndarray],
    pages_saved: int,
    fetches_saved: int,
    timings: dict[str, float],
    exec_stats: dict | None = None,
) -> BatchQueryResult:
    """Batch epilogue, result half: the :class:`BatchQueryResult` of one
    executed batch (``candidates`` its candidate CSR; each row's
    ``candidates`` is a view of it), and -- when it ran traced -- the
    totals on the root span plus, per filter probe, how many of the
    (query, candidate) pairs it contributed passed that query's exact
    verification."""
    from repro.exec.columnar import csr_rows, csr_split, row_keys

    batch = BatchQueryResult(
        results=[
            QueryResult(
                answers=answers,
                candidates=row,
                io=IOStats(),
                io_time=0.0,
                cpu_time=0.0,
            )
            for answers, row in zip(answers_list, csr_split(*candidates))
        ],
        io=delta,
        io_time=cost.io_time(delta),
        cpu_time=cost.cpu_time(delta),
        pages_saved=pages_saved,
        fetches_saved=fetches_saved,
        trace=root,
        exec_stats=exec_stats,
        timings=timings,
        candidate_csr=candidates,
    )
    if root is None:
        return batch
    root.set(
        n_candidates=batch.n_candidates,
        n_verified=batch.n_verified,
        io_time=batch.io_time,
        cpu_time=batch.cpu_time,
        total_time=batch.total_time,
        pages_saved=pages_saved,
        fetches_saved=fetches_saved,
    )
    if timings:
        root.set(timings={
            phase: round(ms, 3) for phase, ms in timings.items()
        })
    # (batch row, sid) of every answer, as keys a probe's hits are
    # looked up in; both sides sort as ``row * span + sid``.
    answer_rows = np.repeat(
        np.arange(len(answers_list), dtype=np.int64),
        [len(answers) for answers in answers_list],
    )
    answer_sids = np.fromiter(
        (sid for answers in answers_list for sid, _ in answers),
        dtype=np.int64, count=len(answer_rows),
    )
    for cspan in root.find("candidates_batch"):
        rows = cspan.attrs.get("_rows")
        if rows is None:
            continue
        for span in probe_spans(cspan):
            probe = span.attrs.get("_probe_csr")
            if probe is None:
                continue
            indptr, sids = probe
            width = 1 + max(
                int(sids.max(initial=0)), int(answer_sids.max(initial=0))
            )
            hit_rows = np.asarray(rows, dtype=np.int64)[csr_rows(indptr)]
            n_rows = len(answers_list)
            span.set(survived=int(np.isin(
                row_keys(hit_rows, sids, n_rows, width),
                row_keys(answer_rows, answer_sids, n_rows, width),
            ).sum()))
    return batch


def record_batch(
    kind: str,
    batch: BatchQueryResult,
    wall0: float,
    *,
    backend: str,
    workers: int,
    strategy: str,
    sigma_low: float,
    sigma_high: float,
    timings: dict[str, float] | None = None,
) -> None:
    """Batch epilogue, telemetry half: the one ``record_query`` event
    and the ``query.*`` aggregates of one executed batch, on every
    execution path.  ``kind="query"`` is the one-row batch behind
    ``query()``: it counts in ``query.count`` like any row but is not a
    batch in ``query.batches`` / ``query.batch_size``.
    """
    events.record_query(
        kind,
        latency_ms=(time.perf_counter() - wall0) * 1e3,
        sim_time=batch.total_time,
        n_queries=batch.n_queries,
        n_candidates=batch.n_candidates,
        n_verified=batch.n_verified,
        pages_read=batch.io.random_reads + batch.io.sequential_reads,
        backend=backend,
        workers=workers,
        strategy=strategy,
        sigma_low=sigma_low,
        sigma_high=sigma_high,
        timings=batch.timings if timings is None else timings,
    )
    if kind != "query":
        _QUERY_BATCHES.inc()
        _BATCH_SIZE.observe(batch.n_queries)
        _BATCH_FETCHES_SAVED.inc(batch.fetches_saved)
    _QUERIES.inc(batch.n_queries)
    _QUERY_CANDIDATES.inc(batch.n_candidates)
    _QUERY_VERIFIED.inc(batch.n_verified)
    _QUERY_FALSE_POSITIVES.inc(batch.n_candidates - batch.n_verified)
    for result in batch.results:
        _CANDIDATES_PER_QUERY.observe(result.n_candidates)


class _LiveView:
    """The query pipeline's view of a live index, for one batch.

    :mod:`repro.exec.pipeline` lists the operations; here they run over
    the mutable structures themselves -- each filter's
    :class:`~repro.storage.hashtable.LiveTables` (a stacked base probed
    by the kernel a snapshot probes, plus the delta of sets inserted
    since its last compaction, minus the tombstones of sets deleted
    from it; reads charged from the live chain lengths), the per-sid
    codes, and the hash arena (plus collision fallback set) that insert
    and delete keep current, which verify gathers from as a snapshot
    gathers from its CSR.  A fetch charges
    the set store's page rule, exactly what reading the sets through
    the store costs; a set is read (uncharged) only when exact
    verification needs its elements.
    """

    def __init__(self, index: "SetSimilarityIndex"):
        self.index = index
        self.cost = index.io
        self.embedder = index.embedder
        self.plan = index.plan
        self.n_bits = index.embedder.dimension
        self.sfis, self.dfis = index._sfis, index._dfis
        self.scan_pages = index.store.n_pages

    @property
    def planner(self):
        return self.index.planner()

    @property
    def sid_array(self) -> np.ndarray:
        """Every stored sid, ascending."""
        codes = self.index._codes
        return np.sort(np.fromiter(codes, dtype=np.int64, count=len(codes)))

    def filter_probe(self, kind: str, point: float):
        return (self.sfis if kind == "sfi" else self.dfis)[point]

    def fetch(self, sids, io: IOStats) -> None:
        """Charge reading the given sets (a sequence or array of sids;
        ``None``: the whole heap, sequentially): one random read plus
        ``span - 1`` sequential reads per set."""
        if sids is None:
            io.sequential_reads += self.scan_pages
        elif len(sids):
            spans = self.index.store.set_pages(self.index._hashes.size[sids])
            io.random_reads += len(sids)
            io.sequential_reads += int(spans.sum()) - len(sids)

    def verify_batch(self, query_sets, candidates, sigma_low, sigma_high, io,
                     query_hashes):
        """:func:`repro.exec.columnar.verify_batch` of a candidate CSR
        over the hash arena."""
        from repro.exec.columnar import stored_rows, verify_batch

        index, arena = self.index, self.index._hashes
        return verify_batch(
            query_sets, candidates, sigma_low, sigma_high, io,
            **stored_rows(arena.start, arena.data, arena.size, lens=arena.lens),
            fallback_sids=index._cfallback,
            get_set=index.store.peek,
            query_hashes=query_hashes,
        )

    def codes_of(self, sids: np.ndarray) -> np.ndarray:
        codes = self.index._codes
        return np.stack([codes[sid] for sid in sids.tolist()])


class SetSimilarityIndex:
    """Approximate index for Jaccard-similarity range queries over sets.

    Build with :meth:`build`; query with :meth:`query` /
    :meth:`query_above` / :meth:`query_below`.

    Parameters of :meth:`build`
    ---------------------------
    sets:
        The collection to index.
    budget:
        Total number of hash tables the optimizer may spend (the
        paper's space constraint; its experiments use 500 and 1000).
    recall_target:
        Expected worst-case recall floor ``T`` for the construction
        algorithm.
    k, b:
        Min-hash signature length and bits of precision per value
        (embedding dimensionality is ``2**b * k``).
    sample_pairs:
        If given, estimate the similarity distribution from this many
        sampled pairs (Lemma 1) instead of all pairs.
    """

    def __init__(
        self,
        embedder: SetEmbedder,
        plan: IndexPlan,
        distribution: SimilarityDistribution,
        pager: PageManager,
        store: SetStore,
    ):
        from repro.exec.columnar import HashArena

        self.embedder = embedder
        self.plan = plan
        self.distribution = distribution
        self.pager = pager
        self.io = pager.io
        self.store = store
        #: Per sid its ``(k,)`` signature codes; the packed vector a
        #: filter keys on is derived from them (``embedder.encode``).
        self._codes: dict[int, np.ndarray] = {}
        # Columnar verification state: per sid the size and sorted
        # uint64 element-hash array, plus the sids whose array is
        # unusable because two distinct elements collided (exact
        # fallback).
        self._hashes = HashArena()
        self._cfallback: set[int] = set()
        self._sfis: dict[float, FilterIndex] = {}
        self._dfis: dict[float, FilterIndex] = {}
        self._planner = None
        self._frozen = None

    #: Report of the bulk build that materialized this index (phase
    #: timings and the filter load's totals; see :meth:`from_plan`).
    build_report: dict | None = None
    #: Root build span when the index was built under tracing
    #: (``explain=True`` or an enclosing ``trace.capture``); not
    #: saved by :meth:`save`.
    build_trace = None

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        sets: Sequence[Iterable],
        budget: int = 500,
        recall_target: float = 0.9,
        k: int = 100,
        b: int = 6,
        seed: int = 0,
        sample_pairs: int | None = None,
        n_bins: int = 100,
        max_intervals: int | None = None,
        io: IOCostModel | None = None,
        allocator=greedy_allocate,
        max_per_filter: int | None = None,
        explain: bool = False,
        codec: str = "full64",
    ) -> "SetSimilarityIndex":
        from repro.core.codec import parse_codec

        spec = parse_codec(codec)
        sets = [frozenset(s) for s in sets]
        logger.info(
            "building index: %d sets, budget=%d, recall_target=%.2f, k=%d, b=%d, codec=%s",
            len(sets), budget, recall_target, k, b, spec.name,
        )
        io = io if io is not None else IOCostModel()
        with trace.capture(
            "build", io=io, force=explain, n_sets=len(sets)
        ) as root:
            t0 = time.perf_counter()
            with trace.span(
                "estimate_distribution",
                n_bins=n_bins,
                sample_pairs=sample_pairs,
            ):
                dist = SimilarityDistribution.from_sets(
                    sets, n_bins=n_bins, sample_pairs=sample_pairs, seed=seed
                )
            dist_seconds = time.perf_counter() - t0
            t0 = time.perf_counter()
            with trace.span("plan_index", budget=budget):
                # The error curves keep the Hadamard collision bias.
                plan = plan_index(
                    dist,
                    budget,
                    recall_target=recall_target,
                    b=b,
                    max_intervals=max_intervals,
                    allocator=allocator,
                    max_per_filter=max_per_filter,
                )
            plan_seconds = time.perf_counter() - t0
            logger.info(
                "planned %d intervals over %d tables (expected recall %.3f)",
                plan.n_intervals, plan.tables_used, plan.expected_recall,
            )
            index = cls.from_plan(
                sets, plan, dist, k=k, b=b, seed=seed, io=io, codec=codec,
            )
        index.build_report["phases"] = {
            "estimate_distribution_seconds": round(dist_seconds, 6),
            "plan_index_seconds": round(plan_seconds, 6),
            **index.build_report["phases"],
        }
        if root is not None:
            index.build_trace = root
        return index

    @classmethod
    def from_plan(
        cls,
        sets: Sequence[Iterable],
        plan: IndexPlan,
        distribution: SimilarityDistribution,
        k: int = 100,
        b: int = 6,
        seed: int = 0,
        io: IOCostModel | None = None,
        explain: bool = False,
        codec: str = "full64",
    ) -> "SetSimilarityIndex":
        """Materialize an index from an explicit plan.

        Used by ablation experiments that bypass or modify the Fig. 4
        optimizer (e.g. SFI-only placement, uniform allocation).

        Every filter is loaded by one
        :meth:`~repro.core.filter_index.FilterIndex.insert_many`
        call, filter-major and table-major -- the order the per-insert
        path walks the tables, so chains, page ids and I/O accounting
        are bit-identical to inserting every set one by one -- and each
        filter's stacked base is built from its tables' fingerprints.
        The load's totals and wall time are attached as
        :attr:`build_report`.
        """
        from repro.exec.columnar import HashArena

        sets = [frozenset(s) for s in sets]
        io = io if io is not None else IOCostModel()
        pager = PageManager(io)
        store = SetStore(pager)
        embedder = SetEmbedder(k=k, b=b, seed=seed, codec=codec)
        index = cls(embedder, plan, distribution, pager, store)
        with trace.capture(
            "build_index", io=io, force=explain, n_sets=len(sets)
        ) as root:
            index._materialize_filters(
                expected_entries=max(1, len(sets)), seed=seed
            )
            t0 = time.perf_counter()
            with trace.span("store_load", n_sets=len(sets)):
                sids = store.insert_many(sets)
            store_seconds = time.perf_counter() - t0
            filter_report = None
            embed_seconds = 0.0
            if sets:
                t0 = time.perf_counter()
                with trace.span("embed_corpus", k=k, n_sets=len(sets)):
                    # One hash pass: the codes and the verify rows both
                    # come from it; the packed vectors live only for the
                    # filter load.
                    indptr, data, collided = hash_rows(sets)
                    codes = embedder.code_hashes(indptr, data)
                    matrix = embedder.encode(codes)
                    index._codes = dict(zip(sids, codes))
                    sid_array = np.asarray(sids, dtype=np.int64)
                    index._hashes = HashArena.from_csr(
                        sid_array, indptr, data, np.diff(indptr)
                    )
                    index._cfallback = set(sid_array[collided].tolist())
                embed_seconds = time.perf_counter() - t0
                t0 = time.perf_counter()
                filter_report = dict.fromkeys(
                    ("tables", "entries", "new_pages", "tail_reads"), 0
                )
                with trace.span("filter_build", n_sets=len(sids)) as sp:
                    with gc_suspended():
                        for fi in index._all_filters():
                            for key, value in fi.insert_many(matrix, sids).items():
                                filter_report[key] += value
                    if sp.recording:
                        sp.set(**filter_report)
                filter_report["wall_seconds"] = round(time.perf_counter() - t0, 6)
        index.build_report = {
            "n_sets": len(sets),
            "phases": {
                "store_load_seconds": round(store_seconds, 6),
                "embed_corpus_seconds": round(embed_seconds, 6),
            },
            "filters": filter_report,
        }
        index.build_trace = root
        logger.debug(
            "materialized %d SFIs + %d DFIs over %d sets",
            len(index._sfis), len(index._dfis), len(sets),
        )
        return index

    def _materialize_filters(self, expected_entries: int, seed: int) -> None:
        n_bits = self.embedder.dimension
        for offset, planned in enumerate(self.plan.filters):
            if planned.n_tables <= 0:
                continue
            filters = self._sfis if planned.kind == SFI else self._dfis
            filters[planned.point] = FilterIndex(
                planned.kind,
                planned.hamming_threshold(self.embedder.b),
                n_tables=planned.n_tables,
                n_bits=n_bits,
                pager=self.pager,
                expected_entries=expected_entries,
                seed=seed + 7919 * (offset + 1),
                sigma_point=planned.point,
            )

    def _all_filters(self):
        yield from self._sfis.values()
        yield from self._dfis.values()

    # -- dynamic maintenance -------------------------------------------------

    def _invalidate(self) -> None:
        """Mutation entry point: refuse while frozen, else drop derived
        state (the cached cost-based planner)."""
        if self._frozen is not None:
            raise FrozenIndexError(
                "index is frozen by an active snapshot; call thaw() "
                "before insert/delete"
            )
        self._planner = None

    def insert(self, elements: Iterable) -> int:
        """Add a set to the collection and all filter structures.

        Raises :class:`FrozenIndexError` while a :meth:`freeze` snapshot
        is active.
        """
        self._invalidate()
        stored = frozenset(elements)
        sid = self.store.insert(stored)
        # One hash pass: the codes and the verify row both come from it.
        indptr, data, collided = hash_rows([stored])
        codes = self.embedder.code_hashes(indptr, data)
        vector = self.embedder.encode(codes)[0]
        self._codes[sid] = codes[0]
        self._hashes.put(sid, data, len(stored))
        if collided[0]:
            self._cfallback.add(sid)
        for fi in self._all_filters():
            fi.insert(vector, sid)
        logger.debug("inserted sid=%d (%d elements)", sid, len(stored))
        return sid

    def delete(self, sid: int) -> None:
        """Remove a set from the collection and all filter structures.

        Raises :class:`FrozenIndexError` while a :meth:`freeze` snapshot
        is active.
        """
        if sid not in self._codes:
            raise KeyError(f"unknown sid: {sid}")
        self._invalidate()
        del self._codes[sid]
        self._cfallback.discard(sid)
        for fi in self._all_filters():
            fi.delete(sid)
        self.store.delete(sid)
        logger.debug("deleted sid=%d", sid)

    # -- snapshots ----------------------------------------------------------

    def freeze(self):
        """Produce (and pin) a read-only :class:`~repro.exec.snapshot.IndexSnapshot`.

        Compact-and-pin: every filter merges its write delta and
        tombstones into its stacked base, which the snapshot then shares
        without a copy (with a copy of the chain lengths).  The snapshot
        also stacks the stored codes into one matrix and materializes
        the columnar CSR verification layout, so it can serve
        ``query_batch`` through an executor (see
        :class:`~repro.exec.parallel.ParallelExecutor`) with accounting
        identical to this index's own path.
        While frozen, :meth:`insert`/:meth:`delete` raise
        :class:`FrozenIndexError`; call :meth:`thaw` to resume
        mutation (existing snapshots must then be discarded).
        Repeated calls return the same snapshot.
        """
        if self._frozen is None:
            from repro.exec.snapshot import IndexSnapshot

            self._frozen = IndexSnapshot.from_index(self)
        return self._frozen

    def thaw(self) -> None:
        """Release the active snapshot and allow mutation again."""
        self._frozen = None

    def save(self, path) -> None:
        """Write the index to ``path`` as a snapshot directory (the one
        on-disk format, :mod:`repro.exec.snapfile`) of its frozen image,
        then restore the previous frozen/thawed state.  :meth:`load`
        thaws it back into a live index; ``repro.exec.open_snapshot``
        maps it in O(ms) for serving.
        """
        from repro.exec.snapfile import save_snapshot

        was_frozen = self.frozen
        snapshot = self.freeze()
        try:
            save_snapshot(snapshot, path)
        finally:
            if not was_frozen:
                self.thaw()

    #: :meth:`save` under the name the snapshot API uses.
    save_snapshot = save

    @classmethod
    def load(cls, path) -> "SetSimilarityIndex":
        """The index saved at ``path`` by :meth:`save`, thawed into a
        live index through the bulk build path.

        The snapshot is opened and fully verified (a table that does
        not hold one entry of every stored set is a
        :class:`~repro.exec.snapfile.SnapshotIntegrityError`); nothing is
        re-embedded or re-hashed.  The store takes the sets under their
        own sids (numbering on from the saved next sid), the code map
        the stored codes, the hash arena the verify CSR, and each filter
        its stored stack as its base, while its tables' pages bulk-load
        the stored entries in sid order for the write-side accounting
        (:meth:`~repro.storage.hashtable.LiveTables.load`).  Everything
        is copied off the mapping.  The result is a fresh bulk build of the saved
        contents: the saved index itself when that was bulk-built; a
        churned index keeps its sids but takes a bulk build's page
        layout, and so its I/O charges.
        """
        from repro.exec.columnar import HashArena
        from repro.exec.snapfile import SnapshotFormatError, open_snapshot

        snap = open_snapshot(path, verify=True)
        pager = PageManager(snap.cost, page_size=snap.page_size)
        store = SetStore(pager)
        index = cls(snap.embedder, snap.plan, snap.planner.distribution, pager, store)
        sids = snap.sid_array
        with gc_suspended():
            store.load(sids.tolist(), snap.all_sets(), snap.next_sid)
            index._codes = dict(zip(sids.tolist(), np.array(snap.code_matrix)))
            index._hashes = HashArena.from_csr(
                sids, snap.set_indptr, snap.set_data, snap.set_sizes
            )
            index._cfallback = set(snap.fallback_array.tolist())
            index._materialize_filters(
                expected_entries=max(1, len(sids)), seed=snap.embedder.seed
            )
            for kind, filters in (("sfi", index._sfis), ("dfi", index._dfis)):
                for point, fi in filters.items():
                    probe = snap.filter_probe(kind, point)
                    if not np.array_equal(fi.positions, probe.positions):
                        raise SnapshotFormatError(
                            f"{path}: {kind}({point}) bit positions do not "
                            "match the embedder seed's")
                    fi._live.load(probe.stack, sids)
        return index

    @property
    def frozen(self) -> bool:
        """Whether a :meth:`freeze` snapshot is currently active."""
        return self._frozen is not None

    @property
    def n_sets(self) -> int:
        """Number of currently indexed sets."""
        return len(self._codes)

    @property
    def sids(self) -> set[int]:
        """Identifiers of the currently indexed sets."""
        return set(self._codes)

    # -- query processing ------------------------------------------------------

    def query(
        self,
        elements: Iterable,
        sigma_low: float,
        sigma_high: float,
        strategy: str = "index",
        explain: bool = False,
    ) -> QueryResult:
        """All indexed sets with ``sigma_low <= sim <= sigma_high``.

        ``strategy="index"`` (default) implements the Section 4.3 query
        plans: pick the cut points minimally enclosing the range, probe
        the corresponding filter structures, difference/union the probe
        results, then fetch and verify every candidate exactly.

        ``strategy="scan"`` reads the whole collection sequentially
        (exact; recall 1).  ``strategy="auto"`` asks the cost-based
        :class:`~repro.core.planner.QueryPlanner` which is predicted
        cheaper for this range -- the per-query version of the paper's
        Section 6 crossover analysis.

        ``explain=True`` forces tracing for this query regardless of
        the global :func:`repro.obs.trace.set_enabled` switch; the
        resulting span tree is attached as ``result.trace`` and can be
        rendered with :func:`repro.obs.explain.render_trace` /
        :func:`repro.obs.explain.explain_json`.

        This is the one-row case of :meth:`query_batch`: the same
        pipeline, with the batch-level I/O, costs, timings and trace
        carried on the returned row, a root span and telemetry event
        named ``"query"``, and no entry in the ``query.batches`` counter.
        """
        from repro.exec.pipeline import Inline, run_batch

        return run_batch(
            _LiveView(self), Inline, "query", [elements], sigma_low,
            sigma_high, strategy, explain,
        ).only()

    def planner(self) -> "QueryPlanner":
        """The cost-based planner for this index.

        Built lazily from catalog statistics (set sizes tracked at
        insert time, heap page counts) and invalidated by updates.
        """
        from repro.core.planner import QueryPlanner

        if self._planner is None:
            avg_size = (
                float(np.mean(self._hashes.size[list(self._codes)]))
                if self._codes else 1.0
            )
            self._planner = QueryPlanner(
                plan=self.plan,
                distribution=self.distribution,
                io=self.io,
                n_sets=self.n_sets,
                heap_pages=self.store.n_pages,
                avg_set_size=avg_size,
            )
        return self._planner

    def query_above(self, elements: Iterable, sigma: float) -> QueryResult:
        """Sets at least ``sigma``-similar to the query."""
        return self.query(elements, sigma, 1.0)

    def query_below(self, elements: Iterable, sigma: float) -> QueryResult:
        """Sets at most ``sigma``-similar to the query."""
        return self.query(elements, 0.0, sigma)

    def query_batch(
        self,
        queries: Sequence[Iterable],
        sigma_low: float,
        sigma_high: float,
        strategy: str = "index",
        explain: bool = False,
    ) -> BatchQueryResult:
        """Answer many queries over one shared range in a single pass.

        Semantically equivalent to ``[self.query(q, sigma_low,
        sigma_high) for q in queries]`` -- each query's answers,
        candidates and counts are identical -- but executed batch-wise:

        1. all query sets are embedded through one vectorized
           minhash + ECC pass (:meth:`SetEmbedder.embed_many`);
        2. every filter index of the plan is probed once for the whole
           batch with grouped bucket lookups, so a bucket page shared
           by several queries is read once instead of once per query;
        3. candidates are fetched once per *distinct* candidate and
           verified exactly by the columnar kernels
           (:func:`repro.exec.columnar.verify_batch`); when a trace is
           recording, slot agreement of the stored and query codes
           additionally estimates every pair's similarity for the
           ``est_in_range`` EXPLAIN aggregate (answer membership stays
           exactly verified).

        The batch's simulated page-read total is therefore never
        greater than the equivalent query loop, and strictly smaller
        whenever queries share buckets or candidates.  Accounted CPU
        work is identical to the loop.  ``strategy`` and ``explain``
        behave as in :meth:`query`; with ``strategy="scan"`` the whole
        collection is read once for the entire batch.
        """
        from repro.exec.pipeline import Inline, run_batch

        return run_batch(
            _LiveView(self), Inline, "query_batch", queries, sigma_low,
            sigma_high, strategy, explain,
        )

    def query_above_batch(
        self, queries: Sequence[Iterable], sigma: float, **kwargs
    ) -> BatchQueryResult:
        """Batched :meth:`query_above`: sets at least ``sigma``-similar."""
        return self.query_batch(queries, sigma, 1.0, **kwargs)

    def query_below_batch(
        self, queries: Sequence[Iterable], sigma: float, **kwargs
    ) -> BatchQueryResult:
        """Batched :meth:`query_below`: sets at most ``sigma``-similar."""
        return self.query_batch(queries, 0.0, sigma, **kwargs)

    def filter_stats(self, detail: bool = False) -> list[dict]:
        """Occupancy/load statistics for every materialized filter.

        One dict per SFI/DFI: its kind, cut point, turning point and
        the aggregate (optionally per-table) hash-table statistics from
        :meth:`~repro.core.filter_index.FilterIndex.table_stats`.
        Surfaced by ``repro stats``.
        """
        stats = []
        for kind, filters in (("sfi", self._sfis), ("dfi", self._dfis)):
            for point, fi in sorted(filters.items()):
                stats.append({
                    "kind": kind,
                    "point": point,
                    "s_star": fi.threshold,
                    **fi.table_stats(detail=detail),
                })
        return stats

    def __repr__(self) -> str:
        return (
            f"SetSimilarityIndex(n_sets={self.n_sets}, "
            f"k={self.embedder.k}, b={self.embedder.b}, "
            f"codec={self.embedder.codec!r}, "
            f"intervals={self.plan.n_intervals}, "
            f"tables={self.plan.tables_used})"
        )
