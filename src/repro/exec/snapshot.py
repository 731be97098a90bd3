"""Frozen, thread-shareable images of a built set-similarity index.

``SetSimilarityIndex`` is single-threaded by construction: probing
lazily builds bucket-directory memos, fetches mutate shared I/O
counters, and the candidate algebra walks live dicts.  An
:class:`IndexSnapshot` (``index.freeze()``) converts all of that into
immutable, pre-computed state:

- every :class:`~repro.storage.hashtable.BucketHashTable` bucket
  directory pre-built and wrapped in a
  :class:`~repro.storage.hashtable.FrozenTableView` (pure dict lookups,
  page charges *accounted* into a caller-supplied ``IOStats``);
- stored ECC vectors packed into one contiguous ``(N, words)`` uint64
  matrix with a sid -> row map;
- stored sets materialized twice: as sorted stable-hash uint64 arrays
  in CSR ``(indptr, data)`` layout for columnar exact verification, and
  as the actual ``frozenset`` objects for the hash-collision fallback;
- per-set fetch costs and the heap scan cost *measured once* at freeze
  time, so serving a query charges exactly what the live index would
  have charged without touching the pager.

Every query-relevant charge is therefore a pure function of the query
batch, which is what lets :class:`~repro.exec.parallel.ParallelExecutor`
shard work across threads and still reproduce the sequential path's
accounting bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.exec.columnar import gather_csr, verify_batch
from repro.storage.iomodel import IOStats


class IndexSnapshot:
    """Read-only view of one :class:`~repro.core.index.SetSimilarityIndex`.

    Construct via :meth:`from_index` (or ``index.freeze()``, which also
    pins the index against mutation).  All attributes are immutable by
    convention; probing and verification methods charge simulated I/O
    into caller-supplied :class:`~repro.storage.iomodel.IOStats` so
    concurrent callers never contend.
    """

    def __init__(self, **state):
        self.__dict__.update(state)

    @classmethod
    def from_index(cls, index) -> "IndexSnapshot":
        from repro.core.index import FrozenIndexError

        if index.pager.cache_pages > 0:
            raise FrozenIndexError(
                "cannot freeze an index with a buffer pool "
                f"(cache_pages={index.pager.cache_pages}): cached reads "
                "make page charges history-dependent, so a snapshot "
                "could not reproduce the live accounting"
            )
        sids = sorted(index._vectors)
        row_of = {sid: row for row, sid in enumerate(sids)}
        n_words = index.embedder.n_words
        vector_matrix = (
            np.stack([index._vectors[sid] for sid in sids])
            if sids else np.empty((0, n_words), dtype=np.uint64)
        )
        indptr = np.zeros(len(sids) + 1, dtype=np.int64)
        if sids:
            np.cumsum([len(index._chashes[sid]) for sid in sids], out=indptr[1:])
        data = (
            np.concatenate([index._chashes[sid] for sid in sids])
            if sids and indptr[-1]
            else np.empty(0, dtype=np.uint64)
        )
        sizes = np.fromiter(
            (index._sizes[sid] for sid in sids), dtype=np.int64, count=len(sids)
        )
        # Measure each set's fetch cost (B-tree lookup + heap record
        # read) once, capturing the actual sets along the way; the
        # charges are rolled back so freezing is cost-free.
        fetch_random = np.zeros(len(sids), dtype=np.int64)
        fetch_seq = np.zeros(len(sids), dtype=np.int64)
        sets: dict[int, frozenset] = {}
        saved = index.io.snapshot()
        try:
            for row, sid in enumerate(sids):
                before = index.io.snapshot()
                sets[sid] = index.store.get(sid)
                delta = index.io.snapshot() - before
                fetch_random[row] = delta.random_reads
                fetch_seq[row] = delta.sequential_reads
        finally:
            index.io.stats = saved
        return cls(
            embedder=index.embedder,
            plan=index.plan,
            cost=index.io,
            planner=index.planner(),
            n_bits=index.embedder.dimension,
            sfis={p: fi.freeze() for p, fi in index._sfis.items()},
            dfis={p: fi.freeze() for p, fi in index._dfis.items()},
            sids=sids,
            sid_array=np.asarray(sids, dtype=np.int64),
            row_of=row_of,
            all_sids=frozenset(sids),
            vector_matrix=vector_matrix,
            set_indptr=indptr,
            set_data=data,
            set_sizes=sizes,
            fallback_sids=frozenset(index._cfallback),
            sets=sets,
            fetch_random=fetch_random,
            fetch_seq=fetch_seq,
            scan_pages=index.store.n_pages,
        )

    @property
    def n_sets(self) -> int:
        return len(self.sids)

    # -- plan selection (mirrors SetSimilarityIndex) -----------------------

    def choose_strategy(self, sigma_low: float, sigma_high: float) -> str:
        """Cost-based index-vs-scan choice, as captured at freeze time."""
        return self.planner.choose(sigma_low, sigma_high)

    def enclosing_points(
        self, sigma_low: float, sigma_high: float
    ) -> tuple[float | None, float | None]:
        lo = max((c for c in self.plan.cut_points if c <= sigma_low), default=None)
        up = min((c for c in self.plan.cut_points if c >= sigma_high), default=None)
        return lo, up

    def pivot_between(self, lo: float, up: float) -> float:
        for point in self.plan.cut_points:
            if lo <= point <= up and point in self.sfis and point in self.dfis:
                return point
        raise RuntimeError(
            f"no dual-kind pivot between cut points {lo} and {up}; "
            "the plan is inconsistent"
        )

    def plan_probes(
        self, sigma_low: float, sigma_high: float
    ) -> tuple[str, list[tuple[str, float]], float | None]:
        """The Section 4.3 plan family for a range and the filter probes
        it needs.

        Returns ``(plan, probes, pivot)`` where ``probes`` lists the
        distinct ``(kind, point)`` filters to probe and ``plan`` names
        the same candidate algebra the live ``_candidates_batch`` runs.
        """
        lo, up = self.enclosing_points(sigma_low, sigma_high)
        if lo is None and up is None:
            return "full_collection", [], None
        if lo is None:
            if up in self.dfis:
                return "dfi(up)", [("dfi", up)], None
            return "complement_sfi(up)", [("sfi", up)], None
        if up is None:
            if lo in self.sfis:
                return "sfi(lo)", [("sfi", lo)], None
            return "complement_dfi(lo)", [("dfi", lo)], None
        if lo in self.sfis and up in self.sfis:
            return "sfi_difference", [("sfi", lo), ("sfi", up)], None
        if lo in self.dfis and up in self.dfis:
            return "dfi_difference", [("dfi", lo), ("dfi", up)], None
        pivot = self.pivot_between(lo, up)
        return (
            "pivot_union",
            [("dfi", pivot), ("dfi", lo), ("sfi", pivot), ("sfi", up)],
            pivot,
        )

    def filter_probe(self, kind: str, point: float):
        """The :class:`~repro.core.filter_index.FrozenFilterProbe` for a
        planned ``(kind, point)``."""
        return (self.sfis if kind == "sfi" else self.dfis)[point]

    def combine_candidates(
        self,
        plan: str,
        probed: dict[tuple[str, float], list[set[int]]],
        probes: list[tuple[str, float]],
        n_queries: int,
        rows: list[int],
    ) -> list[set[int]]:
        """Apply the plan family's candidate algebra to the probe results.

        ``probed[(kind, point)][j]`` is query row ``j``'s sid set from
        that filter; rows are scattered back to batch positions exactly
        as the live path does.
        """
        results: list[set[int]] = [set() for _ in range(n_queries)]
        if plan == "full_collection":
            return [set(self.all_sids) for _ in range(n_queries)]
        if plan == "empty_queries":
            return results
        per_row: list[set[int]]
        if plan in ("dfi(up)", "sfi(lo)"):
            per_row = probed[probes[0]]
        elif plan in ("complement_sfi(up)", "complement_dfi(lo)"):
            everything = set(self.all_sids)
            per_row = [everything - s for s in probed[probes[0]]]
        elif plan == "sfi_difference":
            low_sets, up_sets = probed[probes[0]], probed[probes[1]]
            per_row = [a - b for a, b in zip(low_sets, up_sets)]
        elif plan == "dfi_difference":
            low_sets, up_sets = probed[probes[0]], probed[probes[1]]
            per_row = [b - a for a, b in zip(low_sets, up_sets)]
        elif plan == "pivot_union":
            pivot_dissim, lo_dissim, pivot_sim, up_sim = (
                probed[p] for p in probes
            )
            per_row = [
                (pd - ld) | (ps - us)
                for pd, ld, ps, us in zip(
                    pivot_dissim, lo_dissim, pivot_sim, up_sim
                )
            ]
        else:
            raise ValueError(f"unknown plan family: {plan!r}")
        for row, i in enumerate(rows):
            results[i] = per_row[row]
        return results

    # -- verification ------------------------------------------------------

    def _rows(self, sids) -> np.ndarray:
        """Row of each stored sid (``sid_array`` is ascending)."""
        return np.searchsorted(self.sid_array, sids)

    def charge_fetches(self, distinct: list[int], io: IOStats) -> None:
        """Charge the measured fetch cost of each distinct candidate."""
        if not distinct:
            return
        rows = self._rows(distinct)
        io.random_reads += int(self.fetch_random[rows].sum())
        io.sequential_reads += int(self.fetch_seq[rows].sum())

    def verify_batch(
        self,
        query_sets: list[frozenset],
        candidates_list: list[set[int]],
        sigma_low: float,
        sigma_high: float,
        io: IOStats,
    ) -> tuple[list[list[tuple[int, float]]], dict]:
        """Exact in-range matches of a batch (or one worker's chunk of
        it) through :func:`repro.exec.columnar.verify_batch`, charging
        the same per-pair CPU the live path charges into ``io``."""
        return verify_batch(
            query_sets, candidates_list, sigma_low, sigma_high, io,
            csr=lambda sids: gather_csr(
                self.set_indptr, self.set_data, self._rows(sids)
            ),
            sizes=lambda sids: self.set_sizes[self._rows(sids)],
            fallback_sids=self.fallback_sids,
            get_set=self.sets.__getitem__,
        )

    def verify_one(
        self,
        query_set: frozenset,
        candidates: set[int],
        sigma_low: float,
        sigma_high: float,
        io: IOStats,
    ) -> list[tuple[int, float]]:
        """:meth:`verify_batch` for a single query."""
        answers_list, _ = self.verify_batch(
            [query_set], [candidates], sigma_low, sigma_high, io
        )
        return answers_list[0]

    def scan_one(
        self,
        query_set: frozenset,
        sigma_low: float,
        sigma_high: float,
        io: IOStats,
    ) -> tuple[set[int], list[tuple[int, float]]]:
        """One query's share of a shared sequential scan (CPU charges
        only; the single page pass is charged once by the caller)."""
        answers = self.verify_one(
            query_set, self.all_sids, sigma_low, sigma_high, io
        )
        return set(self.all_sids), answers

    def estimate_in_range(
        self,
        candidates_list: list[set[int]],
        matrix: np.ndarray | None,
        rows: list[int],
        sigma_low: float,
        sigma_high: float,
    ) -> int:
        """Hamming-estimated in-range pair count (EXPLAIN aggregate);
        wall-clock only, mirroring the live ``est_in_range``."""
        if matrix is None or not rows:
            return 0
        row_of_query = {i: row for row, i in enumerate(rows)}
        q_rows: list[int] = []
        c_rows: list[int] = []
        for i, candidates in enumerate(candidates_list):
            row = row_of_query.get(i)
            if row is None or not candidates:
                continue
            for sid in candidates:
                q_rows.append(row)
                c_rows.append(self.row_of[sid])
        if not q_rows:
            return 0
        vals = self.embedder.estimate_pairs(
            matrix[q_rows], self.vector_matrix[c_rows]
        )
        return int(((sigma_low <= vals) & (vals <= sigma_high)).sum())

    def __repr__(self) -> str:
        return (
            f"IndexSnapshot(n_sets={self.n_sets}, "
            f"sfis={len(self.sfis)}, dfis={len(self.dfis)}, "
            f"scan_pages={self.scan_pages})"
        )
