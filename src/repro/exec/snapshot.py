"""Frozen, thread-shareable images of a built set-similarity index.

``SetSimilarityIndex`` is single-threaded by construction: writes
reshape its filters' deltas and tombstones, and fetches mutate shared
I/O counters.  An
:class:`IndexSnapshot` (``index.freeze()``) converts all of that into
immutable, pre-computed state:

- each filter's tables compacted and their stacked base pinned: one
  :class:`~repro.storage.hashtable.TableStack` (fingerprint runs in
  arrays, the same class a mapped snapshot serves from and the live
  index probes; page charges *accounted* into a caller-supplied
  ``IOStats``);
- stored signature codes stacked into one contiguous ``(N, k)`` matrix
  (``uint8`` up to b = 8) with a sid -> row map; the packed ECC vectors
  are derived from it on demand (:attr:`IndexSnapshot.vector_matrix`);
- the live index's hash arena gathered, in sid order, into one CSR
  ``(indptr, data)`` of sorted stable-hash uint64 arrays for columnar
  exact verification; the sets themselves are read (uncharged) from
  the store only when the exact fallback asks for one;
- per-set fetch costs and the heap scan cost taken from the set store's
  page rule (:meth:`~repro.storage.setstore.SetStore.set_pages`), so
  serving a query charges exactly what the live index charges, without
  touching the pager.

Every query-relevant charge is therefore a pure function of the query
batch.  A snapshot is one of the two views the query pipeline runs over
(:mod:`repro.exec.pipeline` lists the operations; the live index's view
is the other), and the one whose tasks a thread or process pool can run
concurrently while reproducing the live path's accounting bit for bit.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.core import query_plan
from repro.core.minhash import hash_rows
from repro.exec.columnar import (
    csr_of,
    csr_split,
    gather_csr,
    stored_rows,
    verify_batch,
)
from repro.storage.iomodel import IOStats


class _StoredSets:
    """``sid -> frozenset`` read from a frozen index's set store,
    uncharged (the snapshot charges fetches from its cost arrays)."""

    __slots__ = ("peek",)

    def __init__(self, store):
        self.peek = store.peek

    def __getitem__(self, sid: int) -> frozenset:
        return self.peek(sid)


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
        embedder = index.embedder
        sids = sorted(index._codes)
        sid_array = np.asarray(sids, dtype=np.int64)
        code_matrix = (
            np.stack([index._codes[sid] for sid in sids])
            if sids else np.empty((0, embedder.k), dtype=embedder.code_dtype)
        )
        arena = index._hashes
        indptr, data = gather_csr(arena.start, arena.data, sid_array, arena.lens)
        sizes = arena.size[sid_array]
        return cls(
            embedder=embedder,
            plan=index.plan,
            cost=index.io,
            planner=index.planner(),
            n_bits=embedder.dimension,
            sfis={p: fi.freeze() for p, fi in index._sfis.items()},
            dfis={p: fi.freeze() for p, fi in index._dfis.items()},
            sid_array=sid_array,
            code_matrix=code_matrix,
            set_indptr=indptr,
            set_data=data,
            set_sizes=sizes,
            fallback_array=np.array(sorted(index._cfallback), dtype=np.int64),
            sets=_StoredSets(index.store),
            fetch_random=np.ones(len(sids), dtype=np.int64),
            fetch_seq=index.store.set_pages(sizes) - 1,
            scan_pages=index.store.n_pages,
            next_sid=index.store.next_sid,
            page_size=index.pager.page_size,
        )

    @property
    def n_sets(self) -> int:
        return len(self.sid_array)

    @cached_property
    def sids(self) -> list[int]:
        """Every stored sid, ascending."""
        return self.sid_array.tolist()

    @cached_property
    def vector_matrix(self) -> np.ndarray:
        """The packed ``(N, words)`` embeddings, derived from
        ``code_matrix`` once, on first read (nothing on the query path
        reads it)."""
        return self.embedder.encode(self.code_matrix)

    @cached_property
    def row_of(self) -> dict[int, int]:
        return {sid: row for row, sid in enumerate(self.sids)}

    @cached_property
    def fallback_sids(self) -> frozenset:
        """Sids whose hash row collided: verified on their elements."""
        return frozenset(self.fallback_array.tolist())

    # -- plan selection (repro.core.query_plan over the frozen filters) -----

    def plan_probes(
        self, sigma_low: float, sigma_high: float
    ) -> tuple[str, list[tuple[str, float]], float | None]:
        """``(plan, probes, pivot)`` for a range; see
        :func:`repro.core.query_plan.plan_probes`."""
        return query_plan.plan_probes(
            self.plan.cut_points, self.sfis, self.dfis, sigma_low, sigma_high
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
        """Per-query candidate sets from per-row probe sets: the set
        adapter over :func:`repro.core.query_plan.combine_candidates`,
        which runs the algebra on candidate CSRs."""
        candidates = query_plan.combine_candidates(
            plan, {key: csr_of(sets) for key, sets in probed.items()},
            probes, n_queries, rows, lambda: self.sid_array,
        )
        return [set(row.tolist()) for row in csr_split(*candidates)]

    # -- verification ------------------------------------------------------

    def _rows(self, sids) -> np.ndarray:
        """Row of each stored sid (``sid_array`` is ascending)."""
        return np.searchsorted(self.sid_array, sids)

    def charge_fetches(self, distinct, io: IOStats) -> None:
        """Charge the measured fetch cost of each distinct candidate (a
        sequence or array of sids)."""
        if not len(distinct):
            return
        rows = self._rows(distinct)
        io.random_reads += int(self.fetch_random[rows].sum())
        io.sequential_reads += int(self.fetch_seq[rows].sum())

    def fetch(self, sids: np.ndarray | None, io: IOStats) -> None:
        """The view's fetch: the sets are already materialized, so only
        charge what reading them costs -- each given sid's measured
        fetch, or (``None``) one sequential pass over the heap."""
        if sids is None:
            io.sequential_reads += self.scan_pages
        else:
            self.charge_fetches(sids, io)

    def codes_of(self, sids: list[int]) -> np.ndarray:
        """Stored codes of the given sids, one row each."""
        return self.code_matrix[self._rows(sids)]

    def verify_batch(
        self,
        query_sets: list[frozenset],
        candidates: tuple[np.ndarray, np.ndarray],
        sigma_low: float,
        sigma_high: float,
        io: IOStats,
        query_hashes,
    ) -> tuple[list[list[tuple[int, float]]], dict]:
        """Exact in-range matches of a batch (or one worker's chunk of
        it) given its candidate CSR and its queries' hash CSR (a
        :func:`~repro.core.minhash.hash_rows` CSR), through
        :func:`repro.exec.columnar.verify_batch`, charging the same
        per-pair CPU the live path charges into ``io``."""
        return verify_batch(
            query_sets, candidates, sigma_low, sigma_high, io,
            **stored_rows(
                self.set_indptr, self.set_data, self.set_sizes, self._rows
            ),
            fallback_sids=self.fallback_sids,
            get_set=self.sets.__getitem__,
            query_hashes=query_hashes,
        )

    def verify_one(
        self,
        query_set: frozenset,
        candidates: set[int],
        sigma_low: float,
        sigma_high: float,
        io: IOStats,
    ) -> list[tuple[int, float]]:
        """:meth:`verify_batch` for a single query and its candidate set."""
        answers_list, _ = self.verify_batch(
            [query_set], csr_of([candidates]), sigma_low, sigma_high, io,
            hash_rows([query_set]),
        )
        return answers_list[0]

    def __repr__(self) -> str:
        return (
            f"IndexSnapshot(n_sets={self.n_sets}, "
            f"sfis={len(self.sfis)}, dfis={len(self.dfis)}, "
            f"scan_pages={self.scan_pages})"
        )
