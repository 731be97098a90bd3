"""Similarity and Dissimilarity Filter Indices (Sections 4.1, 4.2).

An ``SFI(s*)`` retrieves, with probability ``p_{r,l}(s)``, every stored
vector whose Hamming similarity ``s`` to the query exceeds the turning
point ``s*``.  It is ``l`` hash tables, each keyed on a fixed random
sample of ``r`` bit positions; the probe result ``SimVector(s*, q)`` is
the union of the ``l`` matching buckets, answered with ``O(l)`` bucket
accesses.

A ``DFI(s*)`` retrieves vectors *at most* ``s*``-similar.  By
Theorem 2, complementing the query flips similarity around 1/2:

    S_H(h, ~q) = 1 - S_H(h, q),

so a DFI is an ``SFI(1 - s*)`` probed with the complemented query;
data vectors are stored unmodified.

Both structures are dynamic: vectors can be inserted or deleted at any
time, which is what the hash-table primitive buys the paper.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.filter_function import FilterFunction
from repro.hamming.bitvector import complement
from repro.hamming.sampling import BitSampler, sampled_key_words
from repro.obs import metrics, trace
from repro.storage.hashtable import BucketHashTable, hash_words
from repro.storage.pager import PageManager

# Probe instruments (shared across all SFI/DFI instances); per-table
# candidate-count histograms feed the collision statistics the tuning
# experiments read.
_SFI_PROBES = metrics.counter("sfi.probes")
_SFI_CANDIDATES = metrics.counter("sfi.candidates")
_SFI_DUPLICATES = metrics.counter("sfi.duplicate_candidates")
_SFI_BATCHES = metrics.counter("sfi.batch_probes")
_DFI_PROBES = metrics.counter("dfi.probes")
_DFI_CANDIDATES = metrics.counter("dfi.candidates")
_DFI_BATCHES = metrics.counter("dfi.batch_probes")
_TABLE_CANDIDATES = metrics.histogram("sfi.table_candidates")
# Shared with the hash-table layer: pages a batched probe avoided by
# serving several batch members from one bucket read.
_PAGES_SAVED = metrics.counter("hashtable.probe_pages_saved")


def record_batch_probe_counters(
    kind: str, n_queries: int, unique: int, collisions: int
) -> None:
    """Apply the filter-level counter deltas of one batched probe.

    Shared by the live ``probe_batch`` paths and the frozen-snapshot
    executor so both move ``sfi.*``/``dfi.*`` identically.  A DFI probe
    also moves the SFI counters (the live DFI delegates to its inner
    SFI), so ``kind="dfi"`` records both families.
    """
    if kind == "dfi":
        _DFI_BATCHES.inc()
        _DFI_PROBES.inc(n_queries)
        _DFI_CANDIDATES.inc(unique)
    _SFI_BATCHES.inc()
    _SFI_PROBES.inc(n_queries)
    _SFI_CANDIDATES.inc(unique)
    _SFI_DUPLICATES.inc(collisions)


def table_fingerprints(
    matrix: np.ndarray, word_index: np.ndarray, bit_offset: np.ndarray, r: int
) -> np.ndarray:
    """``hash_key`` fingerprints of every row's key in each of ``t``
    tables, as a ``(t, n)`` uint64 array -- one contiguous row per table.

    ``word_index`` / ``bit_offset`` are the ``(t, r)`` stacked sampler
    positions of the tables (see
    :func:`~repro.hamming.sampling.sampled_key_words`).  Keys are
    extracted and fingerprinted in one vectorized pass (the bulk
    build's ``key_words`` -> ``hash_words`` path, bit-identical to
    ``hash_key(sampler.key(row))``); the live and the frozen probe both
    fingerprint through here.
    """
    n, t = matrix.shape[0], word_index.shape[0]
    words = sampled_key_words(matrix, word_index, bit_offset)
    fingerprints = hash_words(words.reshape(n * t, -1), -(-r // 8))
    return np.ascontiguousarray(fingerprints.reshape(n, t).T)


class SimilarityFilterIndex:
    """``SFI(s*)``: retrieves vectors at least ``s*``-Hamming-similar.

    Parameters
    ----------
    threshold:
        The turning point ``s*`` in Hamming similarity, in (0, 1).
    n_tables:
        The number of hash tables ``l``; together with ``threshold``
        this fixes ``r`` via the turning-point equation.
    n_bits:
        Dimensionality ``D`` of the stored vectors.
    pager:
        Storage backend (shared for I/O accounting).
    expected_entries:
        Sizing hint: buckets are provisioned so that, at this many
        entries, overflows are rare (the paper's "no bucket overflows"
        provisioning).
    seed:
        Freezes the random bit-position samples.
    sigma_point:
        Optional Jaccard cut point this filter serves in the overall
        plan; purely observability metadata (surfaced by EXPLAIN).
    """

    def __init__(
        self,
        threshold: float,
        n_tables: int,
        n_bits: int,
        pager: PageManager,
        expected_entries: int = 1024,
        seed: int = 0,
        sigma_point: float | None = None,
    ):
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        if n_tables <= 0:
            raise ValueError(f"n_tables must be positive, got {n_tables}")
        self.threshold = threshold
        self.n_bits = n_bits
        self.sigma_point = sigma_point
        self.filter = FilterFunction.for_threshold(threshold, n_tables)
        rng = np.random.default_rng(seed)
        self._samplers = [
            BitSampler(n_bits, self.filter.r, rng) for _ in range(n_tables)
        ]
        # The l samplers' positions stacked (l, r): a probe extracts and
        # fingerprints the keys of every table in one vectorized pass.
        positions = np.stack([s.positions for s in self._samplers])
        self._word_index = positions // 64
        self._bit_offset = (positions % 64).astype(np.uint64)
        slots = pager.capacity_for(16)
        n_buckets = max(1, -(-expected_entries // slots)) * 2
        self._tables = [BucketHashTable(pager, n_buckets) for _ in range(n_tables)]

    @property
    def n_tables(self) -> int:
        return len(self._tables)

    @property
    def r(self) -> int:
        """Sampled bits per table."""
        return self.filter.r

    @property
    def n_entries(self) -> int:
        """Entries per table (each vector appears once in every table)."""
        return self._tables[0].n_entries if self._tables else 0

    def insert(self, vector: np.ndarray, sid: int) -> None:
        """Index one packed vector under its set identifier."""
        for sampler, table in zip(self._samplers, self._tables):
            table.insert(sampler.key(vector), sid)

    def insert_many(self, matrix: np.ndarray, sids: Sequence[int]) -> None:
        """Bulk-index the rows of a packed matrix (vectorized keying).

        Each table is loaded through the vectorized bucket-partitioned
        path (:meth:`~repro.storage.hashtable.BucketHashTable.bulk_load_hashed`),
        which produces chains, directories and accounting bit-identical
        to inserting the rows one by one, table by table.

        The rows of ``matrix`` need not be contiguous (column views and
        strided slices are accepted); ``sids`` must be unique within
        the call -- one set is one identifier, and a duplicate would
        silently double-index it in every table.
        """
        if matrix.shape[0] != len(sids):
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows but {len(sids)} sids given"
            )
        if len(set(sids)) != len(sids):
            raise ValueError("duplicate sids in insert_many")
        if matrix.shape[0] == 0:
            return
        matrix = np.ascontiguousarray(matrix)
        for sampler, table in zip(self._samplers, self._tables):
            table.bulk_load_hashed(
                hash_words(sampler.key_words(matrix), sampler.key_bytes),
                sids,
            )

    def table_units(self) -> list[tuple]:
        """The independent (sampler, table) build units, one per hash
        table -- what a parallel bulk build fans out over (see
        :mod:`repro.exec.build`)."""
        return list(zip(self._samplers, self._tables))

    def delete(self, vector: np.ndarray, sid: int) -> None:
        """Remove a previously inserted (vector, sid) pair."""
        for sampler, table in zip(self._samplers, self._tables):
            table.delete(sampler.key(vector), sid)

    def probe(self, query: np.ndarray) -> set[int]:
        """``SimVector(s*, q)``: union of the matching bucket of each
        table -- the one-row case of :meth:`probe_batch`."""
        return self.probe_batch(query[None, :])[0]

    def probe_batch(self, matrix: np.ndarray) -> list[set[int]]:
        """``SimVector(s*, q)`` for every row of a packed query matrix.

        The sampled-bit keys of all ``l`` tables are extracted and
        fingerprinted in one vectorized pass
        (:func:`table_fingerprints`), then each table serves its
        fingerprints with grouped bucket reads
        (:meth:`~repro.storage.hashtable.BucketHashTable.probe_hashed`),
        so a bucket page shared by several queries of the batch is read
        once instead of once per query.
        """
        n = matrix.shape[0]
        if n == 0:
            return []
        saved_before = _PAGES_SAVED.local_value
        with trace.span(
            "sfi_probe_batch",
            s_star=self.threshold,
            sigma=self.sigma_point,
            r=self.filter.r,
            l=len(self._tables),
            n_queries=n,
        ) as sp:
            fingerprints = table_fingerprints(
                matrix, self._word_index, self._bit_offset, self.filter.r
            )
            sids: list[set[int]] = [set() for _ in range(n)]
            per_table: list[int] = []
            recording = sp.recording
            for table, column in zip(self._tables, fingerprints.tolist()):
                hits = 0
                for i, got in enumerate(table.probe_hashed(column)):
                    hits += len(got)
                    sids[i].update(got)
                    if recording:
                        _TABLE_CANDIDATES.observe(len(got))
                per_table.append(hits)
            unique = sum(len(s) for s in sids)
            collisions = sum(per_table) - unique
            record_batch_probe_counters("sfi", n, unique, collisions)
            if recording:
                sp.set(
                    tables_probed=len(self._tables),
                    candidates=unique,
                    collisions=collisions,
                    table_candidates=per_table,
                    pages_saved=_PAGES_SAVED.local_value - saved_before,
                    _sids_per_query=sids,
                )
            return sids

    def table_stats(self, detail: bool = False) -> dict:
        """Aggregate occupancy/load statistics over the ``l`` tables.

        With ``detail=True`` the per-table
        :meth:`~repro.storage.hashtable.BucketHashTable.load_stats`
        dicts are included under ``"tables"``.
        """
        per_table = [table.load_stats() for table in self._tables]
        stats = {
            "n_tables": len(self._tables),
            "r": self.filter.r,
            "entries_per_table": self.n_entries,
            "pages": sum(t["n_pages"] for t in per_table),
            "load_factor": (
                sum(t["load_factor"] for t in per_table) / len(per_table)
                if per_table else 0.0
            ),
            "avg_occupancy": (
                sum(t["avg_occupancy"] for t in per_table) / len(per_table)
                if per_table else 0.0
            ),
            "max_occupancy": max((t["max_occupancy"] for t in per_table), default=0),
            "max_chain_pages": max(
                (t["max_chain_pages"] for t in per_table), default=0
            ),
        }
        if detail:
            stats["tables"] = per_table
        return stats

    def freeze(self) -> "FrozenFilterProbe":
        """Read-only probe view over every table's fingerprint runs."""
        return FrozenFilterProbe(
            kind="sfi",
            threshold=self.threshold,
            sigma_point=self.sigma_point,
            r=self.filter.r,
            n_bits=self.n_bits,
            positions=np.stack([s.positions for s in self._samplers]),
            tables=[table.freeze() for table in self._tables],
        )

    def __repr__(self) -> str:
        return (
            f"SimilarityFilterIndex(threshold={self.threshold:.3f}, "
            f"l={self.n_tables}, r={self.r})"
        )


class DissimilarityFilterIndex:
    """``DFI(s*)``: retrieves vectors at most ``s*``-Hamming-similar.

    Internally an ``SFI(1 - s*)``; probes complement the query vector
    per Theorem 2.  Data vectors are stored unchanged, so one insertion
    stream can feed SFIs and DFIs alike.
    """

    def __init__(
        self,
        threshold: float,
        n_tables: int,
        n_bits: int,
        pager: PageManager,
        expected_entries: int = 1024,
        seed: int = 0,
        sigma_point: float | None = None,
    ):
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        self.threshold = threshold
        self.n_bits = n_bits
        self.sigma_point = sigma_point
        self._sfi = SimilarityFilterIndex(
            1.0 - threshold, n_tables, n_bits, pager, expected_entries, seed
        )

    @property
    def n_tables(self) -> int:
        return self._sfi.n_tables

    @property
    def r(self) -> int:
        return self._sfi.r

    @property
    def filter(self) -> FilterFunction:
        """The underlying ``p_{r,l}``, with turning point at ``1 - s*``."""
        return self._sfi.filter

    @property
    def n_entries(self) -> int:
        return self._sfi.n_entries

    def insert(self, vector: np.ndarray, sid: int) -> None:
        self._sfi.insert(vector, sid)

    def insert_many(self, matrix: np.ndarray, sids: Sequence[int]) -> None:
        self._sfi.insert_many(matrix, sids)

    def table_units(self) -> list[tuple]:
        """The inner SFI's (sampler, table) build units (data vectors
        are stored unmodified; only probes complement the query)."""
        return self._sfi.table_units()

    def delete(self, vector: np.ndarray, sid: int) -> None:
        self._sfi.delete(vector, sid)

    def probe(self, query: np.ndarray) -> set[int]:
        """``DissimVector(s*, q)``: the one-row case of :meth:`probe_batch`."""
        return self.probe_batch(query[None, :])[0]

    def probe_batch(self, matrix: np.ndarray) -> list[set[int]]:
        """Batch ``DissimVector``: probe the inner SFI with ``~rows``."""
        n = matrix.shape[0]
        if n == 0:
            return []
        saved_before = _PAGES_SAVED.local_value
        with trace.span(
            "dfi_probe_batch",
            s_star=self.threshold,
            sigma=self.sigma_point,
            r=self.r,
            l=self.n_tables,
            n_queries=n,
        ) as sp:
            sids = self._sfi.probe_batch(complement(matrix, self.n_bits))
            _DFI_BATCHES.inc()
            _DFI_PROBES.inc(n)
            unique = sum(len(s) for s in sids)
            _DFI_CANDIDATES.inc(unique)
            if sp.recording:
                sp.set(
                    tables_probed=self.n_tables,
                    candidates=unique,
                    pages_saved=_PAGES_SAVED.local_value - saved_before,
                    _sids_per_query=sids,
                )
            return sids

    def table_stats(self, detail: bool = False) -> dict:
        """Occupancy statistics of the underlying tables (see SFI)."""
        return self._sfi.table_stats(detail=detail)

    def freeze(self) -> "FrozenFilterProbe":
        """Read-only probe view; queries must be complemented (see SFI)."""
        inner = self._sfi.freeze()
        return FrozenFilterProbe(
            kind="dfi",
            threshold=self.threshold,
            sigma_point=self.sigma_point,
            r=self.r,
            n_bits=self.n_bits,
            positions=inner.positions,
            tables=inner.tables,
            complement_query=True,
        )

    def __repr__(self) -> str:
        return (
            f"DissimilarityFilterIndex(threshold={self.threshold:.3f}, "
            f"l={self.n_tables}, r={self.r})"
        )


class FrozenFilterProbe:
    """Immutable batch-probe image of one SFI or DFI.

    Holds the filter's ``(l, r)`` stacked sampler positions plus one
    :class:`~repro.storage.hashtable.TableView` per hash table.
    Probing takes a contiguous range of tables so a parallel executor
    can shard one filter's ``l`` tables across workers; each table probe
    charges its page reads into the caller's
    :class:`~repro.storage.iomodel.IOStats` with accounting identical to
    the live ``probe_batch``.

    ``complement_query`` marks DFI views: the caller must pass the
    *complemented* query matrix (Theorem 2), computed once per batch
    rather than once per table.
    """

    __slots__ = ("kind", "threshold", "sigma_point", "r", "n_bits",
                 "positions", "tables", "complement_query",
                 "_word_index", "_bit_offset")

    def __init__(self, kind, threshold, sigma_point, r, n_bits,
                 positions, tables, complement_query=False):
        self.kind = kind
        self.threshold = threshold
        self.sigma_point = sigma_point
        self.r = r
        self.n_bits = n_bits
        self.positions = positions
        self.tables = tables
        self.complement_query = complement_query
        self._word_index = positions // 64
        self._bit_offset = (positions % 64).astype(np.uint64)

    @property
    def n_tables(self) -> int:
        return len(self.tables)

    def probe_tables(
        self, start: int, stop: int, matrix: np.ndarray, io
    ) -> list[list[list[int]]]:
        """Probe tables ``start .. stop - 1`` with every row of the
        (pre-complemented for DFIs) packed query matrix; one list of
        per-row sid lists per table, page charges go to ``io``."""
        fingerprints = table_fingerprints(
            matrix, self._word_index[start:stop], self._bit_offset[start:stop],
            self.r,
        )
        return [
            table.probe_hashed(row, io)
            for table, row in zip(self.tables[start:stop], fingerprints)
        ]

    def probe_table(self, t: int, matrix: np.ndarray, io) -> list[list[int]]:
        """The one-table case of :meth:`probe_tables`."""
        return self.probe_tables(t, t + 1, matrix, io)[0]
