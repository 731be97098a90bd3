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
data vectors are stored unmodified.  One class, :class:`FilterIndex`,
is both: its ``kind`` picks the tables' turning point and whether the
caller complements the queries.

Both kinds are dynamic: vectors can be inserted or deleted at any
time, which is what the hash-table primitive buys the paper.

Probing is one operation on the live filters and on their frozen image
(:class:`FrozenFilterProbe`): ``probe_tables(start, stop, matrix, io)``
fingerprints a range of the filter's tables in one pass, probes them
through the one stacked kernel (:class:`~repro.storage.hashtable.TableStack`:
a live filter's :class:`~repro.storage.hashtable.LiveTables` probes its
stacked base and write delta with it) and returns the hits as one
candidate CSR over the query rows (each row's sids ascending and
unique; no per-row Python set is built).  The query
pipeline's probe stage (:func:`repro.exec.pipeline.probe_filter`) calls
it per worker and is the one probe stage: it complements DFI queries
once per batch and moves the ``sfi.*`` / ``dfi.*`` counters.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.filter_function import FilterFunction
from repro.hamming.sampling import BitSampler, sampled_key_words
from repro.obs import metrics
from repro.storage.hashtable import LiveTables, hash_words
from repro.storage.pager import PageManager

# Probe instruments (shared across all SFI/DFI instances).
_SFI_PROBES = metrics.counter("sfi.probes")
_SFI_CANDIDATES = metrics.counter("sfi.candidates")
_SFI_DUPLICATES = metrics.counter("sfi.duplicate_candidates")
_SFI_BATCHES = metrics.counter("sfi.batch_probes")
_DFI_PROBES = metrics.counter("dfi.probes")
_DFI_CANDIDATES = metrics.counter("dfi.candidates")
_DFI_BATCHES = metrics.counter("dfi.batch_probes")


def record_batch_probe_counters(
    kind: str, n_queries: int, unique: int, collisions: int
) -> None:
    """Apply the filter-level counter deltas of one batched probe.

    A DFI is an SFI probed with complemented queries, so ``kind="dfi"``
    moves both the ``dfi.*`` and the ``sfi.*`` families.
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
    extracted and fingerprinted in one vectorized pass; the bulk load,
    the live and the frozen probe and insert all fingerprint through
    here.
    """
    n, t = matrix.shape[0], word_index.shape[0]
    words = sampled_key_words(matrix, word_index, bit_offset)
    fingerprints = hash_words(words.reshape(n * t, -1), -(-r // 8))
    return np.ascontiguousarray(fingerprints.reshape(n, t).T)


def _hits_csr(rows: np.ndarray, sids: np.ndarray, n_rows: int):
    """``(candidate CSR, hit total)`` of a probe's flat hits: the hit
    total minus the CSR's size is the ``collisions`` count."""
    from repro.exec.columnar import pairs_csr

    return pairs_csr(rows, sids, n_rows), len(sids)


class FilterIndex:
    """``SFI(s*)`` or ``DFI(s*)``: ``l`` hash tables over sampled bits.

    ``kind="sfi"`` retrieves vectors at least ``s*``-Hamming-similar to
    the query.  ``kind="dfi"`` retrieves vectors at most ``s*``-similar:
    by Theorem 2 that is an ``SFI(1 - s*)`` probed with the complemented
    query, so a DFI samples and sizes its tables at ``1 - s*`` and is
    otherwise the same structure -- data vectors are stored unmodified,
    one insertion stream feeds both kinds, and the caller complements
    the queries (once per batch) before :meth:`probe_tables`.

    Parameters
    ----------
    kind:
        ``"sfi"`` or ``"dfi"``.
    threshold:
        The turning point ``s*`` in Hamming similarity, in (0, 1).
    n_tables:
        The number of hash tables ``l``; together with the tables'
        turning point (``s*``, or ``1 - s*`` for a DFI) this fixes
        ``r`` via the turning-point equation.
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
        kind: str,
        threshold: float,
        n_tables: int,
        n_bits: int,
        pager: PageManager,
        expected_entries: int = 1024,
        seed: int = 0,
        sigma_point: float | None = None,
    ):
        if kind not in ("sfi", "dfi"):
            raise ValueError(f"kind must be 'sfi' or 'dfi', got {kind!r}")
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        if n_tables <= 0:
            raise ValueError(f"n_tables must be positive, got {n_tables}")
        self.kind = kind
        self.threshold = threshold
        self.n_bits = n_bits
        self.sigma_point = sigma_point
        #: The tables' ``p_{r,l}``: turning point ``s*``, or ``1 - s*``
        #: for a DFI (Theorem 2).
        self.filter = FilterFunction.for_threshold(
            threshold if kind == "sfi" else 1.0 - threshold, n_tables
        )
        rng = np.random.default_rng(seed)
        #: The l tables' sampled bit positions stacked (l, r): a probe
        #: extracts and fingerprints the keys of every table in one
        #: vectorized pass.
        self.positions = np.stack([
            BitSampler(n_bits, self.filter.r, rng).positions
            for _ in range(n_tables)
        ])
        self._word_index = self.positions // 64
        self._bit_offset = (self.positions % 64).astype(np.uint64)
        slots = pager.capacity_for(16)
        n_buckets = max(1, -(-expected_entries // slots)) * 2
        #: The l tables: pages for the write-side accounting, a stacked
        #: base plus write delta for probes.
        self._live = LiveTables(pager, n_tables, n_buckets)

    @property
    def n_tables(self) -> int:
        return self._live.n_tables

    @property
    def r(self) -> int:
        """Sampled bits per table."""
        return self.filter.r

    @property
    def n_entries(self) -> int:
        """Entries per table (each vector appears once in every table)."""
        return self._live.n_entries

    def insert(self, vector: np.ndarray, sid: int) -> None:
        """Index one packed vector under a set identifier not stored
        yet (``ValueError`` otherwise), its fingerprint in each of the
        ``l`` tables from the probe's one :func:`table_fingerprints`
        pass."""
        self._live.insert(table_fingerprints(
            vector[None], self._word_index, self._bit_offset, self.filter.r
        )[:, 0], sid)

    def insert_many(self, matrix: np.ndarray, sids: Sequence[int]) -> dict:
        """Bulk-index the rows of a packed matrix (vectorized keying).

        Table by table, the rows' keys are fingerprinted
        (:func:`table_fingerprints`, one table's keys alive at a time)
        and loaded by :meth:`~repro.storage.hashtable.LiveTables.bulk_load`:
        pages and accounting bit-identical to inserting the rows one by
        one, table by table, and (into an empty filter) the stacked base
        built straight from the fingerprints.  Returns the load's
        totals: tables, entries, new pages and tail pages read.

        The rows of ``matrix`` need not be contiguous (column views and
        strided slices are accepted); ``sids`` must be unique and not
        stored yet -- one set is one identifier -- or the load raises
        ``ValueError`` before it writes anything.
        """
        if matrix.shape[0] != len(sids):
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows but {len(sids)} sids given"
            )
        matrix = np.ascontiguousarray(matrix)
        return self._live.bulk_load(
            (
                table_fingerprints(
                    matrix, self._word_index[t : t + 1],
                    self._bit_offset[t : t + 1], self.filter.r,
                )[0]
                for t in range(self.n_tables)
            ),
            sids,
        )

    def delete(self, sid: int) -> None:
        """Remove a stored set (``KeyError`` for a sid not stored)."""
        self._live.delete(sid)

    def probe_tables(self, start: int, stop: int, matrix: np.ndarray, io):
        """Probe tables ``start .. stop - 1`` with every row of a packed
        query matrix (complemented for a DFI): the candidate CSR over
        the matrix rows (see :func:`repro.exec.columnar.pairs_csr`) and
        the hit total.

        The sampled-bit keys of the tables are extracted and
        fingerprinted in one vectorized pass
        (:func:`table_fingerprints`), then the tables' base and delta
        serve them in one stacked pass with grouped bucket reads
        (:meth:`~repro.storage.hashtable.LiveTables.probe`), so a bucket
        page shared by several queries of the batch is read once instead
        of once per query.  The tables read through their pager, which
        charges the index's cost model, so ``io`` (the frozen view's
        call shape) is not charged.
        """
        fingerprints = table_fingerprints(
            matrix, self._word_index[start:stop], self._bit_offset[start:stop],
            self.filter.r,
        )
        return _hits_csr(
            *self._live.probe(start, stop, fingerprints), matrix.shape[0]
        )

    def table_stats(self, detail: bool = False) -> dict:
        """Aggregate occupancy/load statistics over the ``l`` tables.

        With ``detail=True`` the per-table
        :meth:`~repro.storage.hashtable.LiveTables.table_stats` dicts
        are included under ``"tables"``.
        """
        per_table = self._live.table_stats()
        stats = {
            "n_tables": self.n_tables,
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
        """Read-only probe view: the tables compacted and their base
        pinned as the view's :class:`~repro.storage.hashtable.TableStack`
        (shared, not copied); a DFI's view expects complemented
        queries."""
        return FrozenFilterProbe(
            kind=self.kind,
            threshold=self.threshold,
            sigma_point=self.sigma_point,
            r=self.filter.r,
            n_bits=self.n_bits,
            positions=self.positions,
            stack=self._live.freeze(),
            complement_query=self.kind == "dfi",
        )

    def __repr__(self) -> str:
        return (
            f"FilterIndex({self.kind!r}, threshold={self.threshold:.3f}, "
            f"l={self.n_tables}, r={self.r})"
        )


class FrozenFilterProbe:
    """Immutable batch-probe image of one SFI or DFI.

    Holds the filter's ``(l, r)`` stacked sampler positions plus its
    tables' fingerprint runs stacked into one
    :class:`~repro.storage.hashtable.TableStack`.  Probing takes a
    contiguous range of tables so a process pool can split one
    filter's ``l`` tables across workers; page charges go into the
    caller's :class:`~repro.storage.iomodel.IOStats` with accounting
    identical to the live filter's.

    ``complement_query`` marks DFI views: the caller must pass the
    *complemented* query matrix (Theorem 2), computed once per batch
    rather than once per table.
    """

    __slots__ = ("kind", "threshold", "sigma_point", "r", "n_bits",
                 "positions", "stack", "complement_query",
                 "_word_index", "_bit_offset")

    def __init__(self, kind, threshold, sigma_point, r, n_bits,
                 positions, stack, complement_query=False):
        self.kind = kind
        self.threshold = threshold
        self.sigma_point = sigma_point
        self.r = r
        self.n_bits = n_bits
        self.positions = positions
        self.stack = stack
        self.complement_query = complement_query
        self._word_index = positions // 64
        self._bit_offset = (positions % 64).astype(np.uint64)

    @property
    def n_tables(self) -> int:
        return self.stack.n_tables

    def probe_tables(self, start: int, stop: int, matrix: np.ndarray, io):
        """Probe tables ``start .. stop - 1`` with every row of the
        (pre-complemented for DFIs) packed query matrix, all tables in
        one :meth:`~repro.storage.hashtable.TableStack.probe` pass: the
        candidate CSR over the matrix rows and the hit total; page
        charges go to ``io``."""
        n_rows = matrix.shape[0]
        return _hits_csr(
            *self.stack.probe(
                start, stop, self._fingerprints(start, stop, matrix), io
            ),
            n_rows,
        )

    def probe_table(self, t: int, matrix: np.ndarray, io) -> list[list[int]]:
        """Table ``t``'s hits split per query row, each row's sids in
        run order (a one-table
        :meth:`~repro.storage.hashtable.TableStack.probe`, whose hits
        come out in row order)."""
        rows, sids = self.stack.probe(
            t, t + 1, self._fingerprints(t, t + 1, matrix), io
        )
        bounds = np.searchsorted(rows, np.arange(matrix.shape[0] + 1)).tolist()
        sids = sids.tolist()
        return [sids[a:b] for a, b in zip(bounds, bounds[1:])]

    def _fingerprints(self, start: int, stop: int, matrix: np.ndarray):
        return table_fingerprints(
            matrix, self._word_index[start:stop], self._bit_offset[start:stop],
            self.r,
        )
