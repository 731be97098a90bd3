"""Signature banding -- the modern MinHash-LSH alternative.

The paper reaches its filter indices through a detour: min-hash values
are ECC-encoded into a Hamming space, and hash keys sample *bits* of
the embedding.  The approach that later became standard (datasketch,
Mining of Massive Datasets) skips the embedding: keys are *bands* of
``r`` raw min-hash values, so two sets share a band's bucket with
probability ``s**r`` in **Jaccard** similarity directly, giving

    p_banding(s) = 1 - (1 - s**r) ** l.

The bit-sampling filter obeys the same formula but in *Hamming*
similarity ``(1+s)/2``, which compresses all of Jaccard into [1/2, 1]:
for equal table counts the banding curve is much steeper at low and
mid thresholds.  ``BandingIndex`` implements the modern scheme with
the same interface as an SFI
(:class:`~repro.core.filter_index.FilterIndex`) so the two can
be benchmarked head to head (ABL-BANDING), quantifying what the ECC
detour costs.  Both sit on the same live tables
(:class:`~repro.storage.hashtable.LiveTables`) and so the same probe
kernel: a band's ``r`` uint64 values are one ``8 r``-byte key,
fingerprinted with :func:`~repro.storage.hashtable.hash_words`.

Historical note: the embedding buys the paper a clean reduction to
Hamming-space range queries (Theorems 1-2) and, uniquely, the
*complement trick* for dissimilarity retrieval -- banding has no
analogue of a DFI, because you cannot "complement" a min-hash
signature.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.filter_function import FilterFunction
from repro.obs import metrics, trace
from repro.storage.hashtable import LiveTables, hash_words
from repro.storage.pager import PageManager

_PROBES = metrics.counter("banding.probes")
_CANDIDATES = metrics.counter("banding.candidates")
_BATCHES = metrics.counter("banding.batch_probes")
# Shared with the hash-table layer (see LiveTables.probe).
_PAGES_SAVED = metrics.counter("hashtable.probe_pages_saved")


class BandingIndex:
    """MinHash-LSH by banding: ``l`` bands of ``r`` signature values.

    Parameters
    ----------
    threshold:
        Target turning point in **Jaccard** similarity: the band count
        and width are chosen so two sets at this similarity collide in
        at least one band with probability 1/2.
    n_tables:
        Number of bands ``l`` (one hash table each).
    k:
        Signature length; bands sample ``r`` of the ``k`` positions
        (with replacement across bands, contiguous is not required).
    pager:
        Storage/IO backend, as for the filter indices.
    """

    def __init__(
        self,
        threshold: float,
        n_tables: int,
        k: int,
        pager: PageManager,
        expected_entries: int = 1024,
        seed: int = 0,
    ):
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        if n_tables <= 0:
            raise ValueError(f"n_tables must be positive, got {n_tables}")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.threshold = threshold
        self.k = k
        self.filter = FilterFunction.for_threshold(threshold, n_tables)
        rng = np.random.default_rng(seed)
        #: The l bands' signature positions stacked (l, r).
        self._bands = np.stack([
            rng.integers(0, k, size=self.filter.r, dtype=np.int64)
            for _ in range(n_tables)
        ])
        slots = pager.capacity_for(16)
        n_buckets = max(1, -(-expected_entries // slots)) * 2
        self._live = LiveTables(pager, n_tables, n_buckets)

    @property
    def r(self) -> int:
        """Signature values per band."""
        return self.filter.r

    @property
    def n_tables(self) -> int:
        """Number of bands."""
        return self._live.n_tables

    def _fingerprints(self, signatures: np.ndarray) -> np.ndarray:
        """Every row's fingerprint in each band, ``(l, N)`` uint64, in
        one vectorized pass: the band's ``r`` signature values as one
        ``8 r``-byte key, equal to ``hash_key(row[band].tobytes())`` bit
        for bit."""
        n, (l, r) = signatures.shape[0], self._bands.shape
        keys = signatures[:, self._bands].reshape(n * l, r)
        return hash_words(keys, 8 * r).reshape(n, l).T

    def _row_fingerprints(self, signature: np.ndarray) -> np.ndarray:
        """One signature's fingerprint in each band, ``(l, 1)``."""
        if signature.shape != (self.k,):
            raise ValueError(
                f"signature must have shape ({self.k},), got {signature.shape}"
            )
        return self._fingerprints(signature[None])

    def _probe(self, fingerprints: np.ndarray) -> list[set[int]]:
        """Each query column's colliding sids, every band probed in one
        stacked pass with grouped bucket reads."""
        from repro.exec.columnar import pairs_csr

        indptr, sids = pairs_csr(
            *self._live.probe(0, self.n_tables, fingerprints),
            fingerprints.shape[1],
        )
        sids, bounds = sids.tolist(), indptr.tolist()
        return [set(sids[a:b]) for a, b in zip(bounds, bounds[1:])]

    def insert(self, signature: np.ndarray, sid: int) -> None:
        """Index one min-hash signature under a new set identifier."""
        self._live.insert(self._row_fingerprints(signature)[:, 0], sid)

    def insert_many(self, signatures: np.ndarray, sids: Sequence[int]) -> None:
        """Bulk-index rows of a ``(N, k)`` signature matrix: each band's
        fingerprints load in one
        :meth:`~repro.storage.hashtable.LiveTables.bulk_load` pass,
        pages bit-identical to inserting the rows one by one, band by
        band."""
        if signatures.shape[0] != len(sids):
            raise ValueError(
                f"matrix has {signatures.shape[0]} rows but {len(sids)} sids given"
            )
        if signatures.ndim != 2 or signatures.shape[1] != self.k:
            raise ValueError(
                f"signatures must have shape (N, {self.k}), got {signatures.shape}"
            )
        self._live.bulk_load(self._fingerprints(signatures), sids)

    def delete(self, sid: int) -> None:
        """Remove a stored set (``KeyError`` for a sid not stored)."""
        self._live.delete(sid)

    def probe(self, signature: np.ndarray) -> set[int]:
        """Sids colliding with the query in at least one band."""
        with trace.span(
            "banding_probe", s_star=self.threshold, r=self.r, l=self.n_tables
        ) as sp:
            (sids,) = self._probe(self._row_fingerprints(signature))
            _PROBES.inc()
            _CANDIDATES.inc(len(sids))
            if sp.recording:
                sp.set(
                    tables_probed=self.n_tables, candidates=len(sids), _sids=sids
                )
            return sids

    def probe_batch(self, signatures: np.ndarray) -> list[set[int]]:
        """Band-probe every row of a ``(N, k)`` signature matrix.

        Equivalent to ``[self.probe(row) for row in signatures]`` but
        each band's fingerprints are probed together with grouped bucket
        reads (:meth:`~repro.storage.hashtable.LiveTables.probe`), so
        bucket pages shared between queries are read once.
        """
        if signatures.ndim != 2 or signatures.shape[1] != self.k:
            raise ValueError(
                f"signatures must have shape (N, {self.k}), got {signatures.shape}"
            )
        n = signatures.shape[0]
        if n == 0:
            return []
        saved_before = _PAGES_SAVED.local_value
        with trace.span(
            "banding_probe_batch",
            s_star=self.threshold,
            r=self.r,
            l=self.n_tables,
            n_queries=n,
        ) as sp:
            sids = self._probe(self._fingerprints(signatures))
            _BATCHES.inc()
            _PROBES.inc(n)
            _CANDIDATES.inc(sum(len(s) for s in sids))
            if sp.recording:
                sp.set(
                    tables_probed=self.n_tables,
                    candidates=sum(len(s) for s in sids),
                    pages_saved=_PAGES_SAVED.local_value - saved_before,
                    _sids_per_query=sids,
                )
            return sids

    def collision_probability(self, s) -> float | np.ndarray:
        """``p(s) = 1 - (1 - s**r)**l`` in Jaccard similarity."""
        return self.filter(s)

    def __repr__(self) -> str:
        return (
            f"BandingIndex(threshold={self.threshold:.3f}, "
            f"l={self.n_tables}, r={self.r})"
        )
