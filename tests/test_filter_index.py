"""Unit tests for the SFI and DFI structures (Sections 4.1-4.2): one
:class:`FilterIndex` class, ``kind="sfi"`` or ``kind="dfi"``."""

import numpy as np
import pytest

from repro.core.filter_index import FilterIndex
from repro.exec.columnar import csr_split
from repro.hamming.bitvector import complement, pack_bits
from repro.hamming.sampling import sampled_key_words
from repro.storage.hashtable import hash_key
from repro.storage.iomodel import IOCostModel, IOStats
from repro.storage.pager import PageManager


def _pager():
    return PageManager(IOCostModel())


def SFI(*args, **kwargs):
    return FilterIndex("sfi", *args, **kwargs)


def DFI(*args, **kwargs):
    return FilterIndex("dfi", *args, **kwargs)


def _probe_rows(fi, matrix):
    """Every query row's candidate set: the filter's whole-table
    ``probe_tables`` over the rows, complemented for a DFI (Theorem 2),
    as the query pipeline's probe stage calls it."""
    if fi.kind == "dfi":
        matrix = complement(matrix, fi.n_bits)
    csr, _ = fi.probe_tables(0, fi.n_tables, matrix, IOStats())
    return [set(row.tolist()) for row in csr_split(*csr)]


def _probe(fi, query):
    return _probe_rows(fi, query[None, :])[0]


def _random_vectors(n, n_bits, seed=0):
    rng = np.random.default_rng(seed)
    return pack_bits(rng.integers(0, 2, size=(n, n_bits)).astype(np.uint8))


def _perturb(vector, n_bits, flips, seed=0):
    rng = np.random.default_rng(seed)
    bits = np.unpackbits(
        vector.view(np.uint8), bitorder="little"
    )[:n_bits].copy()
    for pos in rng.choice(n_bits, size=flips, replace=False):
        bits[pos] ^= 1
    return pack_bits(bits)


class TestSimilarityFilterIndex:
    def test_identical_vector_always_found(self):
        """A stored vector equal to the query collides in every table."""
        n_bits = 256
        sfi = SFI(0.8, 4, n_bits, _pager(), seed=1)
        vectors = _random_vectors(10, n_bits)
        for sid in range(10):
            sfi.insert(vectors[sid], sid)
        for sid in range(10):
            assert sid in _probe(sfi, vectors[sid])

    def test_r_solves_threshold(self):
        sfi = SFI(0.9, 16, 512, _pager())
        assert sfi.r >= 1
        assert sfi.filter.l == 16

    def test_similar_found_dissimilar_not(self):
        n_bits = 1024
        sfi = SFI(0.85, 24, n_bits, _pager(), seed=3)
        base = _random_vectors(1, n_bits, seed=4)[0]
        near = _perturb(base, n_bits, flips=20, seed=5)    # ~0.98 similar
        far = _perturb(base, n_bits, flips=512, seed=6)    # ~0.5 similar
        sfi.insert(near, 1)
        sfi.insert(far, 2)
        hits = _probe(sfi, base)
        assert 1 in hits
        assert 2 not in hits

    def test_insert_many_matches_inserts(self):
        n_bits = 128
        vectors = _random_vectors(6, n_bits, seed=7)
        a = SFI(0.7, 8, n_bits, _pager(), seed=9)
        b = SFI(0.7, 8, n_bits, _pager(), seed=9)
        a.insert_many(vectors, list(range(6)))
        for sid in range(6):
            b.insert(vectors[sid], sid)
        for sid in range(6):
            assert _probe(a, vectors[sid]) == _probe(b, vectors[sid])

    def test_insert_many_validates_lengths(self):
        sfi = SFI(0.7, 2, 64, _pager())
        with pytest.raises(ValueError):
            sfi.insert_many(_random_vectors(3, 64), [1, 2])

    def test_insert_many_empty(self):
        sfi = SFI(0.7, 2, 64, _pager())
        sfi.insert_many(np.empty((0, 1), dtype=np.uint64), [])
        assert sfi.n_entries == 0

    def test_delete_removes(self):
        n_bits = 256
        sfi = SFI(0.8, 6, n_bits, _pager(), seed=11)
        v = _random_vectors(1, n_bits, seed=12)[0]
        sfi.insert(v, 42)
        assert 42 in _probe(sfi, v)
        sfi.delete(42)
        assert 42 not in _probe(sfi, v)
        assert sfi.n_entries == 0

    def test_delete_of_an_unknown_sid_is_refused(self):
        """A delete names the set by its sid: a sid not stored is a
        ``KeyError`` that charges nothing and changes nothing."""
        pager = _pager()
        sfi = SFI(0.8, 6, 256, pager, seed=11)
        v = _random_vectors(1, 256, seed=12)[0]
        sfi.insert(v, 42)
        before = pager.io.snapshot()
        for sid in (7, -1, 10**12):
            with pytest.raises(KeyError):
                sfi.delete(sid)
        assert pager.io.snapshot() == before
        assert sfi.n_entries == 1
        assert 42 in _probe(sfi, v)

    def test_probe_accounts_io(self):
        pager = _pager()
        n_bits = 128
        sfi = SFI(0.8, 5, n_bits, pager, seed=13)
        v = _random_vectors(1, n_bits, seed=14)[0]
        sfi.insert(v, 0)
        before = pager.io.snapshot()
        _probe(sfi, v)
        delta = pager.io.snapshot() - before
        # One bucket (>= its head page) per table.
        assert delta.random_reads >= 5

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            SFI(0.0, 4, 64, _pager())
        with pytest.raises(ValueError):
            SFI(1.0, 4, 64, _pager())
        with pytest.raises(ValueError):
            SFI(0.5, 0, 64, _pager())

    def test_collision_rate_matches_filter_function(self):
        """Empirical hit rate ~ p_{r,l}(s) for vectors at similarity s."""
        n_bits = 2048
        threshold, l = 0.75, 8
        sfi = SFI(threshold, l, n_bits, _pager(), seed=15)
        base = _random_vectors(1, n_bits, seed=16)[0]
        s = 0.9
        flips = int(n_bits * (1 - s))
        n_vectors = 300
        for sid in range(n_vectors):
            sfi.insert(_perturb(base, n_bits, flips, seed=100 + sid), sid)
        hits = len(_probe(sfi, base))
        expected = sfi.filter(s)
        assert abs(hits / n_vectors - expected) < 0.12


class TestDissimilarityFilterIndex:
    def test_dissimilar_found_similar_not(self):
        n_bits = 1024
        dfi = DFI(0.6, 24, n_bits, _pager(), seed=21)
        base = _random_vectors(1, n_bits, seed=22)[0]
        near = _perturb(base, n_bits, flips=50, seed=23)    # ~0.95 similar
        far = _perturb(base, n_bits, flips=900, seed=24)    # ~0.12 similar
        dfi.insert(near, 1)
        dfi.insert(far, 2)
        hits = _probe(dfi, base)
        assert 2 in hits
        assert 1 not in hits

    def test_complement_always_found(self):
        """The complement of the query is maximally dissimilar."""
        n_bits = 256
        dfi = DFI(0.3, 6, n_bits, _pager(), seed=25)
        q = _random_vectors(1, n_bits, seed=26)[0]
        dfi.insert(complement(q, n_bits), 7)
        assert 7 in _probe(dfi, q)

    def test_theorem2_equivalence(self):
        """DFI(s*) probed with q == SFI(1-s*) probed with ~q, matching seeds."""
        n_bits = 512
        pager_a, pager_b = _pager(), _pager()
        dfi = DFI(0.4, 8, n_bits, pager_a, seed=31)
        sfi = SFI(0.6, 8, n_bits, pager_b, seed=31)
        vectors = _random_vectors(20, n_bits, seed=32)
        for sid in range(20):
            dfi.insert(vectors[sid], sid)
            sfi.insert(vectors[sid], sid)
        q = _random_vectors(1, n_bits, seed=33)[0]
        assert _probe(dfi, q) == _probe(sfi, complement(q, n_bits))

    def test_positions_are_the_complement_sfis(self):
        """A DFI(s*) samples and sizes its tables as the SFI(1 - s*) of
        the same seed: same ``r``, same bit positions, same runs."""
        n_bits = 512
        dfi = DFI(0.35, 12, n_bits, _pager(), seed=37)
        sfi = SFI(1.0 - 0.35, 12, n_bits, _pager(), seed=37)
        np.testing.assert_array_equal(dfi.positions, sfi.positions)
        assert dfi.r == sfi.r and dfi.filter == sfi.filter
        vectors = _random_vectors(16, n_bits, seed=38)
        dfi.insert_many(vectors, list(range(16)))
        sfi.insert_many(vectors, list(range(16)))
        got, want = dfi.freeze(), sfi.freeze()
        assert (got.kind, got.complement_query) == ("dfi", True)
        assert (want.kind, want.complement_query) == ("sfi", False)
        for field in ("chain_pages", "run_fps", "run_indptr", "run_sids"):
            np.testing.assert_array_equal(
                getattr(got.stack, field), getattr(want.stack, field)
            )

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            DFI(0.0, 4, 64, _pager())
        with pytest.raises(ValueError):
            FilterIndex("xfi", 0.5, 4, 64, _pager())

    def test_insert_delete_roundtrip(self):
        n_bits = 256
        dfi = DFI(0.5, 4, n_bits, _pager(), seed=41)
        v = _random_vectors(1, n_bits, seed=42)[0]
        dfi.insert(v, 5)
        dfi.delete(5)
        assert 5 not in _probe(dfi, complement(v, n_bits))
        assert dfi.n_entries == 0

    def test_properties_exposed(self):
        dfi = DFI(0.4, 8, 128, _pager())
        assert dfi.n_tables == 8
        assert dfi.r == dfi.filter.r
        assert "0.4" in repr(dfi)


class TestInsertMany:
    """Validation and equivalence of the vectorized bulk entry point."""

    def _pair(self, n_bits=256, n_tables=4, seed=51):
        a = SFI(0.6, n_tables, n_bits, _pager(), seed=seed)
        b = SFI(0.6, n_tables, n_bits, _pager(), seed=seed)
        return a, b

    def test_bulk_equals_insert_method(self):
        n_bits = 256
        a, b = self._pair(n_bits)
        matrix = _random_vectors(30, n_bits, seed=52)
        sids = list(range(30))
        a.insert_many(matrix, sids)
        # Reference: the dynamic one-set path (write delta, compactions).
        for row, sid in zip(matrix, sids):
            b.insert(row, sid)
        io_a = a._live.pager.io.snapshot()
        io_b = b._live.pager.io.snapshot()
        assert io_a.as_dict() == io_b.as_dict()
        q = _random_vectors(1, n_bits, seed=53)[0]
        assert _probe(a, q) == _probe(b, q)
        assert _probe_rows(a, matrix) == _probe_rows(b, matrix)
        assert a.n_entries == b.n_entries
        # Each stored entry's fingerprint is its key's scalar hash_key.
        live = a._live
        for t, positions in enumerate(a.positions):
            keys = sampled_key_words(
                matrix, positions // 64, (positions % 64).astype(np.uint64)
            )
            want = {
                (hash_key(key.tobytes()[: -(-a.r // 8)]), sid)
                for key, sid in zip(keys, sids)
            }
            got = {
                entry
                for b in range(int(live.n_buckets[t]))
                for entry in zip(*(x.tolist() for x in live.bucket_entries(t, b)))
            }
            assert got == want

    def test_duplicate_sids_raise(self):
        sfi, _ = self._pair()
        matrix = _random_vectors(3, 256, seed=54)
        with pytest.raises(ValueError, match="duplicate sids"):
            sfi.insert_many(matrix, [1, 2, 1])
        assert sfi.n_entries == 0  # nothing was half-applied

    def test_shape_mismatch_raises(self):
        sfi, _ = self._pair()
        matrix = _random_vectors(3, 256, seed=55)
        with pytest.raises(ValueError, match="rows"):
            sfi.insert_many(matrix, [1, 2])

    def test_empty_matrix_is_a_noop(self):
        sfi, _ = self._pair()
        matrix = _random_vectors(4, 256, seed=57)[:0]
        before = sfi._live.pager.io.snapshot()
        sfi.insert_many(matrix, [])
        assert sfi.n_entries == 0
        assert sfi._live.pager.io.snapshot().as_dict() == before.as_dict()

    def test_non_contiguous_matrix_accepted(self):
        n_bits = 256
        a, b = self._pair(n_bits)
        full = _random_vectors(20, n_bits, seed=58)
        strided = full[::2]
        assert not strided.flags["C_CONTIGUOUS"]
        a.insert_many(strided, list(range(10)))
        b.insert_many(np.ascontiguousarray(strided), list(range(10)))
        q = _random_vectors(1, n_bits, seed=59)[0]
        assert _probe(a, q) == _probe(b, q)
        fortran = np.asfortranarray(full[:10])
        c = SFI(0.6, 4, n_bits, _pager(), seed=51)
        c.insert_many(fortran, list(range(10)))
        d = SFI(0.6, 4, n_bits, _pager(), seed=51)
        d.insert_many(np.ascontiguousarray(full[:10]), list(range(10)))
        assert _probe(c, q) == _probe(d, q)

    def test_dfi_insert_many(self):
        n_bits = 256
        dfi = DFI(0.4, 4, n_bits, _pager(), seed=61)
        matrix = _random_vectors(5, n_bits, seed=62)
        with pytest.raises(ValueError, match="duplicate sids"):
            dfi.insert_many(matrix, [0, 0, 1, 2, 3])
        report = dfi.insert_many(matrix, list(range(5)))
        assert dfi.n_entries == 5
        assert report["tables"] == dfi.n_tables == 4
        assert report["entries"] == 20
        assert report["tail_reads"] == 0
