"""Tests for the signature-banding LSH baseline."""

import numpy as np
import pytest

from repro.baselines.banding_lsh import BandingIndex
from repro.core.minhash import MinHasher
from repro.data.generators import planted_clusters
from repro.storage.iomodel import IOCostModel
from repro.storage.pager import PageManager


def _index(threshold=0.5, n_tables=16, k=64, seed=0):
    return BandingIndex(
        threshold, n_tables, k, PageManager(IOCostModel()), seed=seed
    )


class TestConstruction:
    def test_band_width_from_threshold(self):
        index = _index(threshold=0.8, n_tables=20)
        assert index.r >= 1
        assert index.n_tables == 20

    def test_invalid_arguments(self):
        pager = PageManager(IOCostModel())
        with pytest.raises(ValueError):
            BandingIndex(0.0, 4, 16, pager)
        with pytest.raises(ValueError):
            BandingIndex(0.5, 0, 16, pager)
        with pytest.raises(ValueError):
            BandingIndex(0.5, 4, 0, pager)

    def test_collision_probability_formula(self):
        index = _index(threshold=0.6, n_tables=10)
        r, l = index.r, index.n_tables
        s = 0.7
        assert index.collision_probability(s) == pytest.approx(
            1 - (1 - s**r) ** l
        )


class TestRetrieval:
    def test_identical_signature_always_found(self):
        index = _index()
        rng = np.random.default_rng(1)
        sig = rng.integers(0, 2**31, size=64, dtype=np.uint64)
        index.insert(sig, 7)
        assert 7 in index.probe(sig)

    def test_signature_shape_validated(self):
        index = _index(k=64)
        with pytest.raises(ValueError):
            index.probe(np.zeros(32, dtype=np.uint64))

    def test_insert_delete_roundtrip(self):
        index = _index()
        rng = np.random.default_rng(2)
        sig = rng.integers(0, 2**31, size=64, dtype=np.uint64)
        index.insert(sig, 1)
        index.delete(1)
        assert 1 not in index.probe(sig)
        with pytest.raises(KeyError):
            index.delete(1)

    def test_insert_many_validates(self):
        index = _index()
        with pytest.raises(ValueError):
            index.insert_many(np.zeros((3, 64), dtype=np.uint64), [1, 2])

    def test_similar_found_dissimilar_not(self):
        hasher = MinHasher(k=64, seed=3)
        sets = planted_clusters(
            n_clusters=6, per_cluster=8, base_size=30, universe=2000,
            mutation_rate=0.1, seed=4,
        )
        index = _index(threshold=0.4, n_tables=24, k=64, seed=5)
        signatures = hasher.signature_matrix(sets)
        index.insert_many(signatures, list(range(len(sets))))
        query = signatures[0]
        hits = index.probe(query)
        # Cluster mates (~0.65 similar) found; the hit set is selective.
        mates = set(range(8))
        assert len(hits & mates) >= 6
        assert len(hits) < len(sets) / 2

    def test_sharper_than_bit_sampling_at_low_threshold(self):
        """The modern-method claim: at the same (threshold, l), banding
        separates low Jaccard values far better than bit-sampling on
        the ECC embedding, whose effective similarity is (1+s)/2."""
        from repro.core.filter_function import FilterFunction

        threshold, l = 0.3, 24
        banding = FilterFunction.for_threshold(threshold, l)
        bit_sampling = FilterFunction.for_threshold((1 + threshold) / 2, l)

        def separation(ff, lo, hi):
            return ff(hi) - ff(lo)

        # Probability gap between sets at 0.5 vs 0.1 Jaccard:
        band_gap = separation(banding, 0.1, 0.5)
        bits_gap = separation(bit_sampling, (1 + 0.1) / 2, (1 + 0.5) / 2)
        assert band_gap > bits_gap
