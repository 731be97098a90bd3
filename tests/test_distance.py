"""Unit tests for Hamming distance/similarity (Definitions 3, 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hamming.bitvector import complement, pack_bits
from repro.hamming import distance as distance_mod
from repro.hamming.distance import (
    hamming_distance,
    hamming_distance_pairs,
    hamming_similarity,
)


def _pair(n):
    return st.tuples(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
    )


pairs = st.integers(min_value=1, max_value=200).flatmap(_pair)


def _matrix(n_rows, width):
    return st.lists(
        st.lists(st.integers(0, 1), min_size=width, max_size=width),
        min_size=n_rows,
        max_size=n_rows,
    )


#: Two equal-shape matrices: row-aligned pair lists for the gather kernel.
aligned_pairs = st.tuples(st.integers(1, 8), st.integers(1, 150)).flatmap(
    lambda dims: st.tuples(
        _matrix(dims[0], dims[1]), _matrix(dims[0], dims[1])
    )
)


class TestHammingDistance:
    def test_identical(self):
        v = pack_bits(np.array([1, 0, 1, 1], dtype=np.uint8))
        assert hamming_distance(v, v) == 0

    def test_known_value(self):
        a = pack_bits(np.array([1, 0, 1, 0], dtype=np.uint8))
        b = pack_bits(np.array([0, 0, 1, 1], dtype=np.uint8))
        assert hamming_distance(a, b) == 2

    def test_shape_mismatch(self):
        a = pack_bits(np.zeros(64, dtype=np.uint8))
        b = pack_bits(np.zeros(128, dtype=np.uint8))
        with pytest.raises(ValueError):
            hamming_distance(a, b)

    def test_complement_distance_is_n(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.uint8)
        v = pack_bits(bits)
        assert hamming_distance(v, complement(v, 7)) == 7

    @given(pairs)
    @settings(max_examples=50)
    def test_matches_naive(self, pair):
        a_bits, b_bits = pair
        a = pack_bits(np.array(a_bits, dtype=np.uint8))
        b = pack_bits(np.array(b_bits, dtype=np.uint8))
        naive = sum(x != y for x, y in zip(a_bits, b_bits))
        assert hamming_distance(a, b) == naive

    @given(pairs)
    @settings(max_examples=30)
    def test_symmetry(self, pair):
        a_bits, b_bits = pair
        a = pack_bits(np.array(a_bits, dtype=np.uint8))
        b = pack_bits(np.array(b_bits, dtype=np.uint8))
        assert hamming_distance(a, b) == hamming_distance(b, a)


class TestHammingSimilarity:
    def test_identical_is_one(self):
        v = pack_bits(np.array([1, 0, 1], dtype=np.uint8))
        assert hamming_similarity(v, v, 3) == 1.0

    def test_complement_is_zero(self):
        v = pack_bits(np.array([1, 0, 1, 0, 1], dtype=np.uint8))
        assert hamming_similarity(v, complement(v, 5), 5) == 0.0

    def test_half(self):
        a = pack_bits(np.array([1, 1, 0, 0], dtype=np.uint8))
        b = pack_bits(np.array([1, 0, 1, 0], dtype=np.uint8))
        assert hamming_similarity(a, b, 4) == 0.5

    def test_invalid_n_bits(self):
        v = pack_bits(np.array([1], dtype=np.uint8))
        with pytest.raises(ValueError):
            hamming_similarity(v, v, 0)

    @given(pairs)
    @settings(max_examples=30)
    def test_bounds(self, pair):
        a_bits, b_bits = pair
        a = pack_bits(np.array(a_bits, dtype=np.uint8))
        b = pack_bits(np.array(b_bits, dtype=np.uint8))
        s = hamming_similarity(a, b, len(a_bits))
        assert 0.0 <= s <= 1.0

    @given(pairs)
    @settings(max_examples=30)
    def test_definition_4(self, pair):
        """S_H = 1 - d_H / t exactly."""
        a_bits, b_bits = pair
        t = len(a_bits)
        a = pack_bits(np.array(a_bits, dtype=np.uint8))
        b = pack_bits(np.array(b_bits, dtype=np.uint8))
        assert hamming_similarity(a, b, t) == pytest.approx(
            1.0 - hamming_distance(a, b) / t
        )


class TestHammingDistancePairs:
    """The row-aligned gather kernel used by batched verification."""

    def test_known_values(self):
        a = pack_bits(np.array([[1, 0, 1], [0, 0, 0]], dtype=np.uint8))
        b = pack_bits(np.array([[1, 1, 1], [1, 0, 1]], dtype=np.uint8))
        assert hamming_distance_pairs(a, b).tolist() == [1, 2]

    def test_shape_validation(self):
        a = np.zeros((2, 1), dtype=np.uint64)
        with pytest.raises(ValueError):
            hamming_distance_pairs(a, np.zeros((3, 1), dtype=np.uint64))
        with pytest.raises(ValueError):
            hamming_distance_pairs(a[0], a[0])

    def test_empty(self):
        a = np.empty((0, 2), dtype=np.uint64)
        assert hamming_distance_pairs(a, a).shape == (0,)

    @given(aligned_pairs)
    @settings(max_examples=40)
    def test_matches_per_row_scalar(self, mats):
        a_bits, b_bits = mats
        a = pack_bits(np.array(a_bits, dtype=np.uint8))
        b = pack_bits(np.array(b_bits, dtype=np.uint8))
        got = hamming_distance_pairs(a, b)
        for i in range(a.shape[0]):
            assert got[i] == hamming_distance(a[i], b[i])

    @given(aligned_pairs, aligned_pairs)
    @settings(max_examples=30)
    def test_linear_under_concatenation(self, left, right):
        """d(a1 ++ a2, b1 ++ b2) == d(a1, b1) + d(a2, b2) per row.

        Concatenating the *bit* strings of two aligned pair lists (the
        rows are padded independently, so the packed words are simply
        re-packed from the joined bits) adds the distances exactly --
        the property that lets the verifier treat the k codeword blocks
        of a signature as one flat vector.
        """
        (a1_bits, b1_bits) = left
        (a2_bits, b2_bits) = right
        n = min(len(a1_bits), len(a2_bits))
        a1 = np.array(a1_bits[:n], dtype=np.uint8)
        b1 = np.array(b1_bits[:n], dtype=np.uint8)
        a2 = np.array(a2_bits[:n], dtype=np.uint8)
        b2 = np.array(b2_bits[:n], dtype=np.uint8)
        joined_a = pack_bits(np.concatenate([a1, a2], axis=1))
        joined_b = pack_bits(np.concatenate([b1, b2], axis=1))
        joined = hamming_distance_pairs(joined_a, joined_b)
        split = hamming_distance_pairs(
            pack_bits(a1), pack_bits(b1)
        ) + hamming_distance_pairs(pack_bits(a2), pack_bits(b2))
        assert np.array_equal(joined, split)

    def test_chunk_boundaries(self, monkeypatch):
        """A shrunk chunk budget must not change any distance."""
        rng = np.random.default_rng(11)
        a = rng.integers(0, 1 << 63, size=(37, 6), dtype=np.uint64)
        b = rng.integers(0, 1 << 63, size=(37, 6), dtype=np.uint64)
        full = hamming_distance_pairs(a, b)
        # Chunks of 1..3 rows force many boundary crossings.
        for budget in (1, a.shape[1] * 2, a.shape[1] * 3):
            monkeypatch.setattr(distance_mod, "_CHUNK_BYTES", budget)
            assert np.array_equal(hamming_distance_pairs(a, b), full)
