"""Unit tests for random bit-position sampling (SFI keying)."""

import numpy as np
import pytest

from repro.hamming.bitvector import pack_bits
from repro.hamming.sampling import BitSampler, sampled_key_words


def _vec(bits):
    return pack_bits(np.array(bits, dtype=np.uint8))


def _key_bytes(sampler):
    return -(-sampler.r // 8)


def _key_words(sampler, matrix):
    """Every row's key words under one sampler's positions."""
    positions = sampler.positions
    return sampled_key_words(
        matrix, positions // 64, (positions % 64).astype(np.uint64)
    )


def _key(sampler, vector):
    """One packed vector's key bytes, through the one-row matrix."""
    return _key_words(sampler, vector[None])[0].tobytes()[: _key_bytes(sampler)]


class TestBitSampler:
    def test_key_is_deterministic(self):
        sampler = BitSampler(128, 10, np.random.default_rng(0))
        v = _vec([i % 2 for i in range(128)])
        assert _key(sampler, v) == _key(sampler, v)

    def test_same_seed_same_positions(self):
        a = BitSampler(64, 5, np.random.default_rng(7))
        b = BitSampler(64, 5, np.random.default_rng(7))
        assert np.array_equal(a.positions, b.positions)

    def test_identical_vectors_same_key(self):
        sampler = BitSampler(200, 16, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=200).astype(np.uint8)
        assert _key(sampler, _vec(bits)) == _key(sampler, _vec(bits.copy()))

    def test_key_depends_only_on_sampled_positions(self):
        sampler = BitSampler(100, 8, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=100).astype(np.uint8)
        other = bits.copy()
        untouched = [i for i in range(100) if i not in set(sampler.positions.tolist())]
        for i in untouched:
            other[i] = 1 - other[i]
        assert _key(sampler, _vec(bits)) == _key(sampler, _vec(other))

    def test_key_changes_when_sampled_bit_flips(self):
        sampler = BitSampler(100, 8, np.random.default_rng(5))
        bits = np.zeros(100, dtype=np.uint8)
        flipped = bits.copy()
        flipped[int(sampler.positions[0])] = 1
        assert _key(sampler, _vec(bits)) != _key(sampler, _vec(flipped))

    def test_key_words_matches_key(self):
        """A matrix's key rows equal its rows keyed one at a time, and
        are the sampled bits in position order, packed MSB first."""
        sampler = BitSampler(96, 12, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=(5, 96)).astype(np.uint8)
        matrix = pack_bits(bits)
        words = _key_words(sampler, matrix)
        batch = [row.tobytes()[: _key_bytes(sampler)] for row in words]
        singles = [_key(sampler, matrix[i]) for i in range(5)]
        assert batch == singles
        packed = [np.packbits(row[sampler.positions]).tobytes() for row in bits]
        assert batch == packed

    def test_r_larger_than_n_bits_allowed(self):
        """Sampling with replacement permits r > D."""
        sampler = BitSampler(8, 20, np.random.default_rng(8))
        assert sampler.r == 20
        v = _vec([1] * 8)
        assert len(_key(sampler, v)) == _key_bytes(sampler) == 3

    def test_positions_in_range(self):
        sampler = BitSampler(50, 200, np.random.default_rng(9))
        assert sampler.positions.min() >= 0
        assert sampler.positions.max() < 50

    def test_invalid_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            BitSampler(0, 1, rng)
        with pytest.raises(ValueError):
            BitSampler(10, 0, rng)

    def test_collision_probability_tracks_similarity(self):
        """Keys of s-similar vectors collide with probability ~ s**r."""
        rng = np.random.default_rng(10)
        n_bits, r, trials = 512, 4, 400
        base = rng.integers(0, 2, size=n_bits).astype(np.uint8)
        similarity = 0.9
        hits = 0
        for t in range(trials):
            sampler = BitSampler(n_bits, r, np.random.default_rng(1000 + t))
            other = base.copy()
            flips = rng.random(n_bits) > similarity
            other[flips] ^= 1
            actual_s = 1.0 - flips.mean()
            if _key(sampler, _vec(base)) == _key(sampler, _vec(other)):
                hits += 1
        expected = actual_s**r
        assert abs(hits / trials - expected) < 0.08
