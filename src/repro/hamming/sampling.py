"""Random bit-position sampling for filter-index hash keys.

The Similarity Filter Index (Section 4.1) builds each of its ``l`` hash
tables from a fixed random sample of ``r`` of the ``D`` bit positions.
Two vectors with Hamming similarity ``s`` agree on all ``r`` sampled
positions with probability ``s ** r`` (positions are sampled uniformly
with replacement, matching the analysis of Equation 4), which is what
turns the hash table into a probabilistic filter.

A :class:`BitSampler` freezes one such sample; :func:`sampled_key_words`
extracts the sampled bits of packed vectors into compact keys, packed
as little-endian words ready for hashing.
"""

from __future__ import annotations

import numpy as np

from repro.obs import metrics

#: Keys extracted by :func:`sampled_key_words`, one per (row, table):
#: the bulk load, every probe (live and frozen) and every filter-index
#: insert and delete -- all key extraction goes through it.
_KEYS = metrics.counter("hamming.keys_extracted")


class BitSampler:
    """Draws ``r`` fixed random bit positions of a ``D``-bit space; the
    keys are extracted by :func:`sampled_key_words`.

    Parameters
    ----------
    n_bits:
        Dimensionality ``D`` of the Hamming space.
    r:
        Number of positions to sample.
    rng:
        Source of randomness used once, at construction, to freeze the
        sample.  The same sample must key both the data and the query
        vectors.
    """

    def __init__(self, n_bits: int, r: int, rng: np.random.Generator):
        if n_bits <= 0:
            raise ValueError(f"n_bits must be positive, got {n_bits}")
        if r <= 0:
            raise ValueError(f"r must be positive, got {r}")
        self.n_bits = n_bits
        self.r = r
        # Sampling with replacement matches the s**r collision analysis
        # exactly and permits r > n_bits.
        self.positions = rng.integers(0, n_bits, size=r, dtype=np.int64)

    def __repr__(self) -> str:
        return f"BitSampler(n_bits={self.n_bits}, r={self.r})"


def sampled_key_words(
    matrix: np.ndarray, word_index: np.ndarray, bit_offset: np.ndarray
) -> np.ndarray:
    """Sampled-bit keys of every row of a packed matrix, as words.

    ``word_index`` / ``bit_offset`` locate the sampled positions (word
    ``positions // 64``, bit ``positions % 64``) and share a shape
    ``(..., r)``: one sampler's ``(r,)``, or the ``(l, r)`` stack of a
    whole filter index, whose ``l`` keys per row then come out of one
    pass.  The result has shape ``(n, ..., ceil(ceil(r / 8) / 8))``:
    each key's packed bytes as little-endian uint64 words, the last
    word zero-padded.
    """
    _KEYS.inc(matrix.shape[0] * (word_index.size // word_index.shape[-1]))
    bits = (matrix[:, word_index] >> bit_offset) & np.uint64(1)
    packed = np.packbits(bits.astype(np.uint8), axis=-1)
    width = packed.shape[-1]
    n_words = -(-width // 8)
    if width != n_words * 8:
        padded = np.zeros(packed.shape[:-1] + (n_words * 8,), dtype=np.uint8)
        padded[..., :width] = packed
        packed = padded
    # packbits may hand back a strided result; the u8 view needs a
    # contiguous last axis.
    return np.ascontiguousarray(packed).view("<u8")
