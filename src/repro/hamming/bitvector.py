"""Packed bit-vector representation.

Embedded set signatures are long binary strings (``D = m * k`` bits,
typically several thousand).  We store them packed into ``uint64``
words, 64 bits per word, using the convention that bit ``j`` of a
vector lives at word ``j // 64``, position ``j % 64`` (little-endian
within the word):

    bit(v, j) == (words[j // 64] >> (j % 64)) & 1

All helpers accept either a single packed vector (1-d ``uint64`` array)
or a packed matrix (2-d array, one row per vector).
"""

from __future__ import annotations

import numpy as np

#: Number of bits stored per machine word.
WORD_BITS = 64

_WORD_DTYPE = np.uint64


def n_words(n_bits: int) -> int:
    """Number of uint64 words needed to store ``n_bits`` bits."""
    if n_bits < 0:
        raise ValueError(f"n_bits must be non-negative, got {n_bits}")
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack an array of 0/1 values into uint64 words.

    ``bits`` may be 1-d (a single vector of ``n`` bits, returning shape
    ``(n_words(n),)``) or 2-d (``N`` vectors of ``n`` bits each,
    returning shape ``(N, n_words(n))``).

    Padding guarantee: for widths that are not a multiple of 64, the
    unused high bits of the tail word are **zero**.  The popcount
    kernels (:mod:`repro.hamming.distance`) and :func:`complement` rely
    on this -- padding cancels under XOR only because every producer
    zeroes it.
    """
    bits = np.asarray(bits)
    if bits.ndim not in (1, 2):
        raise ValueError(f"bits must be 1-d or 2-d, got ndim={bits.ndim}")
    single = bits.ndim == 1
    if single:
        bits = bits[np.newaxis, :]
    n = bits.shape[1]
    width = n_words(n)
    padded = np.zeros((bits.shape[0], width * WORD_BITS), dtype=np.uint64)
    padded[:, :n] = bits.astype(np.uint64) & np.uint64(1)
    shifts = np.arange(WORD_BITS, dtype=np.uint64)
    grouped = padded.reshape(bits.shape[0], width, WORD_BITS)
    words = np.bitwise_or.reduce(grouped << shifts, axis=2)
    tail = n % WORD_BITS
    if tail:
        assert not np.any(
            words[..., -1] >> np.uint64(tail)
        ), "pack_bits tail-word padding must be zero"
    return words[0] if single else words


def unpack_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: expand words back into 0/1 bytes."""
    words = np.asarray(words, dtype=_WORD_DTYPE)
    single = words.ndim == 1
    if single:
        words = words[np.newaxis, :]
    shifts = np.arange(WORD_BITS, dtype=np.uint64)
    bits = (words[:, :, np.newaxis] >> shifts) & np.uint64(1)
    bits = bits.reshape(words.shape[0], -1)[:, :n_bits].astype(np.uint8)
    return bits[0] if single else bits


def complement(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Bitwise complement of a packed vector/matrix of ``n_bits`` bits.

    Padding bits beyond ``n_bits`` are kept at zero so that popcount
    based distance computations stay exact (Theorem 2 relies on the
    complemented query having exactly the opposite bit in every *valid*
    position).
    """
    words = np.asarray(words, dtype=_WORD_DTYPE)
    flipped = ~words
    tail = n_bits % WORD_BITS
    if tail:
        mask = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
        flipped = flipped.copy()
        flipped[..., -1] &= mask
    return flipped


def get_bit(words: np.ndarray, position: int) -> int:
    """Read a single bit of a packed vector."""
    word = int(words[position // WORD_BITS])
    return (word >> (position % WORD_BITS)) & 1


def set_bit(words: np.ndarray, position: int, value: int) -> None:
    """Write a single bit of a packed vector in place."""
    index = position // WORD_BITS
    mask = np.uint64(1) << np.uint64(position % WORD_BITS)
    if value:
        words[index] |= mask
    else:
        words[index] &= ~mask
