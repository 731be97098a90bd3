"""Hamming-space primitives: packed bit vectors, distances, bit sampling.

The indexing pipeline of the paper embeds sets into a high-dimensional
Hamming space (Section 3.2) and then probes that space with hash tables
keyed on random bit samples (Section 4).  This subpackage provides the
bit-level machinery both steps rely on:

* :mod:`repro.hamming.bitvector` -- packing/unpacking bits into uint64
  words and elementwise operations on packed vectors and matrices.
* :mod:`repro.hamming.distance` -- Hamming distance and Hamming
  similarity (Definitions 3 and 4) for packed representations.
* :mod:`repro.hamming.sampling` -- extraction of ``r`` randomly chosen
  bit positions into compact hash keys (the sampling step of the
  Similarity Filter Index, Section 4.1).
"""

from repro.hamming.bitvector import (
    WORD_BITS,
    complement,
    n_words,
    pack_bits,
    unpack_bits,
)
from repro.hamming.distance import (
    hamming_distance,
    hamming_similarity,
)
from repro.hamming.sampling import BitSampler

__all__ = [
    "WORD_BITS",
    "BitSampler",
    "complement",
    "hamming_distance",
    "hamming_similarity",
    "n_words",
    "pack_bits",
    "unpack_bits",
]
