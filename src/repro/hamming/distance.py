"""Hamming distance and similarity on packed bit vectors.

Definition 3 of the paper: the Hamming distance of two binary vectors
is the number of positions in which they differ.  Definition 4 defines
Hamming similarity as the fraction of positions in which they agree:

    S_H(h1, h2) = 1 - d_H(h1, h2) / t

for vectors of dimension ``t``.  The filter indices are described in
terms of similarity, so both forms are provided.
"""

from __future__ import annotations

import numpy as np


#: Target bytes of XOR intermediate per chunk in the batched kernel
#: (tests shrink it to exercise chunk boundaries on small inputs).
_CHUNK_BYTES = 8 << 20


def _popcount(words: np.ndarray) -> np.ndarray:
    """Per-word population count (numpy >= 2.0 provides bitwise_count)."""
    return np.bitwise_count(words)


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Hamming distance between two packed vectors of equal width."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return int(_popcount(a ^ b).sum())


def hamming_distance_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-aligned Hamming distances of two packed ``(N, W)`` matrices.

    ``result[i] == hamming_distance(a[i], b[i])`` -- the kernel for a
    pre-gathered pair list (each row of ``a`` already matched with its
    row of ``b``), computed with one chunked XOR + popcount pass.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(
            f"expected equal (N, W) matrices, got {a.shape} and {b.shape}"
        )
    out = np.empty(a.shape[0], dtype=np.int64)
    chunk = max(1, _CHUNK_BYTES // max(1, a.shape[1]))
    for lo in range(0, a.shape[0], chunk):
        hi = min(lo + chunk, a.shape[0])
        out[lo:hi] = _popcount(a[lo:hi] ^ b[lo:hi]).sum(axis=1)
    return out


def hamming_similarity(a: np.ndarray, b: np.ndarray, n_bits: int) -> float:
    """Hamming similarity (Definition 4) of two packed ``n_bits`` vectors."""
    if n_bits <= 0:
        raise ValueError(f"n_bits must be positive, got {n_bits}")
    return 1.0 - hamming_distance(a, b) / n_bits
