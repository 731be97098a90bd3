"""Set -> Hamming-space embedding (Sections 3.1 + 3.2, Theorem 1).

Composes the two embeddings of the paper:

1. ``S -> V``: a set becomes its length-``k`` min-hash signature.
2. ``V -> H``: each ``b``-bit (fixed-precision) min-hash value is
   encoded with the Hadamard code; the concatenation is a packed
   ``D = m * k``-bit vector.

For two sets of Jaccard similarity ``s``, the expected fraction of
agreeing signature coordinates is ``s``; agreeing coordinates share all
``m`` codeword bits, disagreeing ones share exactly ``m/2``.  Hence
(Theorem 1) the expected Hamming distance is ``(1 - s)/2 * D`` and the
expected Hamming similarity ``(1 + s) / 2``.

Reducing min-hash values to ``b`` bits makes *unequal* values collide
with probability about ``2**-b``, adding roughly ``(1 - s) / 2**b`` of
spurious agreement.  With the default ``b = 6`` that bias is under
1.6% of the disagreeing mass; :func:`jaccard_to_hamming` optionally
models it so analytic predictions match measurements.

Both stages are pluggable via the signature *codec* layer
(:mod:`repro.core.codec`): the generator may be the paper's MinHash or
SuperMinHash, and the packing may be the Hadamard code above
(``full64``) or b-bit minwise truncation (``bbit:β``), which stores
``β`` bits per slot instead of ``m = 2**b`` and estimates similarity
with the Li & Koenig variance-corrected slot estimator
(:meth:`SetEmbedder.estimate_pairs`).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.codec import make_hasher, make_packer, parse_codec
from repro.core.ecc import HadamardCode
from repro.core.minhash import hash_rows


def jaccard_to_hamming(s: float, b: int | None = None) -> float:
    """Expected Hamming similarity of the embeddings of ``s``-similar sets.

    With ``b`` given, includes the fixed-precision collision bias: a
    disagreeing coordinate still matches with probability ``2**-b``.
    """
    if b is None:
        return (1.0 + s) / 2.0
    collide = 2.0 ** (-b)
    agree = s + (1.0 - s) * collide
    return (1.0 + agree) / 2.0


def hamming_to_jaccard(s_h: float, b: int | None = None) -> float:
    """Inverse of :func:`jaccard_to_hamming` (clipped to [0, 1])."""
    agree = 2.0 * s_h - 1.0
    if b is not None:
        collide = 2.0 ** (-b)
        agree = (agree - collide) / (1.0 - collide)
    return float(min(1.0, max(0.0, agree)))


class SetEmbedder:
    """Embeds sets into a fixed-dimensional packed Hamming space.

    Parameters
    ----------
    k:
        Min-hash signature length.
    b:
        Bits of fixed precision per min-hash value; codewords have
        length ``m = 2**b`` and embeddings ``D = m * k`` bits.
    seed:
        Determines the min-hash permutations.  Queries must be embedded
        by an embedder with the same ``(k, b, seed, codec)`` as the
        index.
    codec:
        Signature codec spec (see :mod:`repro.core.codec`).  The
        default ``"full64"`` is bit-identical to the pre-codec format:
        MinHash values, Hadamard-coded at ``m = 2**b`` bits per slot.
        ``"bbit:β"`` packs ``β`` truncated bits per slot instead
        (``D = β * k``); ``"superminhash"`` swaps the generator.
    """

    def __init__(self, k: int = 100, b: int = 6, seed: int = 0,
                 codec: str = "full64"):
        spec = parse_codec(codec)
        self.codec = spec.name
        self.hasher = make_hasher(spec.generator, k, seed)
        self.code = make_packer(spec, b)
        self.k = k
        self.b = b
        self.seed = seed

    @property
    def m(self) -> int:
        """Bits per signature slot (codeword length for full64)."""
        return self.code.m

    @property
    def bias_bits(self) -> int | None:
        """The ``b`` for Theorem-1 conversion curves under this codec.

        full64 packing keeps the Hadamard fixed-precision collision
        bias (``2**-b``); b-bit packing has exact per-bit agreement
        ``(1 + s) / 2`` (low bits of distinct uniform values match
        with probability 1/2 per bit), so its planner curves use the
        uncorrected form (``None``).
        """
        return self.b if isinstance(self.code, HadamardCode) else None

    @property
    def dimension(self) -> int:
        """Total embedded dimensionality ``D = m * k``."""
        return self.code.m * self.k

    @property
    def n_words(self) -> int:
        """Packed width of one embedded vector in uint64 words."""
        return (self.dimension + 63) // 64

    def signature(self, elements: Iterable) -> np.ndarray:
        """The intermediate min-hash signature (space ``V``)."""
        return self.hasher.signature(elements)

    def signature_matrix(self, sets: Iterable[Iterable]) -> np.ndarray:
        """Signatures of many sets in one vectorized pass, ``(N, k)``."""
        return self.hasher.signature_matrix(sets)

    def embed(self, elements: Iterable) -> np.ndarray:
        """Packed ``D``-bit embedding of one set (space ``H``)."""
        return self.code.encode(self.hasher.signature(elements))

    def embed_many(self, sets: Iterable[Iterable]) -> np.ndarray:
        """Packed embeddings of many sets, shape ``(N, n_words)``."""
        indptr, data, _ = hash_rows(sets)
        return self.embed_hashes(indptr, data)

    def embed_hashes(self, indptr: np.ndarray, hashes: np.ndarray) -> np.ndarray:
        """Packed embeddings of the sets whose element hashes are the
        rows of a :func:`~repro.core.minhash.hash_rows` CSR, shape
        ``(N, n_words)``."""
        if len(indptr) == 1:
            return np.empty((0, self.n_words), dtype=np.uint64)
        return self.code.encode_many(self.hasher.signature_csr(indptr, hashes))

    def embed_signature(self, signature: np.ndarray) -> np.ndarray:
        """Embed an existing signature (useful when both are needed)."""
        return self.code.encode(signature)

    # -- similarity estimation from packed vectors ---------------------

    def estimate_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Estimated Jaccard of row-aligned packed vector pairs.

        ``(P, n_words) x (P, n_words) -> (P,)`` float64 in [0, 1].

        full64: inverts Theorem 1 with the fixed-precision collision
        bias (vectorized :func:`hamming_to_jaccard` at ``b``).

        bbit: counts *fully agreeing slots* with the masked-popcount
        slot kernel and applies the Li & Koenig variance correction
        ``ŝ = (m̂ - C) / (1 - C)`` with ``C = 2**-β``, the probability
        that truncations of distinct values collide.
        """
        from repro.hamming.distance import (
            hamming_distance_pairs,
            slot_distance_pairs,
        )

        if isinstance(self.code, HadamardCode):
            dists = hamming_distance_pairs(a, b)
            sims = 1.0 - dists / self.dimension
            collide = 2.0 ** (-self.b)
            return np.clip(
                (2.0 * sims - 1.0 - collide) / (1.0 - collide), 0.0, 1.0
            )
        diff = slot_distance_pairs(a, b, self.code.m)
        matched = 1.0 - diff / self.k
        collide = 2.0 ** (-self.code.m)
        return np.clip((matched - collide) / (1.0 - collide), 0.0, 1.0)

    def estimate_many(self, matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
        """Estimated Jaccard of one packed vector against many rows.

        Same calibration as :meth:`estimate_pairs`, one-vs-many:
        ``(N, n_words) x (n_words,) -> (N,)``.
        """
        from repro.hamming.distance import (
            hamming_distance_many,
            slot_distance_many,
        )

        if isinstance(self.code, HadamardCode):
            s_h = 1.0 - hamming_distance_many(matrix, vector) / self.dimension
            collide = 2.0 ** (-self.b)
            return np.clip(
                (2.0 * s_h - 1.0 - collide) / (1.0 - collide), 0.0, 1.0
            )
        diff = slot_distance_many(matrix, vector, self.code.m)
        matched = 1.0 - diff / self.k
        collide = 2.0 ** (-self.code.m)
        return np.clip((matched - collide) / (1.0 - collide), 0.0, 1.0)

    def __repr__(self) -> str:
        return (
            f"SetEmbedder(k={self.k}, b={self.b}, seed={self.seed}, "
            f"codec={self.codec!r}, D={self.dimension})"
        )
