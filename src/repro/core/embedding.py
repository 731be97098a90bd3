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

The first stage is pluggable via the signature *codec*
(:mod:`repro.core.codec`): the paper's MinHash or SuperMinHash.  What
an index stores per set is its **codes** -- the ``k`` signature values
reduced to ``b`` bits (:meth:`SetEmbedder.code_hashes`); the packed
vector is their Hadamard code, derived when a probe needs it
(:meth:`SetEmbedder.encode`), and pair similarity is estimated from the
codes by slot agreement (:meth:`SetEmbedder.estimate_pairs`).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.codec import make_hasher, parse_codec
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
        Signature codec spec (see :mod:`repro.core.codec`): ``"full64"``
        (MinHash, the default) or ``"superminhash"``.
    """

    def __init__(self, k: int = 100, b: int = 6, seed: int = 0,
                 codec: str = "full64"):
        spec = parse_codec(codec)
        self.codec = spec.name
        self.hasher = make_hasher(spec.generator, k, seed)
        self.code = HadamardCode(b)
        self.k = k
        self.b = b
        self.seed = seed
        #: Dtype of one stored code: ``b`` bits fit a byte up to b = 8.
        self.code_dtype = np.dtype(np.uint8 if b <= 8 else np.uint16)

    @property
    def m(self) -> int:
        """Codeword length in bits: ``2**b``."""
        return self.code.m

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

    def code_hashes(self, indptr: np.ndarray, hashes: np.ndarray) -> np.ndarray:
        """Codes of the sets whose element hashes are the rows of a
        :func:`~repro.core.minhash.hash_rows` CSR: each signature value
        reduced to its low ``b`` bits, shape ``(N, k)`` of
        :attr:`code_dtype` -- what an index stores per set."""
        if len(indptr) == 1:
            return np.empty((0, self.k), dtype=self.code_dtype)
        signatures = self.hasher.signature_csr(indptr, hashes)
        return (signatures & np.uint64(self.m - 1)).astype(self.code_dtype)

    def encode(self, codes: np.ndarray) -> np.ndarray:
        """Packed Hadamard embeddings of ``(N, k)`` codes, shape
        ``(N, n_words)``."""
        if len(codes) == 0:
            return np.empty((0, self.n_words), dtype=np.uint64)
        return self.code.encode_many(codes)

    def embed(self, elements: Iterable) -> np.ndarray:
        """Packed ``D``-bit embedding of one set (space ``H``)."""
        return self.code.encode(self.hasher.signature(elements))

    def embed_many(self, sets: Iterable[Iterable]) -> np.ndarray:
        """Packed embeddings of many sets, shape ``(N, n_words)``."""
        indptr, data, _ = hash_rows(sets)
        return self.encode(self.code_hashes(indptr, data))

    def embed_signature(self, signature: np.ndarray) -> np.ndarray:
        """Embed an existing signature (useful when both are needed)."""
        return self.code.encode(signature)

    def estimate_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Estimated Jaccard of row-aligned code pairs by slot agreement.

        ``(P, k) x (P, k) -> (P,)`` float64 in [0, 1].  The fraction of
        agreeing slots estimates ``s + (1 - s) * 2**-b`` (distinct
        values collide in ``b`` bits with probability ``2**-b``); the
        estimate inverts that.  It is the same number as inverting
        Theorem 1 on the Hamming distance of the two encodings, because
        two Hadamard codewords differ in exactly ``m / 2`` bits: their
        Hamming similarity is ``1 - x / (2k)`` for ``x`` disagreeing
        slots, and the arithmetic below is that inversion's, so the
        values are bit-identical to it.
        """
        disagree = np.count_nonzero(np.asarray(a) != np.asarray(b), axis=1)
        sims = 1.0 - disagree / (2.0 * self.k)
        collide = 2.0 ** (-self.b)
        return np.clip((2.0 * sims - 1.0 - collide) / (1.0 - collide), 0.0, 1.0)

    def __repr__(self) -> str:
        return (
            f"SetEmbedder(k={self.k}, b={self.b}, seed={self.seed}, "
            f"codec={self.codec!r}, D={self.dimension})"
        )
