"""Min-wise independent permutations via universal hashing (Section 3.1).

The Min Hashing technique of Broder et al. implicitly defines a random
order on the (unknown, unbounded) element universe: for a random
permutation ``pi``,

    Pr[ min pi(A) == min pi(B) ] = sim(A, B).

Repeating with ``k`` independent permutations yields the *min-hash
signature*; the fraction of agreeing coordinates is an unbiased
estimator of the Jaccard similarity.

As in the paper, permutations are approximated with universal hashing:
elements are first mapped to integers by a stable (seed-independent)
64-bit hash, then permuted with ``h(x) = (a*x + b) mod p`` for the
Mersenne prime ``p = 2**31 - 1``.  Keeping the residues below ``2**31``
lets the whole signature computation run in vectorized uint64 numpy
arithmetic without overflow.

Signatures keep full ``log2(p)``-bit precision; the embedding stage
reduces values to ``b`` bits (the paper's "number of fixed precision")
and accounts for the small collision bias that introduces.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

#: Mersenne prime used by the universal hash family.
MERSENNE_PRIME = (1 << 31) - 1


def canonical_element(element):
    """Fold builtin numerics that compare equal onto one value.

    Set semantics identify ``1 == 1.0 == True == 1+0j`` as a single
    element, so equal numbers must map to equal hashes (mirroring how
    Python gives them equal ``hash()``).  Numpy scalars are folded onto
    the builtin they compare equal to first (``np.int64(5) == 5`` is one
    element, but its repr is not ``5``).  Other non-builtin numerics
    (``Decimal``, ``Fraction``) are hashed by their own repr -- don't
    mix them cross-type with builtins in one collection.
    """
    if isinstance(element, np.generic):
        element = element.item()
    if isinstance(element, bool):
        return int(element)
    if isinstance(element, complex) and element.imag == 0:
        element = element.real
    if isinstance(element, float) and element.is_integer():
        return int(element)
    return element


def stable_element_hash(element) -> int:
    """Map an arbitrary hashable element to a stable 64-bit integer.

    Unlike builtin ``hash``, the result does not depend on
    ``PYTHONHASHSEED``, so signatures are reproducible across runs --
    a requirement for a persistent index.  Elements that compare equal
    hash equally (:func:`canonical_element`); ints take a fast path.
    """
    if not isinstance(element, (int, np.integer)):
        element = canonical_element(element)
    if isinstance(element, (int, np.integer)):
        try:
            payload = b"i" + int(element).to_bytes(16, "little", signed=True)
        except OverflowError:  # beyond 128 bits, e.g. int(1e300)
            payload = b"I" + str(int(element)).encode()
    elif isinstance(element, bytes):
        payload = b"b" + element
    elif isinstance(element, str):
        payload = b"s" + element.encode("utf-8")
    else:
        payload = b"r" + repr(element).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


class MinHasher:
    """Computes length-``k`` min-hash signatures of arbitrary sets.

    Parameters
    ----------
    k:
        Signature length (number of independent permutations).  The
        paper's timing experiments use ``k = 100``.
    seed:
        Seed for drawing the permutation parameters.  Two hashers with
        the same seed and ``k`` produce identical signatures, so a
        query can be signed consistently with a previously built index.
    """

    def __init__(self, k: int = 100, seed: int = 0):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._a = rng.integers(1, MERSENNE_PRIME, size=k, dtype=np.uint64)
        self._b = rng.integers(0, MERSENNE_PRIME, size=k, dtype=np.uint64)
        self._p = np.uint64(MERSENNE_PRIME)

    def signature(self, elements: Iterable) -> np.ndarray:
        """Min-hash signature of a set, shape ``(k,)`` of uint64.

        Raises ``ValueError`` for the empty set: ``min`` over an empty
        set is undefined, exactly as in the paper's formulation.
        """
        hashed = self.hash_elements(elements)
        if hashed.size == 0:
            raise ValueError("cannot compute a min-hash signature of the empty set")
        # (k, n) table of h_i(x_j); overflow-safe because a, x < 2**31.
        table = (self._a[:, np.newaxis] * hashed[np.newaxis, :] + self._b[:, np.newaxis]) % self._p
        return table.min(axis=1)

    def signature_matrix(
        self, sets: Iterable[Iterable], chunk_elements: int = 1 << 18
    ) -> np.ndarray:
        """Signatures of many sets stacked into shape ``(N, k)``.

        One vectorized pass: every element of the whole chunk is hashed
        once (duplicate elements across sets are hashed once and reused
        -- a batch can share most of its vocabulary), the universal-hash
        table is computed for all columns in a single uint64 numpy
        expression, and per-set minima are taken with segmented
        ``np.minimum.reduceat``.  Results are bit-identical to calling
        :meth:`signature` per set.

        ``chunk_elements`` bounds the working-set size (the hash table
        is ``k x chunk_elements`` of uint64); large collections are
        processed in chunks split on set boundaries.
        """
        sets = [s if hasattr(s, "__len__") else tuple(s) for s in sets]
        n = len(sets)
        out = np.empty((n, self.k), dtype=np.uint64)
        start = 0
        while start < n:
            stop, total = start, 0
            while stop < n and (stop == start or total + len(sets[stop]) <= chunk_elements):
                total += len(sets[stop])
                stop += 1
            chunk = sets[start:stop]
            counts = np.array([len(s) for s in chunk], dtype=np.int64)
            if np.any(counts == 0):
                raise ValueError("cannot compute a min-hash signature of the empty set")
            # Hash each distinct element once, then gather per occurrence.
            positions: dict = {}
            order: list = []
            indices = np.empty(total, dtype=np.int64)
            j = 0
            for s in chunk:
                for element in s:
                    idx = positions.get(element)
                    if idx is None:
                        idx = positions[element] = len(order)
                        order.append(element)
                    indices[j] = idx
                    j += 1
            hashed = self.hash_elements(order)[indices]
            # (k, total) table of h_i(x_j), reduced per set segment.
            table = (
                self._a[:, np.newaxis] * hashed[np.newaxis, :]
                + self._b[:, np.newaxis]
            ) % self._p
            offsets = np.zeros(len(chunk), dtype=np.int64)
            np.cumsum(counts[:-1], out=offsets[1:])
            out[start:stop] = np.minimum.reduceat(table, offsets, axis=1).T
            start = stop
        return out

    def hash_elements(self, elements: Iterable) -> np.ndarray:
        """Stable element hashes reduced modulo the Mersenne prime."""
        values = np.fromiter(
            (stable_element_hash(e) for e in elements), dtype=np.uint64
        )
        return values % self._p

    @staticmethod
    def estimate_similarity(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        """Unbiased Jaccard estimate: fraction of agreeing coordinates."""
        if sig_a.shape != sig_b.shape:
            raise ValueError(f"signature shapes differ: {sig_a.shape} vs {sig_b.shape}")
        return float(np.mean(sig_a == sig_b))

    def __repr__(self) -> str:
        return f"MinHasher(k={self.k}, seed={self.seed})"


_SPLITMIX_GOLDEN = 0x9E3779B97F4A7C15
_U64_MASK = (1 << 64) - 1


def _mix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (third twin; see exec.route/shard)."""
    x = np.array(values, dtype=np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


class SuperMinHasher:
    """SuperMinHash (Ertl, arXiv:1706.05698): lower-variance signatures.

    A drop-in alternative generator with the same interface as
    :class:`MinHasher`.  Where MinHash draws ``k`` independent uniform
    values per element (variance ``s(1-s)/k`` for the agreement
    estimator), SuperMinHash draws, per element, one uniform value
    ``j + r_j`` per *permutation step* ``j`` and scatters it into slot
    ``p[j]`` of a per-element Fisher-Yates permutation ``p`` of
    ``0..k-1``.  The joint structure makes slot values negatively
    correlated, cutting estimator variance by up to 2x for sets whose
    size is comparable to ``k`` -- with unchanged collision semantics:

        Pr[ slot_i(A) == slot_i(B) ] = sim(A, B).

    Values are quantized to uint64 as ``(j << 32) | floor(r_j * 2**32)``
    -- numeric order equals the algorithm's lexicographic ``(j, r)``
    order, so per-set minima are plain uint64 minima and any packing
    codec consumes the values unchanged (``full64`` reduces them mod
    ``2**b``; ``bbit`` keeps the low bits -- both land in the uniform
    fractional part).

    All randomness is counter-based splitmix64 keyed by the stable
    element hash and the seed, so signatures are deterministic across
    runs and processes, exactly like :class:`MinHasher`.
    """

    def __init__(self, k: int = 100, seed: int = 0):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self.seed = seed
        self._seed_key = _mix64(
            np.uint64((seed * _SPLITMIX_GOLDEN + 1) & _U64_MASK)
        )

    def hash_elements(self, elements: Iterable) -> np.ndarray:
        """Stable full-width 64-bit element hashes."""
        return np.fromiter(
            (stable_element_hash(e) for e in elements), dtype=np.uint64
        )

    def _element_values(self, hashed: np.ndarray) -> np.ndarray:
        """Per-element SuperMinHash value vectors, shape ``(n, k)``.

        Row ``e`` is the length-``k`` value vector of element ``e``:
        slot ``p_e[j]`` holds ``(j << 32) | r32`` where ``p_e`` is the
        element's Fisher-Yates permutation and ``r32`` its step-``j``
        uniform draw.  Each slot is written exactly once per element
        (``p_e`` is a permutation), so no per-element minima are
        needed; cross-element minima happen in the callers.
        """
        n = hashed.shape[0]
        k = self.k
        base = _mix64(hashed ^ self._seed_key)
        perm = np.tile(np.arange(k, dtype=np.int64), (n, 1))
        vals = np.empty((n, k), dtype=np.uint64)
        rows = np.arange(n)
        for j in range(k):
            z_r = _mix64(base + np.uint64(((2 * j + 1) * _SPLITMIX_GOLDEN) & _U64_MASK))
            z_k = _mix64(base + np.uint64(((2 * j + 2) * _SPLITMIX_GOLDEN) & _U64_MASK))
            r32 = z_r >> np.uint64(32)
            # Fisher-Yates: swap perm[j] with perm[idx], idx uniform in
            # [j, k).  (Modulo bias is O(k / 2**64) -- negligible.)
            idx = j + (z_k % np.uint64(k - j)).astype(np.int64)
            p_idx = perm[rows, idx]
            perm[rows, idx] = perm[:, j]
            perm[:, j] = p_idx
            vals[rows, p_idx] = (np.uint64(j) << np.uint64(32)) | r32
        return vals

    def signature(self, elements: Iterable) -> np.ndarray:
        """SuperMinHash signature of a set, shape ``(k,)`` of uint64."""
        hashed = self.hash_elements(elements)
        if hashed.size == 0:
            raise ValueError("cannot compute a min-hash signature of the empty set")
        return self._element_values(np.unique(hashed)).min(axis=0)

    def signature_matrix(
        self, sets: Iterable[Iterable], chunk_elements: int = 1 << 18
    ) -> np.ndarray:
        """Signatures of many sets stacked into shape ``(N, k)``.

        Mirrors :meth:`MinHasher.signature_matrix`: distinct elements
        of a chunk are hashed (and their value vectors computed) once,
        gathered per occurrence, and reduced per set segment with
        ``np.minimum.reduceat``.  Bit-identical to per-set
        :meth:`signature` calls.
        """
        sets = [s if hasattr(s, "__len__") else tuple(s) for s in sets]
        n = len(sets)
        out = np.empty((n, self.k), dtype=np.uint64)
        start = 0
        while start < n:
            stop, total = start, 0
            while stop < n and (stop == start or total + len(sets[stop]) <= chunk_elements):
                total += len(sets[stop])
                stop += 1
            chunk = sets[start:stop]
            counts = np.array([len(s) for s in chunk], dtype=np.int64)
            if np.any(counts == 0):
                raise ValueError("cannot compute a min-hash signature of the empty set")
            positions: dict = {}
            order: list = []
            indices = np.empty(total, dtype=np.int64)
            j = 0
            for s in chunk:
                for element in s:
                    idx = positions.get(element)
                    if idx is None:
                        idx = positions[element] = len(order)
                        order.append(element)
                    indices[j] = idx
                    j += 1
            values = self._element_values(self.hash_elements(order))[indices]
            offsets = np.zeros(len(chunk), dtype=np.int64)
            np.cumsum(counts[:-1], out=offsets[1:])
            out[start:stop] = np.minimum.reduceat(values, offsets, axis=0)
            start = stop
        return out

    estimate_similarity = staticmethod(MinHasher.estimate_similarity)

    def __repr__(self) -> str:
        return f"SuperMinHasher(k={self.k}, seed={self.seed})"
