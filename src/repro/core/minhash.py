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

from repro.hamming.splitmix import GOLDEN, MASK64, mix64, mix64_array

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

    The engine's one element hash: signatures, verify rows, shard
    partitions and routing bits all derive from it (see
    :func:`stable_hashes` for the batch form).  Unlike builtin
    ``hash``, the result does not depend on ``PYTHONHASHSEED``, so
    signatures are reproducible across runs -- a requirement for a
    persistent index.  Elements that compare equal hash equally
    (:func:`canonical_element`): a set-typed element hashes its sorted
    member hashes, so its member order is immaterial.  Strings encode
    with ``surrogatepass``, so a lone surrogate hashes as it is stored.
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
        payload = b"s" + element.encode("utf-8", "surrogatepass")
    elif isinstance(element, (frozenset, set)):
        members = sorted(map(stable_element_hash, element))
        payload = b"f" + np.asarray(members, dtype="<u8").tobytes()
    else:
        payload = b"r" + repr(element).encode("utf-8", "surrogatepass")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def stable_hashes(elements) -> np.ndarray:
    """:func:`stable_element_hash` of every element, as a uint64 array
    in input order: the hash pass everything else derives from.

    Each distinct value is digested once.  When every element is a
    builtin int in int64 range (decided from the element types; nothing
    else is converted) the pass sort-uniques them in numpy and digests
    each distinct value's 16-byte little-endian payload, cut from one
    prebuilt buffer, behind a digest state already fed the ``b"i"`` tag
    -- the bytes :func:`stable_element_hash` digests for that int.  Any
    other batch is deduplicated through a dict (elements that compare
    equal hash equally) and digests each distinct element once.
    """
    elements = elements if isinstance(elements, (list, tuple)) else list(elements)
    n = len(elements)
    values = None
    if n and set(map(type, elements)) == {int}:
        try:
            values = np.fromiter(elements, dtype=np.int64, count=n)
        except OverflowError:  # an int beyond int64
            pass
    if values is None:
        slot = {e: i for i, e in enumerate(dict.fromkeys(elements))}
        inverse = np.fromiter(map(slot.__getitem__, elements), np.int64, n)
        hashes = np.fromiter(
            map(stable_element_hash, slot), dtype=np.uint64, count=len(slot)
        )
        return hashes[inverse]
    distinct, inverse = _distinct(values)
    words = np.empty((len(distinct), 2), dtype="<i8")
    words[:, 0] = distinct
    words[:, 1] = distinct >> 63  # the payload's sign-extended high half
    payload = words.tobytes()
    copy = hashlib.blake2b(b"i", digest_size=8).copy
    digests = []
    for at in range(0, len(payload), 16):
        state = copy()
        state.update(payload[at:at + 16])
        digests.append(state.digest())
    hashes = np.frombuffer(b"".join(digests), dtype="<u8").astype(np.uint64)
    return hashes[inverse]


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct, inverse)``: the ascending distinct values of a 1-d
    array and each entry's position among them (sort plus a run mask,
    much faster than ``np.unique`` on 64-bit integers)."""
    ordered = np.sort(values)
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    return distinct, np.searchsorted(distinct, values)


def hash_rows(sets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every set's sorted element hashes in one CSR, from one hash pass.

    Returns ``(indptr, data, collided)``: ``data[indptr[i]:indptr[i +
    1]]`` is set ``i``'s :func:`stable_element_hash` values, ascending,
    one per element, and ``collided[i]`` says two distinct elements of
    set ``i`` share a hash (its row then repeats a value and
    under-counts the set as a hash set).  Signatures
    (:meth:`MinHasher.signature_csr`), exact-verify rows and routing bit
    positions are all read off these rows.
    """
    sets = [s if hasattr(s, "__len__") else tuple(s) for s in sets]
    counts = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    indptr = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    hashes = stable_hashes([e for s in sets for e in s])
    row_of = np.repeat(np.arange(len(sets), dtype=np.int64), counts)
    data = hashes[np.lexsort((hashes, row_of))]
    collided = np.zeros(len(sets), dtype=bool)
    repeat = (data[1:] == data[:-1]) & (row_of[1:] == row_of[:-1])
    collided[row_of[1:][repeat]] = True
    return indptr, data, collided


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
        return self._table(hashed).min(axis=1)

    def signature_matrix(
        self, sets: Iterable[Iterable], chunk_elements: int = 1 << 18
    ) -> np.ndarray:
        """Signatures of many sets stacked into shape ``(N, k)``: one
        :func:`hash_rows` pass, then :meth:`signature_csr`.  Results are
        bit-identical to calling :meth:`signature` per set."""
        indptr, data, _ = hash_rows(sets)
        return self.signature_csr(indptr, data, chunk_elements)

    def signature_csr(
        self, indptr: np.ndarray, hashes: np.ndarray,
        chunk_elements: int = 1 << 18,
    ) -> np.ndarray:
        """Signatures of the sets whose element hashes are the CSR rows
        ``hashes[indptr[i]:indptr[i + 1]]`` (a :func:`hash_rows` CSR),
        shape ``(N, k)``.

        The universal-hash table is computed for all columns of a chunk
        in a single uint64 numpy expression, and per-set minima are
        taken with segmented ``np.minimum.reduceat``.
        ``chunk_elements`` bounds the working-set size (the table is
        ``k x chunk_elements`` of uint64); large collections are
        processed in chunks split on set boundaries.
        """
        return _chunked_minima(
            indptr, chunk_elements, self.k,
            lambda a, b: self._table(hashes[a:b] % self._p), axis=1,
        )

    def _table(self, hashed: np.ndarray) -> np.ndarray:
        """``(k, n)`` table of ``h_i(x_j)``; overflow-safe because
        ``a, x < 2**31``."""
        return (
            self._a[:, np.newaxis] * hashed[np.newaxis, :]
            + self._b[:, np.newaxis]
        ) % self._p

    def hash_elements(self, elements: Iterable) -> np.ndarray:
        """Stable element hashes reduced modulo the Mersenne prime."""
        return stable_hashes(elements) % self._p

    @staticmethod
    def estimate_similarity(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        """Unbiased Jaccard estimate: fraction of agreeing coordinates."""
        if sig_a.shape != sig_b.shape:
            raise ValueError(f"signature shapes differ: {sig_a.shape} vs {sig_b.shape}")
        return float(np.mean(sig_a == sig_b))

    def __repr__(self) -> str:
        return f"MinHasher(k={self.k}, seed={self.seed})"


def _chunked_minima(indptr, chunk_elements: int, k: int, values, axis: int):
    """Per-row minima of per-element value vectors, ``(N, k)``.

    ``values(a, b)`` gives the vectors of elements ``a .. b - 1`` along
    ``axis`` (``(k, b - a)`` for ``axis=1``, ``(b - a, k)`` for 0); rows
    are processed in chunks of at most ``chunk_elements`` elements (at
    least one row each), split on row boundaries.
    """
    n = len(indptr) - 1
    if np.any(indptr[1:] == indptr[:-1]):
        raise ValueError("cannot compute a min-hash signature of the empty set")
    out = np.empty((n, k), dtype=np.uint64)
    start = 0
    while start < n:
        stop = int(np.searchsorted(
            indptr, indptr[start] + chunk_elements, side="right"
        )) - 1
        stop = max(start + 1, stop)
        a, b = int(indptr[start]), int(indptr[stop])
        minima = np.minimum.reduceat(
            values(a, b), indptr[start:stop] - a, axis=axis
        )
        out[start:stop] = minima.T if axis == 1 else minima
        start = stop
    return out


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
    order, so per-set minima are plain uint64 minima and the embedder
    consumes the values unchanged (its codes are the values mod
    ``2**b``, which land in the uniform fractional part).

    All randomness is counter-based splitmix64 keyed by the stable
    element hash and the seed, so signatures are deterministic across
    runs and processes, exactly like :class:`MinHasher`.
    """

    def __init__(self, k: int = 100, seed: int = 0):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self.seed = seed
        self._seed_key = np.uint64(mix64(seed * GOLDEN + 1))

    def hash_elements(self, elements: Iterable) -> np.ndarray:
        """Stable full-width 64-bit element hashes."""
        return stable_hashes(elements)

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
        base = mix64_array(hashed ^ self._seed_key)
        perm = np.tile(np.arange(k, dtype=np.int64), (n, 1))
        vals = np.empty((n, k), dtype=np.uint64)
        rows = np.arange(n)
        for j in range(k):
            z_r = mix64_array(base + np.uint64(((2 * j + 1) * GOLDEN) & MASK64))
            z_k = mix64_array(base + np.uint64(((2 * j + 2) * GOLDEN) & MASK64))
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
        """Signatures of many sets stacked into shape ``(N, k)``;
        bit-identical to per-set :meth:`signature` calls."""
        indptr, data, _ = hash_rows(sets)
        return self.signature_csr(indptr, data, chunk_elements)

    def signature_csr(
        self, indptr: np.ndarray, hashes: np.ndarray,
        chunk_elements: int = 1 << 18,
    ) -> np.ndarray:
        """Signatures from a :func:`hash_rows` CSR, shape ``(N, k)``.

        Mirrors :meth:`MinHasher.signature_csr`: the value vectors of a
        chunk's distinct hashes are computed once, gathered per element
        and reduced per set segment with ``np.minimum.reduceat``.
        """
        def values(a, b):
            distinct, inverse = _distinct(hashes[a:b])
            return self._element_values(distinct)[inverse]

        return _chunked_minima(indptr, chunk_elements, self.k, values, axis=0)

    estimate_similarity = staticmethod(MinHasher.estimate_similarity)

    def __repr__(self) -> str:
        return f"SuperMinHasher(k={self.k}, seed={self.seed})"
