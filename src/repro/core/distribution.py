"""The pairwise similarity distribution ``D_S`` (Section 5).

``D_S(s)`` counts, for every similarity value ``s``, the number of set
pairs in the collection that are ``s``-similar.  The optimizer needs it
to quantify expected false positives/negatives (Definitions 6-7), to
place filter indices equidepth (Definition 10 / Lemma 4) and to split
the similarity axis between DFIs and SFIs (Equation 15).

Computing ``D_S`` exactly takes all ``N(N-1)/2`` pairwise similarities;
Lemma 1 observes a size-``b`` random sample of those pairs can be drawn
in one pass and suffices.  Both paths are provided; the sampled
histogram is scaled up to total-pair mass so the downstream integrals
keep their meaning as expected set counts.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.minhash import MinHasher, hash_rows
from repro.core.similarity import jaccard


def _exact_pairwise_loop(sets: Sequence[frozenset]) -> np.ndarray:
    """All ``N(N-1)/2`` pairwise similarities via per-pair ``jaccard``.

    The legacy pure-Python double loop, kept as the equivalence and
    benchmark baseline for :func:`exact_pairwise_similarities`.
    """
    n = len(sets)
    return np.fromiter(
        (
            jaccard(sets[i], sets[j])
            for i in range(n)
            for j in range(i + 1, n)
        ),
        dtype=np.float64,
        count=n * (n - 1) // 2,
    )


def exact_pairwise_similarities(sets: Sequence[frozenset]) -> np.ndarray:
    """All ``N(N-1)/2`` pairwise Jaccard values, vectorized.

    Bit-identical to :func:`_exact_pairwise_loop` (same ``(i, j)``,
    ``i < j``, row-major order) but computed by co-occurrence counting
    over the collection's hashed elements
    (:func:`repro.core.minhash.hash_rows`): every element occurrence is
    tagged with its row, one global sort groups equal elements, and
    each group's within-group row pairs are accumulated straight into
    the condensed pair vector (pass ``k`` matches occurrences ``k``
    apart in the sorted order, so the pass count is the maximum element
    multiplicity).  Work scales with the total pairwise-intersection
    mass -- the information content of the answer -- instead of
    ``O(N^2)`` Python set intersections.

    Sets whose hash array is unusable (an intra-set 64-bit collision,
    ~2^-64 per element pair) fall back to exact per-pair ``jaccard``
    for every pair involving them.
    """
    n = len(sets)
    n_pairs = n * (n - 1) // 2
    if n_pairs == 0:
        return np.empty(0, dtype=np.float64)
    indptr, flat, collided = hash_rows(sets)
    collided_ids = np.flatnonzero(collided).tolist()
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    order = np.argsort(flat, kind="stable")
    svals = flat[order]
    # Stable sort keeps rows ascending within an equal-value run (rows
    # were emitted in ascending order), so matched pairs come out with
    # a < b already -- except duplicates inside one collided row, which
    # surface as a == b and are dropped (those rows are redone below).
    srows = rows[order]
    inter = np.zeros(n_pairs, dtype=np.int64)
    two_n_minus_1 = np.int64(2 * n - 1)
    k = 1
    while k < svals.size:
        match = np.flatnonzero(svals[k:] == svals[:-k])
        if match.size == 0:
            break
        a = srows[match]
        b = srows[match + k]
        keep = a < b
        if not keep.all():
            a, b = a[keep], b[keep]
        # Condensed row-major index of pair (a, b), a < b.
        idx = a * (two_n_minus_1 - a) // 2 + (b - a - 1)
        inter += np.bincount(idx, minlength=n_pairs)
        k += 1
    sizes = np.fromiter((len(s) for s in sets), dtype=np.int64, count=n)
    i_idx, j_idx = np.triu_indices(n, k=1)
    union = sizes[i_idx] + sizes[j_idx] - inter
    out = np.ones(n_pairs, dtype=np.float64)  # union 0: both empty -> 1.0
    nonempty = union > 0
    out[nonempty] = inter[nonempty] / union[nonempty]
    for c in collided_ids:
        involved = np.flatnonzero((i_idx == c) | (j_idx == c))
        for pos in involved:
            other = int(j_idx[pos]) if i_idx[pos] == c else int(i_idx[pos])
            out[pos] = jaccard(sets[c], sets[other])
    return out


def sample_pairwise_similarities(
    sets: Sequence[frozenset],
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """A uniform random sample of pairwise Jaccard similarities (Lemma 1).

    Pairs ``(i, j)``, ``i < j``, are drawn uniformly with replacement;
    with in-memory sets one pass over the data is trivially enough,
    which is the point of the lemma for disk-resident collections.
    """
    n = len(sets)
    if n < 2:
        return np.empty(0, dtype=np.float64)
    i = rng.integers(0, n, size=n_samples)
    j = rng.integers(0, n - 1, size=n_samples)
    j = np.where(j >= i, j + 1, j)  # j != i, uniform over the rest
    return np.fromiter(
        (jaccard(sets[a], sets[b]) for a, b in zip(i, j)),
        dtype=np.float64,
        count=n_samples,
    )


def signature_pairwise_similarities(
    signatures: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Like :func:`sample_pairwise_similarities` but estimated from
    min-hash signatures -- each sample costs ``O(k)`` instead of a full
    set intersection."""
    n = signatures.shape[0]
    if n < 2:
        return np.empty(0, dtype=np.float64)
    i = rng.integers(0, n, size=n_samples)
    j = rng.integers(0, n - 1, size=n_samples)
    j = np.where(j >= i, j + 1, j)
    return (signatures[i] == signatures[j]).mean(axis=1)


class SimilarityDistribution:
    """Histogram form of ``D_S`` over ``n_bins`` equal-width bins of [0, 1].

    ``mass[i]`` is the (possibly estimated) number of set pairs whose
    similarity falls in bin ``i``; ``sum(mass) == N(N-1)/2``.
    """

    def __init__(self, mass: np.ndarray, n_sets: int):
        mass = np.asarray(mass, dtype=np.float64)
        if mass.ndim != 1 or mass.size == 0:
            raise ValueError("mass must be a non-empty 1-d array")
        if np.any(mass < 0):
            raise ValueError("mass must be non-negative")
        self.mass = mass
        self.n_sets = n_sets
        self.n_bins = mass.size
        self.edges = np.linspace(0.0, 1.0, self.n_bins + 1)
        self.centers = (self.edges[:-1] + self.edges[1:]) / 2.0
        self._cumulative = np.concatenate(([0.0], np.cumsum(mass)))

    # -- construction ----------------------------------------------------

    @classmethod
    def from_sets(
        cls,
        sets: Sequence[Iterable],
        n_bins: int = 100,
        sample_pairs: int | None = None,
        seed: int = 0,
        hasher: MinHasher | None = None,
        exact_method: str = "columnar",
    ) -> "SimilarityDistribution":
        """Estimate ``D_S`` from a collection.

        Parameters
        ----------
        sample_pairs:
            If set (and smaller than the number of pairs), estimate
            from that many sampled pairs per Lemma 1; otherwise compute
            all pairwise similarities exactly.
        hasher:
            If given, sampled similarities are estimated from min-hash
            signatures instead of exact intersections (cheaper for
            large sets, with the estimator's sampling error).
        exact_method:
            How the exact branch computes all pairs: ``"columnar"``
            (vectorized, the default) or ``"loop"`` (the per-pair
            Python baseline).  Both yield bit-identical values.
        """
        sets = [s if isinstance(s, frozenset) else frozenset(s) for s in sets]
        n = len(sets)
        total_pairs = n * (n - 1) // 2
        if total_pairs == 0:
            return cls(np.zeros(n_bins), n)
        rng = np.random.default_rng(seed)
        if sample_pairs is not None and sample_pairs < total_pairs:
            if hasher is not None:
                signatures = hasher.signature_matrix(sets)
                values = signature_pairwise_similarities(signatures, sample_pairs, rng)
            else:
                values = sample_pairwise_similarities(sets, sample_pairs, rng)
            scale = total_pairs / len(values)
        else:
            if exact_method == "columnar":
                values = exact_pairwise_similarities(sets)
            elif exact_method == "loop":
                values = _exact_pairwise_loop(sets)
            else:
                raise ValueError(f"unknown exact_method: {exact_method!r}")
            scale = 1.0
        counts, _ = np.histogram(values, bins=n_bins, range=(0.0, 1.0))
        return cls(counts.astype(np.float64) * scale, n)

    @classmethod
    def from_values(
        cls, values: np.ndarray, n_sets: int, n_bins: int = 100
    ) -> "SimilarityDistribution":
        """Build directly from similarity values (mass = sample counts)."""
        counts, _ = np.histogram(
            np.asarray(values, dtype=np.float64), bins=n_bins, range=(0.0, 1.0)
        )
        return cls(counts.astype(np.float64), n_sets)

    # -- queries ----------------------------------------------------------

    @property
    def total_mass(self) -> float:
        """Total pair count represented: ``~ N(N-1)/2``."""
        return float(self._cumulative[-1])

    def mass_between(self, lo: float, hi: float) -> float:
        """``integral_lo^hi D_S(s) ds`` with linear within-bin interpolation."""
        if hi < lo:
            raise ValueError(f"invalid interval [{lo}, {hi}]")
        return self._cdf(hi) - self._cdf(lo)

    def _cdf(self, s: float) -> float:
        s = min(1.0, max(0.0, s))
        position = s * self.n_bins
        index = min(self.n_bins - 1, int(position))
        fraction = position - index
        return float(self._cumulative[index] + fraction * self.mass[index])

    def quantile(self, q: float) -> float:
        """Similarity value below which a ``q`` fraction of pair mass lies."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        target = q * self.total_mass
        index = int(np.searchsorted(self._cumulative, target, side="left"))
        index = min(max(index - 1, 0), self.n_bins - 1)
        below = self._cumulative[index]
        bin_mass = self.mass[index]
        fraction = 0.0 if bin_mass == 0 else (target - below) / bin_mass
        fraction = min(1.0, max(0.0, fraction))
        return float(self.edges[index] + fraction * (self.edges[index + 1] - self.edges[index]))

    def equidepth_points(self, n_intervals: int) -> list[float]:
        """Interior cut points of a ``n_intervals``-wise equidepth
        decomposition (Definition 10): ``n_intervals - 1`` points that
        split the pair mass into equal parts."""
        if n_intervals < 1:
            raise ValueError(f"n_intervals must be >= 1, got {n_intervals}")
        return [self.quantile(i / n_intervals) for i in range(1, n_intervals)]

    def delta_split(self) -> float:
        """The ``delta`` of Equation 15: equal pair mass on either side."""
        return self.quantile(0.5)
