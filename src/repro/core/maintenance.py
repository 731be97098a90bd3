"""Index maintenance: distribution drift and re-optimization.

The optimizer's cut points, filter kinds and table allocation are all
functions of the pairwise-similarity distribution sampled at build
time (Section 5).  The structures stay *correct* under inserts and
deletes -- hash tables are dynamic -- but their *tuning* silently
degrades if the collection's similarity profile drifts (e.g. a burst
of near-duplicates shifts mass to the right of every cut point).

This module closes that loop:

* :func:`distribution_drift` -- total-variation distance between the
  build-time ``D_S`` and a fresh sample of the current collection;
* :class:`MaintenanceAdvisor` -- tracks update churn, re-samples on
  demand, and recommends a rebuild when drift or churn crosses
  configurable thresholds;
* :func:`rebuild` -- re-runs the Fig. 4 construction over the current
  contents and returns a freshly tuned index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distribution import SimilarityDistribution
from repro.core.index import SetSimilarityIndex


def distribution_drift(
    old: SimilarityDistribution, new: SimilarityDistribution
) -> float:
    """Total-variation distance between two similarity histograms.

    Both are normalized to probability mass first, so collections of
    different sizes compare on shape; the result lies in [0, 1].
    Empty distributions count as uniform agreement (drift 0 vs another
    empty, 1 vs anything with mass).
    """
    if old.n_bins != new.n_bins:
        raise ValueError(
            f"histograms have different resolutions: {old.n_bins} vs {new.n_bins}"
        )
    old_total, new_total = old.total_mass, new.total_mass
    if old_total == 0 and new_total == 0:
        return 0.0
    if old_total == 0 or new_total == 0:
        return 1.0
    return float(0.5 * np.abs(old.mass / old_total - new.mass / new_total).sum())


@dataclass
class MaintenanceReport:
    """The advisor's verdict."""

    churn_fraction: float
    drift: float
    should_rebuild: bool
    reason: str


class MaintenanceAdvisor:
    """Watches an index for tuning decay.

    Parameters
    ----------
    index:
        The index to watch; its plan's distribution is the baseline.
    churn_threshold:
        Recommend rebuilding once inserts+deletes since construction
        exceed this fraction of the collection size.
    drift_threshold:
        Recommend rebuilding once the re-sampled similarity histogram
        moves this far (total variation) from the build-time one.
    """

    def __init__(
        self,
        index: SetSimilarityIndex,
        churn_threshold: float = 0.25,
        drift_threshold: float = 0.15,
    ):
        if churn_threshold <= 0 or drift_threshold <= 0:
            raise ValueError("thresholds must be positive")
        self.index = index
        self.churn_threshold = churn_threshold
        self.drift_threshold = drift_threshold
        self._built_sids = set(index.sids)
        self._built_size = max(1, index.n_sets)

    @property
    def churn_fraction(self) -> float:
        """(inserts + deletes since build) / build-time size."""
        current = self.index.sids
        inserted = len(current - self._built_sids)
        deleted = len(self._built_sids - current)
        return (inserted + deleted) / self._built_size

    def sample_current_distribution(
        self, sample_pairs: int = 20_000, seed: int = 0
    ) -> SimilarityDistribution:
        """Re-estimate ``D_S`` over the index's current contents."""
        sets = [self.index.store.get(sid) for sid in sorted(self.index.sids)]
        return SimilarityDistribution.from_sets(
            sets,
            n_bins=self.index.distribution.n_bins,
            sample_pairs=sample_pairs,
            seed=seed,
        )

    def check(self, sample_pairs: int = 20_000, seed: int = 0) -> MaintenanceReport:
        """Assess churn and drift; recommend a rebuild if either trips."""
        churn = self.churn_fraction
        if churn >= self.churn_threshold:
            current = self.sample_current_distribution(sample_pairs, seed)
            drift = distribution_drift(self.index.distribution, current)
        else:
            drift = 0.0
        if churn >= self.churn_threshold and drift >= self.drift_threshold:
            verdict, reason = True, (
                f"churn {churn:.0%} and similarity drift {drift:.2f} "
                "exceed thresholds"
            )
        elif churn >= self.churn_threshold:
            verdict, reason = False, (
                f"churn {churn:.0%} is high but the similarity profile "
                f"is stable (drift {drift:.2f})"
            )
        else:
            verdict, reason = False, f"churn {churn:.0%} below threshold"
        return MaintenanceReport(
            churn_fraction=churn, drift=drift, should_rebuild=verdict, reason=reason
        )


def rebuild(
    index: SetSimilarityIndex,
    budget: int | None = None,
    recall_target: float = 0.9,
    seed: int = 0,
    sample_pairs: int | None = 100_000,
) -> SetSimilarityIndex:
    """Re-run construction over the index's current contents.

    Returns a new, freshly optimized index; the original is untouched
    (swap atomically at the call site).  ``budget`` defaults to the
    old plan's table usage.
    """
    sets = [index.store.get(sid) for sid in sorted(index.sids)]
    if budget is None:
        budget = max(1, index.plan.tables_used)
    return SetSimilarityIndex.build(
        sets,
        budget=budget,
        recall_target=recall_target,
        k=index.embedder.k,
        b=index.embedder.b,
        seed=seed,
        sample_pairs=sample_pairs,
        codec=index.embedder.codec,
    )
