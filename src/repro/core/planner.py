"""Cost-based query planning: probe the index or fall back to a scan?

Section 6 derives analytically when the index beats the sequential
scan (result size under roughly ``N * a / rtn``).  A production system
should make that call *per query*, before doing the work.  The pieces
are already on hand:

* the similarity distribution ``D_S`` estimates how many candidates a
  range will attract (the selectivity-estimation idea of the CKKM00
  line of work the paper cites),
* the plan's :class:`~repro.core.optimizer.CaptureModel` says which
  filters a range probes and with what capture probability,
* the I/O model prices both alternatives.

``QueryPlanner`` combines them into per-range cost estimates and a
scan/index decision; ``SetSimilarityIndex.query(strategy="auto")``
consults it transparently.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro.core.optimizer import CaptureModel, IndexPlan
from repro.core.distribution import SimilarityDistribution
from repro.storage.iomodel import IOCostModel

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PlanEstimate:
    """Cost prediction for one query range."""

    expected_candidates: float
    expected_answers: float
    probe_tables: int
    index_cost: float
    scan_cost: float

    @property
    def use_index(self) -> bool:
        """Whether the index is predicted to beat the scan."""
        return self.index_cost <= self.scan_cost


class QueryPlanner:
    """Estimates per-range costs from the plan, ``D_S`` and the I/O model.

    Parameters
    ----------
    plan, distribution:
        The built index's optimizer output and similarity distribution.
    io:
        Shared cost model (prices random/sequential reads and CPU ops).
    n_sets, heap_pages, avg_set_size:
        Collection statistics for scaling the pairwise distribution to
        per-query counts and pricing fetches/scans.
    """

    def __init__(
        self,
        plan: IndexPlan,
        distribution: SimilarityDistribution,
        io: IOCostModel,
        n_sets: int,
        heap_pages: int,
        avg_set_size: float,
    ):
        self.plan = plan
        self.distribution = distribution
        self.io = io
        self.n_sets = n_sets
        self.heap_pages = heap_pages
        self.avg_set_size = avg_set_size
        self._capture = CaptureModel(plan.cut_points, plan.filters, plan.b)

    # -- selectivity -------------------------------------------------------

    def expected_candidates(self, sigma_low: float, sigma_high: float) -> float:
        """Expected candidate count for a random query with this range.

        ``D_S`` counts *pairs*; a random query set sees on average
        ``2 * mass / N`` partners per unit mass (each pair has two
        endpoints).  Capture probabilities then weight the mass the
        plan's probes would return.
        """
        if self.n_sets == 0:
            return 0.0
        grid, mass = self.distribution.centers, self.distribution.mass
        capture = self._capture.capture(sigma_low, sigma_high, grid)
        return float(np.sum(mass * capture)) * 2.0 / self.n_sets

    def expected_answers(self, sigma_low: float, sigma_high: float) -> float:
        """Expected true answer count for a random query with this range."""
        if self.n_sets == 0:
            return 0.0
        return (
            self.distribution.mass_between(sigma_low, sigma_high)
            * 2.0
            / self.n_sets
        )

    # -- costing -----------------------------------------------------------

    def probe_tables(self, sigma_low: float, sigma_high: float) -> int:
        """Hash tables the Section 4.3 plan probes for this range: the
        tables of exactly the filters the executor's plan names."""
        _, filters = self._capture.plan(sigma_low, sigma_high)
        return sum(f.n_tables for f in filters)

    def estimate(self, sigma_low: float, sigma_high: float) -> PlanEstimate:
        """Full cost comparison for one range."""
        candidates = self.expected_candidates(sigma_low, sigma_high)
        answers = self.expected_answers(sigma_low, sigma_high)
        tables = self.probe_tables(sigma_low, sigma_high)
        pages_per_set = max(1.0, self.avg_set_size / 64.0)
        fetch_cost = (
            self.io.random_cost
            + (pages_per_set - 1.0) * self.io.seq_cost
            + self.avg_set_size * self.io.cpu_cost
        )
        index_cost = tables * self.io.random_cost + candidates * fetch_cost
        if tables == 0:
            # Degenerate full-range plan: identical to a scan.
            index_cost = float("inf")
        scan_cost = (
            self.heap_pages * self.io.seq_cost
            + self.n_sets * self.avg_set_size * self.io.cpu_cost
        )
        return PlanEstimate(
            expected_candidates=candidates,
            expected_answers=answers,
            probe_tables=tables,
            index_cost=index_cost,
            scan_cost=scan_cost,
        )

    def choose(self, sigma_low: float, sigma_high: float) -> str:
        """``"index"`` or ``"scan"`` -- whichever is predicted cheaper."""
        estimate = self.estimate(sigma_low, sigma_high)
        strategy = "index" if estimate.use_index else "scan"
        logger.debug(
            "auto-plan [%.3f, %.3f]: index=%.1f scan=%.1f -> %s",
            sigma_low, sigma_high,
            estimate.index_cost, estimate.scan_cost, strategy,
        )
        return strategy
