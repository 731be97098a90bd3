"""Index optimization: placement, allocation and the Fig. 4 loop.

Section 5 of the paper turns index construction into a constrained
optimization: given a budget of ``b`` hash tables and a threshold ``T``
on expected recall, choose

* the number of similarity intervals (Fig. 4 outer loop, guided by
  Lemmas 3 and 5),
* the location of the cut points (equidepth in ``D_S``; Lemma 4),
* the kind of each filter index -- DFIs below the median-mass point
  ``delta`` of Equation 15, SFIs above, both at the point nearest
  ``delta`` (Section 5.3),
* and the number of hash tables per filter index (the Greedy algorithm
  of Fig. 5; Lemma 6),

so that expected precision is maximized while expected recall stays
above ``T``.

Expectations follow the paper's workload model: query sets drawn from
the collection and similarity ranges chosen uniformly at random
(Section 6: "the bounds for each similarity range associated with a
query are chosen at random", and the index is "optimized for 90%
*average* recall").  For a candidate plan we therefore integrate the
plan's capture probability against the similarity distribution over a
canonical grid of query ranges and average; the per-interval
worst-case numbers of Lemmas 2-5 are also exposed for analysis.

All filter functions are evaluated in Hamming similarity via the
Jaccard -> Hamming conversion of Theorem 1 (including the
fixed-precision bias).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.distribution import SimilarityDistribution
from repro.core.embedding import jaccard_to_hamming
from repro.core.filter_function import FilterFunction, solve_r
from repro.core.query_plan import enclosing_points, plan_probes

#: Filter kind markers.
SFI = "sfi"
DFI = "dfi"


@dataclass
class PlannedFilter:
    """One filter index the plan calls for.

    ``point`` is the cut point in Jaccard similarity.  The actual
    structure operates in Hamming similarity: an SFI's turning point is
    ``jaccard_to_hamming(point)``; a DFI's underlying SFI sits at the
    complement of that (handled by the DFI class itself).
    """

    point: float
    kind: str
    n_tables: int = 0

    def hamming_threshold(self, b: int | None = None) -> float:
        """Turning point handed to the SFI/DFI constructor."""
        return jaccard_to_hamming(self.point, b)

    def collision_probability(self, s_grid: np.ndarray, b: int | None = None) -> np.ndarray:
        """Probability the filter's probe returns a set that is
        ``s``-Jaccard-similar to the query, for each ``s`` in the grid."""
        if self.n_tables <= 0:
            return np.zeros_like(np.asarray(s_grid, dtype=np.float64))
        ff = self._filter_function(b)
        s_h = jaccard_to_hamming(np.asarray(s_grid, dtype=np.float64), b)
        if self.kind == DFI:
            return ff(1.0 - s_h)
        return ff(s_h)

    def _filter_function(self, b: int | None = None) -> FilterFunction:
        threshold = self.hamming_threshold(b)
        if self.kind == DFI:
            threshold = 1.0 - threshold
        return FilterFunction.for_threshold(threshold, self.n_tables)

    def expected_error(
        self,
        dist: SimilarityDistribution,
        b: int | None = None,
        band: float = 0.0,
    ) -> float:
        """Expected false positives + false negatives (Defs 6 and 7).

        For an SFI the "retrieve" side is similarities above the point;
        for a DFI it is similarities below.  With no tables, everything
        on the retrieve side is a false negative.

        ``band`` excludes ``point +- band`` from the integrals.  Pair
        mass inside that band is unresolvable by construction (the
        filter crosses 1/2 exactly at the point, so neighbours are coin
        flips no matter how many tables are spent); counting it would
        swamp the allocation gradient that Fig. 5's greedy follows.
        """
        grid, mass = dist.centers, dist.mass
        retrieve = grid >= self.point if self.kind == SFI else grid <= self.point
        resolvable = np.abs(grid - self.point) > band
        if self.n_tables <= 0:
            return float(mass[retrieve & resolvable].sum())
        p = self.collision_probability(grid, b)
        fn_mask = retrieve & resolvable
        fp_mask = ~retrieve & resolvable
        false_neg = float(np.sum(mass[fn_mask] * (1.0 - p[fn_mask])))
        false_pos = float(np.sum(mass[fp_mask] * p[fp_mask]))
        return false_neg + false_pos


@dataclass
class RangeStats:
    """Expected behaviour of one query range under a plan."""

    sigma_low: float
    sigma_high: float
    recall: float
    precision: float
    expected_candidates: float
    expected_answer: float


@dataclass
class IndexPlan:
    """The optimizer's output: where filters go and how big they are."""

    cut_points: list[float]
    delta: float
    filters: list[PlannedFilter]
    expected_recall: float
    expected_precision: float
    b: int | None = None
    #: Whether the plan's expected recall met the construction target.
    #: When no plan can (the distribution is too concentrated for the
    #: budget), the most-accurate non-degenerate plan is returned with
    #: this flag False rather than silently degrading to a full scan.
    met_target: bool = True

    @property
    def tables_used(self) -> int:
        """Total hash tables the plan allocates."""
        return sum(f.n_tables for f in self.filters)

    @property
    def n_intervals(self) -> int:
        """Number of similarity intervals (cut points + 1)."""
        return len(self.cut_points) + 1

    def filters_at(self, point: float) -> list[PlannedFilter]:
        """The planned filters placed at one cut point."""
        return [f for f in self.filters if f.point == point]

    def kind_at(self, point: float) -> set[str]:
        """Which kinds (SFI/DFI) the plan places at one cut point."""
        return {f.kind for f in self.filters_at(point)}


def place_filters(cut_points: list[float], delta: float) -> list[PlannedFilter]:
    """Assign kinds to cut points per Section 5.3.

    Points below ``delta`` become DFIs, points above become SFIs, and
    the point closest to ``delta`` gets both kinds so mixed-range
    queries can pivot there.
    """
    if not cut_points:
        return []
    filters: list[PlannedFilter] = []
    pivot = min(cut_points, key=lambda c: abs(c - delta))
    for point in cut_points:
        if point == pivot:
            filters.append(PlannedFilter(point, DFI))
            filters.append(PlannedFilter(point, SFI))
        elif point < delta:
            filters.append(PlannedFilter(point, DFI))
        else:
            filters.append(PlannedFilter(point, SFI))
    return filters


def greedy_allocate(
    filters: list[PlannedFilter],
    budget: int,
    dist: SimilarityDistribution,
    b: int | None = None,
    band: float = 0.05,
    max_per_filter: int | None = None,
) -> int:
    """The Greedy algorithm of Fig. 5 (Lemma 6), mutating ``n_tables``.

    Tables go, one batch at a time, to the filter whose expected error
    per table spent drops the most.  Every filter is seeded with one
    table first (a zero-table filter cannot answer probes at all, and
    its first table removes its entire false-negative mass, so the
    paper's greedy would reach the same state).

    Because ``r`` is re-solved to an *integer* whenever ``l`` changes,
    the raw error curve ``error(l)`` jitters; a strictly one-step
    greedy would stall on the first uphill step.  We therefore
    precompute each filter's error curve, take its running-minimum
    envelope, and let the greedy jump to the next envelope drop
    (best error-reduction per table).  Tables that cannot reduce any
    filter's envelope further are withheld; the number actually
    assigned is returned.
    """
    if not filters or budget < len(filters):
        for f in filters:
            f.n_tables = 0
        return 0
    n = len(filters)
    max_tables = budget - (n - 1)
    if max_per_filter is not None:
        # A query probes every table of its enclosing filters, so this
        # bounds per-query probe cost -- an engineering guard the paper
        # (whose scans dwarfed probes at 200k sets) did not need, but
        # small collections do.
        max_tables = max(1, min(max_tables, max_per_filter))
    curves = [
        np.minimum.accumulate(_error_curve(f, dist, b, band, max_tables))
        for f in filters
    ]
    alloc, used = _greedy_over_curves(curves, budget, max_tables)
    for f, l in zip(filters, alloc):
        f.n_tables = l
    return used


def _greedy_over_curves(
    curves: list[np.ndarray], budget: int, max_tables: int
) -> tuple[list[int], int]:
    """The Fig. 5 greedy loop over precomputed error envelopes.

    Every curve is seeded with one table; the remaining budget goes,
    one envelope drop at a time, to the curve with the best error
    reduction per table.  Returns (allocation, tables used)."""
    n = len(curves)
    alloc = [1] * n
    used = n
    epsilon = 1e-12
    while used < budget:
        remaining = budget - used
        best = None  # (rate, curve index, target l, new error)
        for i, curve in enumerate(curves):
            current = curve[alloc[i] - 1]
            hi = min(max_tables, alloc[i] + remaining)
            segment = curve[alloc[i] : hi]
            if segment.size == 0:
                continue
            drops = np.flatnonzero(segment < current - epsilon)
            if drops.size == 0:
                continue
            step = int(drops[0]) + 1
            gain = current - segment[drops[0]]
            rate = gain / step
            if best is None or rate > best[0]:
                best = (rate, i, alloc[i] + step, segment[drops[0]])
        if best is None:
            break
        _, i, target, _ = best
        used += target - alloc[i]
        alloc[i] = target
    return alloc, used


@lru_cache(maxsize=4096)
def _solve_r_vector(threshold: float, max_tables: int) -> tuple[int, ...]:
    """``solve_r(threshold, l)`` for l = 1..max_tables, memoized --
    thresholds repeat across the Fig. 4 loop's iterations."""
    return tuple(solve_r(threshold, l) for l in range(1, max_tables + 1))


def _error_curve(
    f: PlannedFilter,
    dist: SimilarityDistribution,
    b: int | None,
    band: float,
    max_tables: int,
) -> np.ndarray:
    """``expected_error`` of filter ``f`` for every ``l`` in 1..max_tables.

    Vectorized over ``l``: one ``(L, bins)`` evaluation of
    ``p_{r(l),l}`` instead of ``L`` independent integrals, so the
    greedy allocator stays fast at four-digit budgets.
    """
    grid, mass = dist.centers, dist.mass
    retrieve = grid >= f.point if f.kind == SFI else grid <= f.point
    resolvable = np.abs(grid - f.point) > band
    s_h = jaccard_to_hamming(grid, b)
    x = s_h if f.kind == SFI else 1.0 - s_h
    threshold = f.hamming_threshold(b)
    if f.kind == DFI:
        threshold = 1.0 - threshold
    ls = np.arange(1, max_tables + 1, dtype=np.float64)
    rs = np.asarray(_solve_r_vector(round(threshold, 9), max_tables))
    log_x = np.log(np.clip(x, 1e-300, 1.0))
    x_pow_r = np.exp(rs[:, np.newaxis] * log_x[np.newaxis, :])  # (L, bins)
    p = 1.0 - (1.0 - x_pow_r) ** ls[:, np.newaxis]
    fn_mass = np.where(retrieve & resolvable, mass, 0.0)
    fp_mass = np.where(~retrieve & resolvable, mass, 0.0)
    return (1.0 - p) @ fn_mass + p @ fp_mass


def uniform_allocate(
    filters: list[PlannedFilter],
    budget: int,
    dist: SimilarityDistribution | None = None,
    b: int | None = None,
    band: float = 0.05,
    max_per_filter: int | None = None,
) -> int:
    """Baseline allocator for the ablation: split the budget evenly.

    ``dist`` and ``b`` are accepted (and ignored) so all allocators
    share the signature :func:`plan_index` expects.
    """
    if not filters:
        return 0
    base, extra = divmod(budget, len(filters))
    for i, f in enumerate(filters):
        f.n_tables = base + (1 if i < extra else 0)
        if max_per_filter is not None:
            f.n_tables = min(f.n_tables, max_per_filter)
    return sum(f.n_tables for f in filters)


class CaptureModel:
    """Analytic model of a plan's candidate-generation behaviour.

    Evaluates the Section 4.3 plan the executor would run
    (:func:`repro.core.query_plan.plan_probes` over the planned filters
    that hold tables) in probability space: given a query range it
    returns the probability, per similarity value, that a set at that
    similarity enters the candidate list.
    """

    def __init__(
        self,
        cut_points: list[float],
        filters: list[PlannedFilter],
        b: int | None = None,
    ):
        self.cut_points = sorted(cut_points)
        self.b = b
        #: kind -> {cut point: filter}: the ``sfis`` / ``dfis`` containers
        #: ``plan_probes`` reads.
        self._filters: dict[str, dict[float, PlannedFilter]] = {SFI: {}, DFI: {}}
        for f in filters:
            if f.n_tables > 0:
                self._filters[f.kind][f.point] = f

    def enclosing(self, sigma_low: float, sigma_high: float) -> tuple[float | None, float | None]:
        """Cut points minimally enclosing a range (None = virtual 0/1)."""
        return enclosing_points(self.cut_points, sigma_low, sigma_high)

    def plan(
        self, sigma_low: float, sigma_high: float
    ) -> tuple[str, list[PlannedFilter]]:
        """The plan family for a range and the filters it probes, in
        the order :func:`~repro.core.query_plan.plan_probes` lists them."""
        plan, probes, _ = plan_probes(
            self.cut_points, self._filters[SFI], self._filters[DFI],
            sigma_low, sigma_high,
        )
        return plan, [self._filters[kind][point] for kind, point in probes]

    def capture(self, sigma_low: float, sigma_high: float, s_grid: np.ndarray) -> np.ndarray:
        """Capture probability over ``s_grid`` for range ``[lo, up]``:
        the plan's candidate algebra
        (:func:`~repro.core.query_plan.combine_candidates`) folded over
        the probed filters' ``p_{r,l}`` curves."""
        s_grid = np.asarray(s_grid, dtype=np.float64)
        plan, filters = self.plan(sigma_low, sigma_high)
        p = [f.collision_probability(s_grid, self.b) for f in filters]
        if plan == "full_collection":
            return np.ones_like(s_grid)
        if plan in ("dfi(up)", "sfi(lo)"):
            return p[0]
        if plan in ("complement_sfi(up)", "complement_dfi(lo)"):
            return 1.0 - p[0]
        if plan == "sfi_difference":
            return p[0] * (1.0 - p[1])
        if plan == "dfi_difference":
            return p[1] * (1.0 - p[0])
        # pivot_union: (dfi(pivot) - dfi(lo)) | (sfi(pivot) - sfi(up)).
        low_side = p[0] * (1.0 - p[1])
        high_side = p[2] * (1.0 - p[3])
        return low_side + high_side - low_side * high_side


def default_range_workload(step: float = 0.05) -> list[tuple[float, float]]:
    """The canonical query-range workload expectations are taken over:
    every pair ``sigma_low < sigma_high`` on a uniform grid, matching
    the paper's uniformly random range endpoints."""
    grid = np.round(np.arange(0.0, 1.0 + step / 2, step), 10)
    return [
        (float(a), float(b))
        for i, a in enumerate(grid)
        for b in grid[i + 1 :]
    ]


def evaluate_ranges(
    cut_points: list[float],
    filters: list[PlannedFilter],
    dist: SimilarityDistribution,
    b: int | None = None,
    ranges: list[tuple[float, float]] | None = None,
) -> list[RangeStats]:
    """Expected recall/precision of a plan for each query range.

    For each range the plan's capture probability is integrated against
    ``D_S``: recall is captured-in-range over total-in-range; precision
    is captured-in-range over total captured.  Ranges with no answer
    mass are skipped (their recall is undefined and their retrieval
    cost is captured by neighbouring ranges).
    """
    if ranges is None:
        ranges = default_range_workload()
    model = CaptureModel(cut_points, filters, b)
    grid, mass = dist.centers, dist.mass
    stats: list[RangeStats] = []
    for sigma_low, sigma_high in ranges:
        in_range = (grid >= sigma_low) & (grid <= sigma_high)
        answer = float(mass[in_range].sum())
        if answer == 0:
            continue
        capture = model.capture(sigma_low, sigma_high, grid)
        captured_in_range = float(np.sum(mass[in_range] * capture[in_range]))
        captured_total = float(np.sum(mass * capture))
        stats.append(
            RangeStats(
                sigma_low=sigma_low,
                sigma_high=sigma_high,
                recall=captured_in_range / answer,
                precision=1.0 if captured_total == 0 else captured_in_range / captured_total,
                expected_candidates=captured_total,
                expected_answer=answer,
            )
        )
    return stats


def evaluate_plan(
    cut_points: list[float],
    filters: list[PlannedFilter],
    dist: SimilarityDistribution,
    b: int | None = None,
) -> list[RangeStats]:
    """Per-interval statistics: the ranges aligned with the cut points
    themselves (the Lemma 2-5 analysis granularity)."""
    bounds = [0.0, *sorted(cut_points), 1.0]
    ranges = [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    return evaluate_ranges(cut_points, filters, dist, b, ranges)


def average_recall(stats: list[RangeStats]) -> float:
    """Mean per-range expected recall over a workload (Definition 8)."""
    return float(np.mean([s.recall for s in stats])) if stats else 1.0


def average_precision(stats: list[RangeStats]) -> float:
    """Mean per-range expected precision over a workload (Definition 9)."""
    return float(np.mean([s.precision for s in stats])) if stats else 1.0


def worst_recall(stats: list[RangeStats], min_answer: float = 0.0) -> float:
    """Worst-case recall over ranges with expected answer >= min_answer
    (the paper's "queries with expected answer size at least a")."""
    eligible = [s.recall for s in stats if s.expected_answer >= min_answer]
    return min(eligible) if eligible else 1.0


def worst_precision(stats: list[RangeStats], min_answer: float = 0.0) -> float:
    """Worst-case precision over ranges with answers >= ``min_answer``."""
    eligible = [s.precision for s in stats if s.expected_answer >= min_answer]
    return min(eligible) if eligible else 1.0


def plan_index(
    dist: SimilarityDistribution,
    budget: int,
    recall_target: float = 0.9,
    b: int | None = None,
    max_intervals: int | None = None,
    min_gap: float = 0.02,
    allocator=greedy_allocate,
    placement: str = "equidepth",
    ranges: list[tuple[float, float]] | None = None,
    max_per_filter: int | None = None,
) -> IndexPlan:
    """The Index Construction algorithm of Fig. 4.

    Starting from one interval (no filters: the degenerate full-scan
    plan), grow the number of equidepth intervals, allocating the
    hash-table budget at each step and evaluating expected recall and
    precision over the query-range workload.  Per Objective 2 the
    returned plan is the one with the best expected precision among
    those whose expected recall meets ``recall_target`` (Lemma 3 says
    recall only degrades and Lemma 5 that precision improves as
    intervals are added, so on smooth distributions this is the last
    passing plan, exactly the paper's loop; cut-point deduplication on
    spiky distributions makes the trend non-monotone, so we scan a few
    steps past the first miss instead of stopping dead on it).

    Parameters
    ----------
    placement:
        ``"equidepth"`` (Lemma 4, the paper's choice) or ``"uniform"``
        (equal-width intervals; the ablation baseline).
    min_gap:
        Minimum distance between cut points.  Defaults to roughly the
        embedding's resolution: with ``D ~ 6400`` bits the standard
        deviation of measured Hamming similarity is ~0.006, i.e. ~0.012
        in Jaccard -- cuts closer than that are indistinguishable by
        any filter, so equidepth quantiles inside a mass spike are
        merged and additional intervals spill into the rest of the
        range instead.
    ranges:
        Query-range workload to evaluate against; defaults to the
        uniform grid of :func:`default_range_workload`.
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if not 0.0 < recall_target <= 1.0:
        raise ValueError(f"recall_target must be in (0, 1], got {recall_target}")
    if placement not in ("equidepth", "uniform"):
        raise ValueError(f"unknown placement: {placement!r}")
    if max_intervals is None:
        # Deep enough that an equidepth quantile can reach a thin
        # similar tail (tail fraction f needs ~1/f intervals); plans
        # whose distinct cut points repeat are skipped, so sweeping
        # high is cheap on spiky distributions.
        max_intervals = max(2, min(96, budget))
    if ranges is None:
        ranges = default_range_workload()
    delta = dist.delta_split()
    best: IndexPlan | None = None
    fallback: IndexPlan | None = None
    evaluated: set[tuple[float, ...]] = set()
    consecutive_misses = 0
    for n_intervals in range(2, max_intervals + 1):
        if placement == "equidepth":
            raw_points = dist.equidepth_points(n_intervals)
        else:
            raw_points = [i / n_intervals for i in range(1, n_intervals)]
        points = _distinct_points(raw_points, min_gap)
        # Quantize at half the resolution gap: successive n whose cuts
        # only jitter inside the unresolvable band are the same plan.
        key = tuple(int(p / (min_gap / 2)) for p in points)
        if key in evaluated:
            continue  # dedupe collapsed this step to a known plan
        evaluated.add(key)
        filters = place_filters(points, delta)
        if len(filters) > budget:
            break  # cannot give every filter even one table
        allocator(filters, budget, dist, b, max_per_filter=max_per_filter)
        stats = evaluate_ranges(points, filters, dist, b, ranges)
        recall = average_recall(stats)
        precision = average_precision(stats)
        plan = IndexPlan(
            cut_points=points,
            delta=delta,
            filters=filters,
            expected_recall=recall,
            expected_precision=precision,
            b=b,
            met_target=recall >= recall_target,
        )
        if fallback is None or recall > fallback.expected_recall:
            fallback = plan
        if recall < recall_target:
            consecutive_misses += 1
            if consecutive_misses >= 3:
                break  # Lemma 3: recall keeps degrading from here
            continue
        consecutive_misses = 0
        if best is None or precision > best.expected_precision:
            best = plan
    if best is not None:
        return best
    if fallback is not None:
        return fallback
    # Not even a 2-interval plan was constructible: degenerate scan plan.
    return IndexPlan(
        cut_points=[],
        delta=delta,
        filters=[],
        expected_recall=1.0,
        expected_precision=0.0,
        b=b,
        met_target=recall_target <= 1.0,
    )


def _distinct_points(points: list[float], min_gap: float) -> list[float]:
    """Drop near-duplicate cut points and clamp away from {0, 1}."""
    distinct: list[float] = []
    for p in sorted(points):
        p = min(1.0 - min_gap, max(min_gap, p))
        if not distinct or p - distinct[-1] >= min_gap:
            distinct.append(p)
    return distinct
