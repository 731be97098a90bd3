"""Drivers for every table/figure in the paper plus DESIGN.md ablations.

Each ``run_*`` function regenerates one evaluation artifact:

========  ==========================================================
FIG6A     :func:`run_fig6` with ``budget=500`` -- per-bucket precision
          and recall for both datasets (paper Fig. 6(a))
FIG6B     :func:`run_fig6` with ``budget=1000`` (paper Fig. 6(b))
FIG7A/B   :func:`run_fig7` -- per-bucket response time, Scan vs Index
          with I/O and CPU separated (paper Fig. 7(a)/(b))
XOVER     :func:`run_crossover` -- the Section 6 analytic claim that
          the index wins while result size stays under ~N/rtn
EX1       :func:`run_embedding_distortion` -- Example 1: naive binary
          embedding distorts similarity, the ECC embedding does not
ABL-RL    :func:`run_filter_tradeoff` -- accuracy of p_{r,l} vs l
ABL-EQ    :func:`run_placement_ablation` -- equidepth vs uniform cuts
ABL-GREEDY:func:`run_allocation_ablation` -- greedy vs uniform tables
ABL-DFI   :func:`run_dfi_benefit` -- DFIs vs SFI-only low-range plans
========  ==========================================================

The paper ran 200,000-set collections and 1,000 queries per bucket on
a 2001 testbed; defaults here are scaled down (configurable) so the
whole suite replays in minutes, and response "time" comes from the
shared I/O cost model rather than a wall clock -- shapes, not absolute
numbers, are the reproduction target (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.baselines.naive_embedding import NaiveBinaryEmbedder, embedding_distortion
from repro.core.distribution import SimilarityDistribution
from repro.core.embedding import SetEmbedder, jaccard_to_hamming
from repro.core.filter_function import FilterFunction
from repro.core.index import SetSimilarityIndex
from repro.core.optimizer import (
    SFI,
    PlannedFilter,
    average_precision,
    average_recall,
    evaluate_ranges,
    greedy_allocate,
    plan_index,
    uniform_allocate,
    worst_precision,
    worst_recall,
)
from repro.data.queries import QueryWorkload, RangeQuery
from repro.data.weblog import make_set1, make_set2
from repro.eval.harness import BucketSummary, ExperimentHarness
from repro.eval.report import format_table


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for the dataset-scale experiments."""

    n_sets: int = 1200
    budget: int = 500
    recall_target: float = 0.9
    k: int = 100
    b: int = 6
    n_queries: int = 150
    seed: int = 0
    sample_pairs: int | None = 100_000
    #: Optional cap on any single filter's hash tables; bounds probe
    #: cost per query (see greedy_allocate) at small collection scales.
    max_per_filter: int | None = None

    def scaled(self, **overrides) -> "ExperimentConfig":
        return replace(self, **overrides)


_DATASETS = {"set1": make_set1, "set2": make_set2}


def make_dataset(name: str, n_sets: int, seed: int = 0) -> list[frozenset[int]]:
    """Instantiate one of the paper's dataset surrogates by name."""
    try:
        maker = _DATASETS[name]
    except KeyError:
        raise ValueError(f"unknown dataset {name!r}; options: {sorted(_DATASETS)}")
    return maker(n_sets, seed=seed + 1)


def build_harness(name: str, config: ExperimentConfig) -> ExperimentHarness:
    """Build the index + scan + oracle bundle for one dataset."""
    sets = make_dataset(name, config.n_sets, config.seed)
    index = SetSimilarityIndex.build(
        sets,
        budget=config.budget,
        recall_target=config.recall_target,
        k=config.k,
        b=config.b,
        seed=config.seed,
        sample_pairs=config.sample_pairs,
        max_per_filter=config.max_per_filter,
    )
    return ExperimentHarness(sets, index)


# -- FIG6A / FIG6B -----------------------------------------------------------


@dataclass
class Fig6Result:
    budget: int
    summaries: dict[str, list[BucketSummary]]
    expected_recall: dict[str, float]

    def table(self) -> str:
        rows = []
        for name, buckets in self.summaries.items():
            for s in buckets:
                rows.append([name, s.label, s.n_queries, s.precision, s.recall])
        return format_table(
            ["dataset", "result size", "queries", "precision", "recall"], rows
        )


def run_fig6(
    config: ExperimentConfig | None = None,
    budget: int = 500,
    datasets: tuple[str, ...] = ("set1", "set2"),
) -> Fig6Result:
    """Fig. 6: precision and recall per result-size bucket.

    Paper shape: the optimization's recall goal (~0.9) is met in every
    bucket on average, while precision decreases as result size grows
    (large results come from low-similarity ranges where the filters
    are least selective).
    """
    config = (config or ExperimentConfig()).scaled(budget=budget)
    summaries, expected = {}, {}
    for name in datasets:
        harness = build_harness(name, config)
        workload = QueryWorkload(len(harness.sets), seed=config.seed + 17)
        records = harness.run(workload.sample(config.n_queries), measure_scan=False)
        summaries[name] = harness.bucket_summaries(records)
        expected[name] = harness.index.plan.expected_recall
    return Fig6Result(budget=config.budget, summaries=summaries, expected_recall=expected)


# -- FIG7A / FIG7B -----------------------------------------------------------


@dataclass
class Fig7Result:
    dataset: str
    budget: int
    summaries: list[BucketSummary]
    #: Per-query trace summaries (only with ``collect_trace=True``).
    trace_summaries: list[dict] | None = None

    def table(self) -> str:
        rows = [
            [
                s.label,
                s.n_queries,
                s.scan_io_time,
                s.scan_cpu_time,
                s.scan_time,
                s.index_io_time,
                s.index_cpu_time,
                s.index_time,
            ]
            for s in self.summaries
        ]
        return format_table(
            [
                "result size",
                "queries",
                "scan io",
                "scan cpu",
                "scan total",
                "index io",
                "index cpu",
                "index total",
            ],
            rows,
        )


def run_fig7(
    dataset: str = "set1",
    config: ExperimentConfig | None = None,
    budget: int = 1000,
    collect_trace: bool = False,
) -> Fig7Result:
    """Fig. 7: average response time per bucket, Scan vs Index.

    Paper shape: the index beats the scan for every bucket with result
    size below ~25% of the collection; index time grows with result
    size (more candidates -> more random fetches) while scan time is
    flat.

    ``collect_trace=True`` additionally traces every index query and
    returns the per-query filter summaries (``trace_summaries``) for
    JSON artifacts.
    """
    config = (config or ExperimentConfig()).scaled(budget=budget)
    harness = build_harness(dataset, config)
    workload = QueryWorkload(len(harness.sets), seed=config.seed + 29)
    records = harness.run(
        workload.sample(config.n_queries),
        measure_scan=True,
        collect_trace=collect_trace,
    )
    return Fig7Result(
        dataset=dataset,
        budget=config.budget,
        summaries=harness.bucket_summaries(records),
        trace_summaries=(
            [r.trace_summary for r in records] if collect_trace else None
        ),
    )


# -- XOVER -------------------------------------------------------------------


@dataclass
class CrossoverResult:
    rows: list[tuple[float, float, float]]  # (result fraction, scan, index)
    predicted_fraction: float

    def table(self) -> str:
        return format_table(
            ["result fraction", "scan time", "index time", "index wins"],
            [[f, s, i, "yes" if i < s else "no"] for f, s, i in self.rows],
        )

    def measured_crossover(self) -> float | None:
        """Smallest result fraction at which the scan wins."""
        for fraction, scan_time, index_time in self.rows:
            if index_time >= scan_time:
                return fraction
        return None


def run_crossover(
    dataset: str = "set1",
    config: ExperimentConfig | None = None,
    n_bins: int = 10,
) -> CrossoverResult:
    """Section 6's analytic crossover: index wins while the result size
    stays below roughly ``N * a / rtn`` sets (a = pages per set).

    Queries are binned by measured candidate fraction; per bin the mean
    scan and index times are compared.
    """
    config = config or ExperimentConfig()
    harness = build_harness(dataset, config)
    workload = QueryWorkload(len(harness.sets), seed=config.seed + 43)
    records = harness.run(workload.sample(config.n_queries), measure_scan=True)
    n = max(1, harness.index.n_sets)
    fractions = np.array([r.n_candidates / n for r in records])
    edges = np.linspace(0.0, max(1e-9, fractions.max()), n_bins + 1)
    rows = []
    for i in range(n_bins):
        mask = (fractions >= edges[i]) & (
            fractions <= edges[i + 1] if i == n_bins - 1 else fractions < edges[i + 1]
        )
        members = [r for r, m in zip(records, mask) if m]
        if not members:
            continue
        rows.append(
            (
                float(np.mean(fractions[mask])),
                float(np.mean([r.scan_time for r in members])),
                float(np.mean([r.index_time for r in members])),
            )
        )
    io = harness.index.io
    pages_per_set = harness.index.store.n_pages / n
    predicted = pages_per_set * io.seq_cost / io.random_cost
    return CrossoverResult(rows=rows, predicted_fraction=predicted)


# -- EX1 ---------------------------------------------------------------------


@dataclass
class DistortionResult:
    rows: list[tuple[float, float, float, float]]
    naive_rmse: float
    ecc_rmse: float

    def table(self) -> str:
        return format_table(
            ["signature sim", "expected S_H", "ecc S_H", "naive S_H"],
            [[s, e, ecc, naive] for s, e, ecc, naive in self.rows],
        )


def run_embedding_distortion(
    n_pairs: int = 200,
    k: int = 100,
    b: int = 6,
    seed: int = 0,
) -> DistortionResult:
    """Example 1 quantified: embedded Hamming similarity vs the ideal
    ``(1 + s) / 2`` line for the ECC embedding and the naive binary
    concatenation.

    Paper shape: the ECC embedding sits on the line (zero distortion up
    to the fixed-precision bias); the naive embedding scatters well
    above it.
    """
    rng = np.random.default_rng(seed)
    ecc = SetEmbedder(k=k, b=b, seed=seed)
    naive = NaiveBinaryEmbedder(k=k, b=b, seed=seed)
    rows = []
    naive_sq, ecc_sq = [], []
    for _ in range(n_pairs):
        # Construct signature pairs with a controlled agreement level.
        agree = rng.random()
        sig_a = rng.integers(0, 1 << b, size=k, dtype=np.uint64)
        sig_b = sig_a.copy()
        flip = rng.random(k) >= agree
        # Replace disagreeing coordinates with guaranteed-different values.
        offsets = rng.integers(1, 1 << b, size=k, dtype=np.uint64)
        sig_b[flip] = (sig_b[flip] + offsets[flip]) % np.uint64(1 << b)
        s, s_h_ecc = embedding_distortion(ecc, sig_a, sig_b)
        _, s_h_naive = embedding_distortion(naive, sig_a, sig_b)
        expected = (1.0 + s) / 2.0
        rows.append((s, expected, s_h_ecc, s_h_naive))
        ecc_sq.append((s_h_ecc - expected) ** 2)
        naive_sq.append((s_h_naive - expected) ** 2)
    rows.sort()
    return DistortionResult(
        rows=rows,
        naive_rmse=float(np.sqrt(np.mean(naive_sq))),
        ecc_rmse=float(np.sqrt(np.mean(ecc_sq))),
    )


# -- ABL-RL ------------------------------------------------------------------


@dataclass
class FilterTradeoffResult:
    threshold: float
    rows: list[tuple[int, int, float, float, float]]

    def table(self) -> str:
        return format_table(
            ["l", "r", "false pos", "false neg", "total error"],
            [list(row) for row in self.rows],
        )


def run_filter_tradeoff(
    dataset: str = "set1",
    n_sets: int = 800,
    threshold: float = 0.5,
    l_values: tuple[int, ...] = (1, 2, 5, 10, 20, 50, 100, 200),
    b: int = 6,
    seed: int = 0,
) -> FilterTradeoffResult:
    """Section 4.1/5 trade-off: more tables -> steeper filter -> less
    expected error, with diminishing returns.

    Errors are the Definition 6/7 integrals against the dataset's
    similarity distribution for an SFI at ``threshold`` (Jaccard).
    """
    sets = make_dataset(dataset, n_sets, seed)
    dist = SimilarityDistribution.from_sets(sets, sample_pairs=100_000, seed=seed)
    s_h_grid = jaccard_to_hamming(dist.centers, b)
    s_star = jaccard_to_hamming(threshold, b)
    rows = []
    for l in l_values:
        ff = FilterFunction.for_threshold(s_star, l)
        fp = ff.expected_false_positives(s_h_grid, dist.mass, s_star)
        fn = ff.expected_false_negatives(s_h_grid, dist.mass, s_star)
        rows.append((l, ff.r, fp, fn, fp + fn))
    return FilterTradeoffResult(threshold=threshold, rows=rows)


# -- ABL-EQ / ABL-GREEDY -----------------------------------------------------


@dataclass
class PlanAblationResult:
    rows: list[tuple[str, float, float, float, float, int]]

    def table(self) -> str:
        return format_table(
            ["variant", "avg recall", "avg precision", "wc recall", "wc precision", "tables"],
            [list(row) for row in self.rows],
        )


def _plan_row(name, dist, budget, b, placement, allocator) -> tuple:
    plan = plan_index(
        dist, budget, recall_target=0.0 + 1e-9, b=b, placement=placement, allocator=allocator
    )
    stats = evaluate_ranges(plan.cut_points, plan.filters, dist, b)
    floor = dist.total_mass / 100.0
    return (
        name,
        average_recall(stats),
        average_precision(stats),
        worst_recall(stats, min_answer=floor),
        worst_precision(stats, min_answer=floor),
        plan.tables_used,
    )


def run_placement_ablation(
    dataset: str = "set1",
    n_sets: int = 800,
    budget: int = 300,
    b: int = 6,
    seed: int = 0,
) -> PlanAblationResult:
    """Lemma 4 ablation: equidepth cut placement vs uniform spacing.

    Paper shape: equidepth placement gives better worst-case precision
    (uniform placement leaves some intervals with far more pair mass
    than others).
    """
    sets = make_dataset(dataset, n_sets, seed)
    dist = SimilarityDistribution.from_sets(sets, sample_pairs=100_000, seed=seed)
    rows = [
        _plan_row("equidepth", dist, budget, b, "equidepth", greedy_allocate),
        _plan_row("uniform", dist, budget, b, "uniform", greedy_allocate),
    ]
    return PlanAblationResult(rows=rows)


def run_allocation_ablation(
    dataset: str = "set1",
    n_sets: int = 800,
    budget: int = 300,
    b: int = 6,
    seed: int = 0,
) -> PlanAblationResult:
    """Lemma 6 ablation: greedy table allocation vs an even split.

    Paper shape: greedy allocation equalizes (and reduces) per-filter
    error, improving expected recall for the same budget.
    """
    sets = make_dataset(dataset, n_sets, seed)
    dist = SimilarityDistribution.from_sets(sets, sample_pairs=100_000, seed=seed)
    rows = [
        _plan_row("greedy", dist, budget, b, "equidepth", greedy_allocate),
        _plan_row("uniform-alloc", dist, budget, b, "equidepth", uniform_allocate),
    ]
    return PlanAblationResult(rows=rows)


# -- ABL-DFI -----------------------------------------------------------------


@dataclass
class DfiBenefitResult:
    rows: list[tuple[str, float, float, float]]

    def table(self) -> str:
        return format_table(
            ["plan", "avg candidates", "avg recall", "avg index time"],
            [list(row) for row in self.rows],
        )


def run_dfi_benefit(
    dataset: str = "set1",
    config: ExperimentConfig | None = None,
    sigma_high: float | None = None,
    n_queries: int = 40,
) -> DfiBenefitResult:
    """Section 4.2 motivation: for low-similarity ranges ``[0, sigma]``
    a DFI probe returns the dissimilar candidate set directly, while an
    SFI-only index must fall back to "everything minus SimVector" --
    paying the whole collection plus the probe.

    ``sigma_high`` defaults to the largest DFI cut point of the built
    plan, the range endpoint where a dissimilarity probe is actually
    available (queries ending between cut points use the enclosing
    point either way).

    Paper shape: the DFI plan touches fewer candidates at equal recall
    on low ranges.
    """
    config = config or ExperimentConfig(n_sets=600, budget=200, n_queries=n_queries)
    sets = make_dataset(dataset, config.n_sets, config.seed)
    dist = SimilarityDistribution.from_sets(
        sets, sample_pairs=config.sample_pairs, seed=config.seed
    )
    plan = plan_index(dist, config.budget, recall_target=config.recall_target, b=config.b)
    if sigma_high is None:
        dfi_points = [f.point for f in plan.filters if f.kind != SFI]
        sigma_high = max(dfi_points) if dfi_points else plan.delta
    index_with = SetSimilarityIndex.from_plan(
        sets, plan, dist, k=config.k, b=config.b, seed=config.seed
    )
    sfi_only_filters = _sfi_only(plan.filters)
    greedy_allocate(sfi_only_filters, config.budget, dist, config.b)
    plan_without = replace(plan, filters=sfi_only_filters)
    index_without = SetSimilarityIndex.from_plan(
        sets, plan_without, dist, k=config.k, b=config.b, seed=config.seed
    )
    rng = np.random.default_rng(config.seed + 5)
    queries = [int(rng.integers(0, len(sets))) for _ in range(n_queries)]
    rows = []
    for label, index in (("with DFIs", index_with), ("SFI only", index_without)):
        harness = ExperimentHarness(sets, index)
        cands, recalls, times = [], [], []
        for qi in queries:
            record = harness.run_query(
                RangeQuery(qi, 0.0, sigma_high), measure_scan=False
            )
            cands.append(record.n_candidates)
            recalls.append(record.recall)
            times.append(record.index_time)
        rows.append(
            (label, float(np.mean(cands)), float(np.mean(recalls)), float(np.mean(times)))
        )
    return DfiBenefitResult(rows=rows)


def _sfi_only(filters: list[PlannedFilter]) -> list[PlannedFilter]:
    """Re-kind every planned filter as an SFI (dropping DFI duplicates)."""
    points = sorted({f.point for f in filters})
    return [PlannedFilter(point, SFI) for point in points]
