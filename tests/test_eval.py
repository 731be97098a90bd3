"""Tests for the experiment harness, report formatting and drivers."""

import math

import pytest

from repro.core.index import SetSimilarityIndex
from repro.data.queries import QueryWorkload, RangeQuery
from repro.eval.experiments import (
    ExperimentConfig,
    make_dataset,
    run_allocation_ablation,
    run_crossover,
    run_dfi_benefit,
    run_embedding_distortion,
    run_fig6,
    run_fig7,
    run_filter_tradeoff,
    run_placement_ablation,
)
from repro.eval.harness import ExperimentHarness
from repro.eval.report import format_table


@pytest.fixture(scope="module")
def harness(clustered_sets):
    index = SetSimilarityIndex.build(
        clustered_sets, budget=60, recall_target=0.8, k=32, b=6, seed=2
    )
    return ExperimentHarness(clustered_sets, index)


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["xxx", 0.333333]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "0.333" in lines[3]

    def test_large_floats_comma_formatted(self):
        out = format_table(["v"], [[12345.6]])
        assert "12,346" in out

    def test_empty_rows(self):
        out = format_table(["x"], [])
        assert out.splitlines()[0].strip() == "x"


class TestHarness:
    def test_run_query_scores_against_oracle(self, harness, clustered_sets):
        record = harness.run_query(RangeQuery(0, 0.4, 1.0))
        assert 0.0 <= record.recall <= 1.0
        assert 0.0 <= record.precision <= 1.0
        assert record.n_truth >= 1  # the query set itself
        assert record.scan_time > 0
        assert record.index_time == record.index_io_time + record.index_cpu_time

    def test_measure_scan_flag(self, harness):
        record = harness.run_query(RangeQuery(1, 0.5, 1.0), measure_scan=False)
        assert record.scan_time == 0.0

    def test_run_many(self, harness):
        queries = QueryWorkload(len(harness.sets), seed=4).sample(5)
        records = harness.run(queries, measure_scan=False)
        assert len(records) == 5

    def test_bucket_summaries_structure(self, harness):
        queries = QueryWorkload(len(harness.sets), seed=5).sample(15)
        records = harness.run(queries, measure_scan=False)
        summaries = harness.bucket_summaries(records)
        assert len(summaries) == 5
        populated = [s for s in summaries if s.n_queries > 0]
        assert populated, "at least one bucket should receive queries"
        for s in populated:
            assert 0.0 <= s.recall <= 1.0
            assert 0.0 <= s.precision <= 1.0

    def test_empty_buckets_are_nan(self, harness):
        summaries = harness.bucket_summaries([])
        assert all(s.n_queries == 0 for s in summaries)
        assert all(math.isnan(s.recall) for s in summaries)

    def test_run_batch_workers_match_sequential(self, harness):
        """The thread backend ignores ``workers``: every group runs on
        the live index, so the records match run for run."""
        queries = QueryWorkload(len(harness.sets), seed=6).sample(6)
        sequential = harness.run_batch(queries, measure_scan=False)
        threaded = harness.run_batch(queries, measure_scan=False, workers=3)
        for s, t in zip(sequential, threaded):
            assert t.n_answers == s.n_answers
            assert t.n_candidates == s.n_candidates
            assert t.recall == s.recall
            assert t.index_time == s.index_time

    def test_run_batch_process_backend_matches_sequential(self, harness, tmp_path):
        queries = QueryWorkload(len(harness.sets), seed=7).sample(4)
        sequential = harness.run_batch(queries, measure_scan=False)
        processed = harness.run_batch(
            queries, measure_scan=False, workers=2, backend="process",
            snapshot_dir=tmp_path / "snap",
        )
        for s, p in zip(sequential, processed):
            assert p.n_answers == s.n_answers
            assert p.n_candidates == s.n_candidates
            assert p.recall == s.recall
            assert p.index_time == s.index_time
        assert not harness.index.frozen  # restored afterwards

    def test_run_batch_rejects_unknown_backend(self, harness):
        with pytest.raises(ValueError):
            harness.run_batch([], backend="fibers")

    def test_scan_recall_would_be_one(self, harness, clustered_sets):
        """Sanity: the oracle agrees with the scan baseline."""
        q = RangeQuery(3, 0.3, 0.9)
        scan_result = harness.scan.query(
            clustered_sets[3], q.sigma_low, q.sigma_high
        )
        oracle = {
            sid
            for sid, _ in harness.oracle.query(
                clustered_sets[3], q.sigma_low, q.sigma_high
            )
        }
        assert scan_result.answer_sids == oracle


class TestDrivers:
    def test_make_dataset_validates(self):
        with pytest.raises(ValueError):
            make_dataset("set3", 10)
        assert len(make_dataset("set1", 10)) == 10

    def test_config_scaled(self):
        cfg = ExperimentConfig().scaled(budget=7)
        assert cfg.budget == 7
        assert cfg.k == ExperimentConfig().k

    def test_embedding_distortion_shapes(self):
        res = run_embedding_distortion(n_pairs=30, k=32, b=5, seed=1)
        assert len(res.rows) == 30
        assert res.ecc_rmse < res.naive_rmse
        assert res.ecc_rmse < 1e-9
        assert "naive" in res.table()

    def test_filter_tradeoff_error_decreases(self):
        res = run_filter_tradeoff(n_sets=120, l_values=(1, 10, 100), seed=2)
        errors = [row[4] for row in res.rows]
        assert errors[-1] < errors[0]
        rs = [row[1] for row in res.rows]
        assert rs == sorted(rs)

    def test_placement_ablation_runs(self):
        res = run_placement_ablation(n_sets=150, budget=40, seed=3)
        assert len(res.rows) == 2
        names = [row[0] for row in res.rows]
        assert names == ["equidepth", "uniform"]
        assert "avg recall" in res.table()

    def test_allocation_ablation_greedy_no_worse(self):
        res = run_allocation_ablation(n_sets=150, budget=40, seed=4)
        greedy_row = next(r for r in res.rows if r[0] == "greedy")
        uniform_row = next(r for r in res.rows if r[0] == "uniform-alloc")
        assert greedy_row[1] >= uniform_row[1] - 0.1  # avg recall comparable+


class TestFigureDrivers:
    """Micro-scale runs of the per-figure drivers (full runs live in
    benchmarks/; these pin the drivers' contracts)."""

    @pytest.fixture(scope="class")
    def micro(self):
        return ExperimentConfig(
            n_sets=250, budget=60, n_queries=25, k=32, sample_pairs=20_000, seed=1
        )

    def test_run_fig6_structure(self, micro):
        result = run_fig6(micro, budget=60, datasets=("set1",))
        assert set(result.summaries) == {"set1"}
        assert len(result.summaries["set1"]) == 5
        assert "precision" in result.table()
        assert 0.0 < result.expected_recall["set1"] <= 1.0

    def test_run_fig7_structure(self, micro):
        result = run_fig7("set1", micro, budget=60)
        assert result.dataset == "set1"
        populated = [s for s in result.summaries if s.n_queries > 0]
        assert populated
        # Scan cost must be flat across buckets.
        scans = [s.scan_time for s in populated]
        assert max(scans) / min(scans) < 1.2
        assert "scan io" in result.table()

    def test_run_crossover_structure(self, micro):
        result = run_crossover("set1", micro)
        assert result.rows
        assert result.predicted_fraction > 0
        fractions = [row[0] for row in result.rows]
        assert fractions == sorted(fractions)
        assert "index wins" in result.table()

    def test_run_dfi_benefit_structure(self, micro):
        result = run_dfi_benefit("set1", micro, n_queries=8)
        labels = [row[0] for row in result.rows]
        assert labels == ["with DFIs", "SFI only"]
        for _, candidates, recall, time in result.rows:
            assert candidates >= 0
            assert 0.0 <= recall <= 1.0
            assert time >= 0
