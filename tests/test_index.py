"""End-to-end tests for SetSimilarityIndex (Sections 3-5 composed)."""

import numpy as np
import pytest

from repro.core.index import SetSimilarityIndex
from repro.core.similarity import jaccard


@pytest.fixture(scope="module")
def built_index(clustered_sets):
    return SetSimilarityIndex.build(
        clustered_sets, budget=80, recall_target=0.8, k=48, b=6, seed=7
    )


def _truth(sets, query_set, lo, hi):
    return {
        sid
        for sid, s in enumerate(sets)
        if lo <= jaccard(s, query_set) <= hi
    }


class TestBuild:
    def test_plan_within_budget(self, built_index):
        assert built_index.plan.tables_used <= 80

    def test_all_sets_indexed(self, built_index, clustered_sets):
        assert built_index.n_sets == len(clustered_sets)
        assert built_index.sids == set(range(len(clustered_sets)))

    def test_empty_collection(self):
        index = SetSimilarityIndex.build([], budget=10, k=8, b=4)
        assert index.n_sets == 0
        result = index.query({1, 2}, 0.0, 1.0)
        assert result.answers == []

    def test_deterministic_given_seed(self, clustered_sets):
        a = SetSimilarityIndex.build(clustered_sets[:40], budget=30, k=16, seed=5)
        b = SetSimilarityIndex.build(clustered_sets[:40], budget=30, k=16, seed=5)
        q = clustered_sets[0]
        ra = a.query(q, 0.4, 1.0)
        rb = b.query(q, 0.4, 1.0)
        assert ra.answers == rb.answers
        assert ra.candidates == rb.candidates


class TestQueryCorrectness:
    def test_no_false_positives_in_answers(self, built_index, clustered_sets):
        """Verification is exact: every answer is truly in range."""
        q = clustered_sets[5]
        result = built_index.query(q, 0.3, 0.9)
        for sid, sim in result.answers:
            assert 0.3 <= sim <= 0.9
            assert sim == pytest.approx(jaccard(clustered_sets[sid], q))

    def test_answers_subset_of_candidates(self, built_index, clustered_sets):
        result = built_index.query(clustered_sets[3], 0.2, 0.8)
        assert result.answer_sids <= result.candidates

    def test_high_similarity_recall(self, built_index, clustered_sets):
        """Planted cluster members sit at ~0.55 similarity; a >= 0.4
        query from a member should recover most of its cluster.

        0.4 typically coincides with a cut point, where capture is the
        filter's S-curve mid-section -- recall there is structurally
        ~p_{r,l}, not 1, hence the 0.7 floor rather than 0.9.
        """
        recalls = []
        for qi in range(0, 120, 10):
            q = clustered_sets[qi]
            truth = _truth(clustered_sets, q, 0.4, 1.0)
            got = built_index.query(q, 0.4, 1.0).answer_sids
            recalls.append(len(got & truth) / len(truth))
        assert np.mean(recalls) > 0.7

    def test_self_always_found(self, built_index, clustered_sets):
        """sim(q, q) = 1: the exact query set collides in every table."""
        for qi in (0, 17, 55):
            result = built_index.query(clustered_sets[qi], 0.9, 1.0)
            assert qi in result.answer_sids

    def test_full_range_query_returns_everything(self, built_index, clustered_sets):
        result = built_index.query(clustered_sets[0], 0.0, 1.0)
        assert result.answer_sids == set(range(len(clustered_sets)))

    def test_answers_sorted_by_similarity(self, built_index, clustered_sets):
        result = built_index.query(clustered_sets[2], 0.0, 1.0)
        sims = [s for _, s in result.answers]
        assert sims == sorted(sims, reverse=True)

    def test_low_range_query(self, built_index, clustered_sets):
        """Dissimilarity queries return only dissimilar sets."""
        q = clustered_sets[0]
        result = built_index.query_below(q, 0.1)
        for sid, sim in result.answers:
            assert sim <= 0.1

    def test_invalid_range(self, built_index, clustered_sets):
        with pytest.raises(ValueError):
            built_index.query(clustered_sets[0], 0.8, 0.2)
        with pytest.raises(ValueError):
            built_index.query(clustered_sets[0], -0.1, 0.5)

    def test_empty_query_set(self, built_index, clustered_sets):
        """The empty set is disjoint from every stored set."""
        result = built_index.query(frozenset(), 0.5, 1.0)
        assert result.answers == []
        # A full-range query must still return everything (at sim 0).
        full = built_index.query(frozenset(), 0.0, 1.0)
        assert full.answer_sids == set(range(len(clustered_sets)))
        assert all(sim == 0.0 for _, sim in full.answers)

    def test_unindexed_query_set(self, built_index, clustered_sets):
        """Query sets need not belong to the collection."""
        foreign = frozenset(range(100000, 100040))
        result = built_index.query_above(foreign, 0.5)
        assert result.answers == []


class TestQueryCost:
    def test_io_accounted(self, built_index, clustered_sets):
        result = built_index.query(clustered_sets[1], 0.4, 1.0)
        assert result.io.random_reads > 0
        assert result.io_time > 0
        assert result.total_time == result.io_time + result.cpu_time

    def test_narrow_query_fetches_fewer_candidates(self, built_index, clustered_sets):
        q = clustered_sets[1]
        narrow = built_index.query(q, 0.45, 1.0)
        assert len(narrow.candidates) < built_index.n_sets


class TestDynamicMaintenance:
    def test_insert_then_found(self, clustered_sets):
        index = SetSimilarityIndex.build(
            clustered_sets[:60], budget=40, recall_target=0.8, k=32, seed=3
        )
        new_set = set(clustered_sets[0]) | {999999}
        sid = index.insert(new_set)
        assert sid == 60
        assert index.n_sets == 61
        result = index.query_above(new_set, 0.9)
        assert sid in result.answer_sids

    def test_delete_then_gone(self, clustered_sets):
        index = SetSimilarityIndex.build(
            clustered_sets[:60], budget=40, recall_target=0.8, k=32, seed=3
        )
        target = clustered_sets[10]
        result = index.query(target, 0.9, 1.0)
        assert 10 in result.answer_sids
        index.delete(10)
        assert index.n_sets == 59
        result = index.query(target, 0.0, 1.0)
        assert 10 not in result.answer_sids
        assert 10 not in result.candidates

    def test_delete_unknown_sid(self, clustered_sets):
        index = SetSimilarityIndex.build(clustered_sets[:20], budget=20, k=16)
        with pytest.raises(KeyError):
            index.delete(999)

    def test_reinsert_after_delete(self, clustered_sets):
        index = SetSimilarityIndex.build(clustered_sets[:30], budget=20, k=16, seed=1)
        index.delete(5)
        sid = index.insert(clustered_sets[5])
        assert sid == 30
        result = index.query(clustered_sets[5], 0.95, 1.0)
        assert sid in result.answer_sids


class TestFromPlan:
    def test_from_plan_round_trip(self, clustered_sets):
        from repro.core.distribution import SimilarityDistribution
        from repro.core.optimizer import plan_index

        sets = clustered_sets[:50]
        dist = SimilarityDistribution.from_sets(sets)
        plan = plan_index(dist, 30, recall_target=0.7, b=6)
        index = SetSimilarityIndex.from_plan(sets, plan, dist, k=24, b=6, seed=2)
        assert index.n_sets == 50
        result = index.query(sets[0], 0.9, 1.0)
        assert 0 in result.answer_sids


# -- every Section 4.3 plan against a brute-force oracle --------------------

#: ``(case, sigma_low, sigma_high, strategy, plan reached,
#: (random_reads, sequential_reads, cpu_ops))``.  The I/O triple is the
#: sum over ``oracle_queries`` of ``index.query(...).io`` as recorded at
#: the commit before ``query()`` became the one-row batch: the simulated
#: cost accounting of the paper's Fig. 7 must not notice which code path
#: runs a plan.  ``plan`` is None where the scan runs instead.
PLAN_CASES = [
    ("full_collection", 0.0, 1.0, "index", "full_collection", (1080, 0, 63831)),
    ("sfi(lo)", 0.65, 1.0, "index", "sfi(lo)", (99, 0, 3084)),
    ("dfi(up)", 0.0, 0.25, "index", "dfi(up)", (896, 0, 50249)),
    ("complement_sfi(up)", 0.0, 0.7, "index", "complement_sfi(up)", (1116, 0, 63183)),
    ("complement_dfi(lo)", 0.2, 1.0, "index", "complement_dfi(lo)", (538, 0, 29036)),
    ("sfi_difference", 0.62, 0.7, "index", "sfi_difference", (139, 0, 2244)),
    ("dfi_difference", 0.16, 0.29, "index", "dfi_difference", (475, 0, 22121)),
    ("pivot_union", 0.2, 0.7, "index", "pivot_union", (642, 0, 25596)),
    ("empty_query", 0.65, 1.0, "index", "empty_queries", (0, 0, 0)),
    ("scan", 0.3, 0.9, "scan", None, (0, 1080, 63831)),
    ("auto_picks_index", 0.8, 1.0, "auto", "sfi(lo)", (72, 0, 1512)),
    ("auto_picks_scan", 0.05, 0.95, "auto", None, (0, 1080, 63831)),
]


def build_planned_index(sets):
    """An explicit plan with two DFI-only points, a dual-kind pivot and
    two SFI-only points, so every plan family has a range that reaches it."""
    from repro.core.distribution import SimilarityDistribution
    from repro.core.optimizer import DFI, SFI, IndexPlan, PlannedFilter

    points = [(0.15, DFI), (0.3, DFI), (0.45, DFI), (0.45, SFI), (0.6, SFI), (0.75, SFI)]
    plan = IndexPlan(
        cut_points=[0.15, 0.3, 0.45, 0.6, 0.75],
        delta=0.45,
        filters=[PlannedFilter(p, kind, n_tables=6) for p, kind in points],
        expected_recall=1.0,
        expected_precision=1.0,
        b=6,
    )
    dist = SimilarityDistribution.from_sets(sets, n_bins=50)
    return SetSimilarityIndex.from_plan(sets, plan, dist, k=48, b=6, seed=11)


@pytest.fixture(scope="module")
def planned_index(clustered_sets):
    return build_planned_index(clustered_sets)


def oracle_queries(sets):
    unseen = frozenset(list(sets[7])[:20]) | {99991, 99992}
    return [sets[i] for i in range(0, 120, 15)] + [unseen]


class TestPlanOracle:
    @pytest.mark.parametrize(
        "case,lo,hi,strategy,plan,io", PLAN_CASES, ids=[c[0] for c in PLAN_CASES]
    )
    def test_plan_against_brute_force(
        self, planned_index, clustered_sets, case, lo, hi, strategy, plan, io
    ):
        queries = (
            [frozenset()] if case == "empty_query"
            else oracle_queries(clustered_sets)
        )
        reads = [0, 0, 0]
        for q in queries:
            result = planned_index.query(q, lo, hi, strategy=strategy, explain=True)
            plans = [s.attrs["plan"] for s in result.trace.find("candidates_batch")]
            assert plans == ([] if plan is None else [plan])
            # Answers are exactly the brute-force Jaccard filter of the
            # candidates (sids, floats and best-first order) ...
            in_range = [
                (sid, jaccard(clustered_sets[sid], q)) for sid in result.candidates
                if lo <= jaccard(clustered_sets[sid], q) <= hi
            ]
            in_range.sort(key=lambda pair: (-pair[1], pair[0]))
            assert result.answers == in_range
            # ... and never contain a false positive.
            assert result.answer_sids <= _truth(clustered_sets, q, lo, hi)
            assert result.io_time == planned_index.io.io_time(result.io)
            assert result.cpu_time == planned_index.io.cpu_time(result.io)
            reads[0] += result.io.random_reads
            reads[1] += result.io.sequential_reads
            reads[2] += result.io.cpu_ops
        assert tuple(reads) == io

    @pytest.mark.parametrize(
        "lo,hi,plan",
        [c[1:3] + (c[4],) for c in PLAN_CASES if c[3] == "index"],
        ids=[c[0] for c in PLAN_CASES if c[3] == "index"],
    )
    def test_planner_prices_the_executed_plan(
        self, planned_index, clustered_sets, lo, hi, plan
    ):
        """``QueryPlanner.probe_tables`` counts exactly the tables the
        executor's plan probes -- the mixed plan reads four filters (the
        planner used to sum both kinds at the two enclosing points: 12
        for ``pivot_union`` here, where 24 are probed)."""
        from repro.obs.explain import probe_spans

        # A non-empty query: ``empty_queries`` is a property of the
        # batch, not of the range the planner prices.
        query = oracle_queries(clustered_sets)[0]
        result = planned_index.query(query, lo, hi, explain=True)
        probed = sum(
            span.attrs["tables_probed"] for span in probe_spans(result.trace)
        )
        assert planned_index.planner().probe_tables(lo, hi) == probed
        if plan == "pivot_union":
            assert probed == 24
