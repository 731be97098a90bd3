"""Batch-shared exact verification (:func:`repro.exec.columnar.verify_batch`).

One function verifies every path's candidates: query by query
(*pairwise*) or each distinct candidate once against all the batch's
queries (*join*), picked per batch from the batch's own counts.  These
tests pin the join kernel against the per-row kernel, reach each side of
the rule by constructing inputs (there is no switch to flip), and check
that whichever side runs, answers, their order and the accounted CPU
equal the one-query-at-a-time loop and the scalar ``frozenset``
reference -- directly, through the live index, the thread and process
executors and the sharded executor.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import minhash
from repro.core.index import SetSimilarityIndex
from repro.core.minhash import hash_rows
from repro.core.similarity import jaccard
from repro.data.generators import planted_clusters
from repro.exec import ParallelExecutor, open_snapshot
from repro.exec.columnar import (
    JOIN_MIN_SHARING,
    MARK_SPAN_FACTOR,
    SMALL_VERIFY_CUTOFF,
    KeyOverflowError,
    build_csr,
    csr_of,
    dense_span,
    hash_set,
    intersect_counts,
    join_counts,
    merge_verify_info,
    verify_batch,
)
from repro.exec.shard import ShardedExecutor, build_sharded, open_sharded
from repro.obs import metrics
from repro.storage.iomodel import IOStats

NO_CAP = 1 << 62

SETS = st.frozensets(st.integers(0, 40), max_size=12)


# -- the join kernel against the per-row kernel ----------------------------


def _assert_join_equals_per_row(rows, queries):
    indptr, data = build_csr([hash_set(s)[0] for s in rows])
    arrays = [hash_set(q)[0] for q in queries]
    table, join_size = join_counts(arrays, indptr, data, NO_CAP)
    assert table.shape == (len(queries), len(rows))
    for q, arr in enumerate(arrays):
        assert list(table[q]) == list(intersect_counts(arr, indptr, data))
        assert list(table[q]) == [len(queries[q] & s) for s in rows]
    # One entry per (query, row, common element).
    assert join_size == int(table.sum())


class TestJoinCounts:
    @given(st.lists(SETS, max_size=10), st.lists(SETS, max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_equals_intersect_counts(self, rows, queries):
        """Property: random CSRs -- empty rows, empty queries and
        repeated queries all come up at these sizes."""
        _assert_join_equals_per_row(rows, queries)

    def test_duplicate_queries_in_one_batch(self):
        q = frozenset({1, 2, 3})
        _assert_join_equals_per_row(
            [frozenset({1, 2}), frozenset(), frozenset({3, 9})], [q, q, q]
        )

    def test_all_disjoint(self):
        rows = [frozenset(range(10 * i, 10 * i + 5)) for i in range(6)]
        queries = [frozenset(range(100 + 10 * i, 105 + 10 * i)) for i in range(4)]
        _assert_join_equals_per_row(rows, queries)
        indptr, data = build_csr([hash_set(s)[0] for s in rows])
        _, join_size = join_counts(
            [hash_set(q)[0] for q in queries], indptr, data, NO_CAP
        )
        assert join_size == 0

    def test_all_identical(self):
        s = frozenset(range(7))
        _assert_join_equals_per_row([s] * 5, [s] * 4)

    def test_nothing_to_join(self):
        indptr, data = build_csr([])
        table, join_size = join_counts([hash_set({1})[0]], indptr, data, NO_CAP)
        assert table.shape == (1, 0) and join_size == 0
        indptr, data = build_csr([hash_set({1, 2})[0]])
        table, join_size = join_counts([], indptr, data, NO_CAP)
        assert table.shape == (0, 1) and join_size == 0
        assert join_counts([], indptr, data, len(data) - 1) == (None, 0)

    def test_size_is_known_before_anything_is_built(self):
        """Over the cap the exact size comes back and no table does."""
        s = frozenset(range(8))
        indptr, data = build_csr([hash_set(s)[0]] * 5)
        arrays = [hash_set(s)[0]] * 4
        table, join_size = join_counts(arrays, indptr, data, 4 * 5 * 8)
        assert table is None and join_size == 4 * 5 * 8
        # The cap counts everything the join holds: entries, CSR, table.
        exact = 4 * 5 * 8 + len(data) + 4 * 5
        assert join_counts(arrays, indptr, data, exact - 1)[0] is None
        assert join_counts(arrays, indptr, data, exact)[0] is not None


# -- the bitmap screen's false positives -----------------------------------

TOP = 2**64 - 1


def _u64(values):
    return np.array(sorted(values), dtype=np.uint64)


def _assert_screen_exact(query_arrays, row_arrays, want):
    indptr, data = build_csr(row_arrays)
    table, join_size = join_counts(query_arrays, indptr, data, NO_CAP)
    for q, arr in enumerate(query_arrays):
        assert list(table[q]) == list(intersect_counts(arr, indptr, data))
    assert table.tolist() == want
    assert join_size == int(table.sum())


class TestBitmapScreen:
    """A row hash whose low bits equal some query hash's passes the
    bitmap; only the exact equality check after the search keeps it out
    of the counts."""

    def test_low_bit_twins_count_zero(self):
        members = [0, 5, 1000, 2**40 + 3, 2**63 + 9, TOP]
        queries = [_u64(members[:4]), _u64(members[2:]), _u64([0, TOP])]
        # Each twin differs from a member only above bit 39, far beyond
        # any bitmap a six-hash union gets.
        twins = [m ^ (1 << bit) for m in members for bit in (40, 52, 63)]
        assert not set(twins) & set(members)
        rows = [
            _u64([0, TOP]),                       # the extreme members
            _u64(twins),                          # all false positives
            _u64(twins[:6] + [5, 2**63 + 9]),     # mixed
            _u64([]),
        ]
        _assert_screen_exact(queries, rows, [
            [1, 0, 1, 0],
            [1, 0, 1, 0],
            [2, 0, 0, 0],
        ])

    @given(
        st.lists(st.integers(0, TOP), min_size=1, max_size=40, unique=True),
        st.lists(st.integers(32, 63), min_size=1, max_size=4),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_twins_of_random_hashes(self, members, bits, data):
        """Property: rows of members and their high-bit twins count
        exactly the members the query holds."""
        twins = {m ^ (1 << b) for m in members for b in bits} - set(members)
        held = data.draw(st.lists(st.sampled_from(members), unique=True))
        queries = [_u64(held), _u64(members)]
        rows = [_u64(twins), _u64(set(members) | twins), _u64(members[:1])]
        _assert_screen_exact(queries, rows, [
            [0, len(held), int(members[0] in held)],
            [0, len(members), 1],
        ])


# -- verify_batch over plain sets ------------------------------------------


def _adapters(sets, fallback=()):
    """The four adapters over a list of sets (sid = position) or a
    ``{sid: set}`` dict."""
    hashes = {
        sid: hash_set(s)[0]
        for sid, s in (sets.items() if isinstance(sets, dict) else enumerate(sets))
    }
    return dict(
        csr=lambda sids: build_csr([hashes[sid] for sid in sids.tolist()]),
        sizes=lambda sids: np.fromiter(
            (len(sets[sid]) for sid in sids.tolist()),
            dtype=np.int64, count=len(sids),
        ),
        fallback_sids=frozenset(fallback),
        get_set=sets.__getitem__,
    )


def _scalar_reference(sets, queries, candidates_list, lo, hi):
    """The per-candidate ``frozenset`` loop: answers and accounted CPU."""
    answers_list, cpu_ops = [], 0
    for query, candidates in zip(queries, candidates_list):
        answers = []
        for sid in candidates:
            cpu_ops += len(sets[sid]) + len(query)
            similarity = jaccard(sets[sid], query)
            if lo <= similarity <= hi:
                answers.append((sid, similarity))
        answers.sort(key=lambda pair: (-pair[1], pair[0]))
        answers_list.append(answers)
    return answers_list, cpu_ops


def _check(sets, queries, candidates_list, lo, hi, kernel, fallback=()):
    """Run the batch, require the kernel the inputs were built to reach,
    and compare with the one-query loop and the scalar reference."""
    adapters = _adapters(sets, fallback)
    io = IOStats()
    answers_list, info = verify_batch(
        queries, csr_of(candidates_list), lo, hi, io, **adapters,
        query_hashes=hash_rows(queries),
    )
    assert info["verify_kernel"] == kernel
    assert info["pairs"] == sum(len(c) for c in candidates_list)
    assert info["distinct"] == len(set().union(*candidates_list))
    loop_io = IOStats()
    loop = []
    for query, candidates in zip(queries, candidates_list):
        one, one_info = verify_batch(
            [query], csr_of([candidates]), lo, hi, loop_io, **adapters,
            query_hashes=hash_rows([query]),
        )
        assert one_info["verify_kernel"] == "pairwise"  # sharing is 1
        loop.append(one[0])
    want, want_cpu = _scalar_reference(sets, queries, candidates_list, lo, hi)
    assert answers_list == loop == want  # sids, floats AND order
    assert io == loop_io == IOStats(cpu_ops=want_cpu)
    return info


def _clusters(n_clusters=6, per=8, size=30, seed=0):
    """Disjoint-universe clusters: members share most of a prototype."""
    rng = random.Random(seed)
    sets = []
    for c in range(n_clusters):
        base = list(range(1000 * c, 1000 * c + 2 * size))
        proto = rng.sample(base, size)
        for _ in range(per):
            keep = rng.sample(proto, size - 4)
            fresh = rng.sample([e for e in base if e not in proto], 4)
            sets.append(frozenset(keep + fresh))
    return sets


class TestTheRule:
    """Each side reached by its inputs; the constant is never touched."""

    def test_high_sharing_disjoint_clusters_join(self):
        sets = _clusters()
        queries = [sets[i] for i in range(0, len(sets), 3)]
        everything = set(range(len(sets)))
        info = _check(
            sets, queries, [set(everything) for _ in queries], 0.3, 1.0, "join"
        )
        assert info["pairs"] >= JOIN_MIN_SHARING * info["distinct"]
        # Only same-cluster pairs share elements: the join holds a
        # fraction of the pairs x 30 elements pairwise would touch.
        assert 0 < info["join_size"] < 30 * info["pairs"] // 4

    def test_high_sharing_hot_elements_rejected_by_size(self):
        """Every set holds the same 25 hot elements, so the join holds
        25 entries for every query x distinct candidate -- candidate
        pair or not -- which is more than the pairwise path touches."""
        rng = random.Random(1)
        hot = list(range(25))
        sets = [
            frozenset(hot + rng.sample(range(100, 5000), 5)) for _ in range(64)
        ]
        queries = sets[:16]
        candidates_list = [set(rng.sample(range(64), 32)) for _ in queries]
        info = _check(sets, queries, candidates_list, 0.5, 1.0, "pairwise")
        assert info["pairs"] >= JOIN_MIN_SHARING * info["distinct"]
        pairwise_entries = 30 * info["pairs"]
        assert info["join_size"] > pairwise_entries  # why it was refused

    def test_low_sharing_pairwise_without_a_try(self):
        sets = _clusters()
        queries = [sets[0], sets[9], sets[17]]
        candidates_list = [set(range(0, 30)), set(range(20, 48)), set(range(5, 40))]
        info = _check(sets, queries, candidates_list, 0.3, 1.0, "pairwise")
        assert info["pairs"] < JOIN_MIN_SHARING * info["distinct"]
        assert info["join_size"] == 0

    def test_both_sides_are_counted(self):
        sets = _clusters()
        everything = set(range(len(sets)))
        joined = metrics.counter("verify.join_batches")
        pairwise = metrics.counter("verify.pairwise_batches")
        before = joined.value, pairwise.value
        adapters = _adapters(sets)
        verify_batch(
            sets[:8], csr_of([everything] * 8), 0.5, 1.0, IOStats(), **adapters,
            query_hashes=hash_rows(sets[:8]),
        )
        verify_batch(
            sets[:1], csr_of([everything]), 0.5, 1.0, IOStats(), **adapters,
            query_hashes=hash_rows(sets[:1]),
        )
        assert (joined.value, pairwise.value) == (before[0] + 1, before[1] + 1)


class TestEdgesThroughTheJoin:
    def _batch(self, extra_sets=(), extra_queries=()):
        sets = _clusters() + list(extra_sets)
        queries = [sets[i] for i in range(0, 40, 4)] + list(extra_queries)
        return sets, queries, [set(range(len(sets))) for _ in queries]

    def test_sigma_low_zero_returns_disjoint_candidates(self):
        sets, queries, candidates_list = self._batch()
        answers_list, info = verify_batch(
            queries, csr_of(candidates_list), 0.0, 0.2, IOStats(),
            **_adapters(sets), query_hashes=hash_rows(queries),
        )
        assert info["verify_kernel"] == "join"
        # Other clusters' sets have an empty intersection: in range.
        assert all((40, 0.0) in answers for answers in answers_list)
        _check(sets, queries, candidates_list, 0.0, 0.2, "join")

    def test_empty_query_and_empty_stored_set(self):
        sets, queries, candidates_list = self._batch(
            extra_sets=[frozenset()], extra_queries=[frozenset()]
        )
        empty_sid = len(sets) - 1
        for lo, hi in ((0.0, 1.0), (0.5, 1.0), (0.0, 0.0)):
            _check(sets, queries, candidates_list, lo, hi, "join")
        answers_list, _ = verify_batch(
            queries, csr_of(candidates_list), 1.0, 1.0, IOStats(),
            **_adapters(sets), query_hashes=hash_rows(queries),
        )
        # Empty versus empty is similarity 1, and only that pair is.
        assert answers_list[-1] == [(empty_sid, 1.0)]

    def test_queries_without_candidates_ride_along(self):
        """What the shard router's verify mask produces: empty candidate
        sets among rows that share theirs."""
        sets, queries, candidates_list = self._batch()
        candidates_list[1] = set()
        candidates_list[4] = set()
        _check(sets, queries, candidates_list, 0.3, 1.0, "join")

    def test_collided_stored_set_and_collided_query(self, monkeypatch):
        """Two elements forced onto one hash: the stored set that holds
        both is a fallback sid, the query that holds both is collided,
        and both still get exact Jaccard inside a joined batch."""
        real = minhash.stable_hashes
        monkeypatch.setattr(
            "repro.core.minhash.stable_hashes",
            lambda elements: real(
                [7_000_001 if e == 7_000_002 else e for e in elements]
            ),
        )
        sets = _clusters()
        victim = 3
        sets[victim] = sets[victim] | {7_000_001, 7_000_002}
        collided_query = frozenset(sets[5] | {7_000_001, 7_000_002})
        assert hash_set(sets[victim])[1] and hash_set(collided_query)[1]
        queries = [sets[i] for i in range(0, 40, 4)] + [collided_query, sets[victim]]
        candidates_list = [set(range(len(sets))) for _ in queries]
        _check(sets, queries, candidates_list, 0.3, 1.0, "join", fallback={victim})
        answers_list, _ = verify_batch(
            queries, csr_of(candidates_list), 0.3, 1.0, IOStats(),
            **_adapters(sets, fallback={victim}),
            query_hashes=hash_rows(queries),
        )
        assert answers_list[-1][0] == (victim, 1.0)
        assert dict(answers_list[-2])[victim] == jaccard(collided_query, sets[victim])


class TestSidLookup:
    """The join maps each pair's sid to its distinct-candidate row by a
    dense lookup array when the sids pass ``dense_span`` and by binary
    search otherwise; answers, order and charges are the same."""

    def _batch(self, base, stride):
        sets = {base + stride * i: s for i, s in enumerate(_clusters())}
        queries = [sets[sid] for sid in list(sets)[::4]]
        return sets, queries, [set(sets) for _ in queries]

    @given(
        st.sampled_from([0, 3, 2**20, 2**40]), st.integers(1, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_sid_span(self, base, stride):
        sets, queries, candidates_list = self._batch(base, stride)
        _check(sets, queries, candidates_list, 0.3, 1.0, "join")

    #: 12 queries x 48 candidates: sids ``0 .. 47 x stride`` pass the
    #: rule up to this stride.
    WIDEST = (MARK_SPAN_FACTOR * 12 * 48 - 1) // 47

    @given(st.integers(1, 3), st.integers(0, 2**40), st.integers(1, 100))
    @settings(max_examples=40, deadline=None)
    def test_huge_sids_verify_or_refuse_typed(self, n_queries, offset, stride):
        """Sids from 2**62: a batch whose ``row * span + sid`` keys fit
        int64 verifies as the loop and the scalar reference do; one
        whose keys would not is refused with ``KeyOverflowError`` before
        any key is built -- never a wrapped key."""
        sets, queries, candidates_list = self._batch(2**62 + offset, stride)
        queries = queries[:n_queries]
        candidates_list = candidates_list[:n_queries]
        if n_queries * (max(sets) + 1) - 1 > 2**63 - 1:
            with pytest.raises(KeyOverflowError):
                verify_batch(
                    queries, csr_of(candidates_list), 0.3, 1.0, IOStats(),
                    **_adapters(sets), query_hashes=hash_rows(queries),
                )
        else:
            _check(sets, queries, candidates_list, 0.3, 1.0, "pairwise")

    @pytest.mark.parametrize("base, extra, dense", [
        (0, -WIDEST + 1, True), (0, 0, True), (0, 1, False),
        (2**40, -WIDEST + 1, False),
    ])
    def test_both_sides_are_reached(self, base, extra, dense):
        sets, queries, candidates_list = self._batch(base, self.WIDEST + extra)
        assert (dense_span(csr_of(candidates_list)[1]) > 0) == dense
        _check(sets, queries, candidates_list, 0.3, 1.0, "join")


def test_merge_verify_info():
    join = {"verify_kernel": "join", "pairs": 40, "distinct": 8, "join_size": 90}
    pairwise = {"verify_kernel": "pairwise", "pairs": 5, "distinct": 5, "join_size": 0}
    assert merge_verify_info([join, join]) == {
        "verify_kernel": "join", "pairs": 80, "distinct": 16, "join_size": 180,
    }
    assert merge_verify_info([join, pairwise])["verify_kernel"] == "mixed"
    assert merge_verify_info([]) == {
        "verify_kernel": "pairwise", "pairs": 0, "distinct": 0, "join_size": 0,
    }


# -- through the index, the executors and the shards -----------------------

#: Ranges whose enclosing cut points leave most of the collection as
#: every query's candidates (high sharing); the last is the
#: ``full_collection`` plan.
RANGES = [(0.3, 1.0), (0.0, 0.4), (0.2, 0.8), (0.0, 1.0)]
#: A range the filters answer precisely: few candidates, little sharing.
PRECISE = (0.5, 1.0)


@pytest.fixture(scope="module")
def workload():
    """A collection whose batches share candidates heavily (every query
    draws most of the collection) and whose single queries have more
    candidates than ``SMALL_VERIFY_CUTOFF``."""
    from repro.core.distribution import SimilarityDistribution
    from repro.core.optimizer import plan_index

    sets = planted_clusters(
        n_clusters=10, per_cluster=8, base_size=24, universe=1500,
        mutation_rate=0.2, seed=5,
    )
    dist = SimilarityDistribution.from_sets(sets, sample_pairs=2_000, seed=5)
    plan = plan_index(dist, 36, recall_target=0.8, b=4)
    index = SetSimilarityIndex.from_plan(sets, plan, dist, k=24, b=4, seed=5)
    queries = [sets[i] for i in range(0, len(sets), 5)]
    queries += [frozenset({"unseen", "elements"}), frozenset()]
    return sets, plan, dist, index, queries


def _verify_attrs(batch):
    return next(batch.trace.find("verify_batch")).attrs


def _assert_exact(sets, index, got, queries, lo, hi):
    """A traced live batch against the scalar loop over its own
    candidates: answers (sids, floats AND order) and accounted CPU."""
    queries = [frozenset(q) for q in queries]
    want, verify_cpu = _scalar_reference(
        sets, queries, [r.candidates for r in got.results], lo, hi
    )
    assert [r.answers for r in got.results] == want
    plan = next(got.trace.find("candidates_batch")).attrs["plan"]
    embedded = 0 if plan == "full_collection" else sum(1 for q in queries if q)
    assert got.io.cpu_ops == verify_cpu + index.embedder.k * embedded


def _assert_same(got, want):
    for g, w in zip(got.results, want.results):
        assert g.answers == w.answers  # sids, floats AND order
        assert g.candidates == w.candidates
    assert got.io == want.io
    assert got.cpu_time == want.cpu_time


class TestEveryPathJoins:
    @pytest.mark.parametrize("lo,hi", RANGES)
    def test_live_batch(self, workload, lo, hi):
        sets, _, _, index, queries = workload
        got = index.query_batch(queries, lo, hi, explain=True)
        attrs = _verify_attrs(got)
        assert attrs["verify_kernel"] == "join"
        assert attrs["pairs"] == got.n_candidates
        assert attrs["pairs"] >= JOIN_MIN_SHARING * attrs["distinct"]
        if (lo, hi) == (0.0, 1.0):
            plan = next(got.trace.find("candidates_batch")).attrs["plan"]
            assert plan == "full_collection"
            assert got.results[-1].answers  # the empty query, too
        _assert_exact(sets, index, got, queries, lo, hi)
        # ...and the one-query-at-a-time loop over the frozen image.
        snap = index.freeze()
        try:
            candidates_list = [r.candidates for r in got.results]
            loop_io, batch_io = IOStats(), IOStats()
            loop = [
                snap.verify_one(frozenset(q), c, lo, hi, loop_io)
                for q, c in zip(queries, candidates_list)
            ]
            query_sets = [frozenset(q) for q in queries]
            answers_list, info = snap.verify_batch(
                query_sets, csr_of(candidates_list), lo, hi, batch_io,
                hash_rows(query_sets),
            )
        finally:
            index.thaw()
        assert info["verify_kernel"] == "join"
        assert loop == answers_list == [r.answers for r in got.results]
        assert loop_io == batch_io

    def test_query_below_batch_returns_disjoint_candidates(self, workload):
        """``sigma_low = 0``: candidates with an empty intersection are
        in range and must come back from the join."""
        sets, _, _, index, queries = workload
        got = index.query_below_batch(queries, 0.4, explain=True)
        assert _verify_attrs(got)["verify_kernel"] == "join"
        assert any(
            value == 0.0 for r in got.results for _, value in r.answers
        )
        _assert_exact(sets, index, got, queries, 0.0, 0.4)

    def test_precise_range_lands_on_pairwise(self, workload):
        sets, _, _, index, queries = workload
        got = index.query_batch(queries, *PRECISE, explain=True)
        attrs = _verify_attrs(got)
        assert attrs["verify_kernel"] == "pairwise"
        assert attrs["pairs"] < JOIN_MIN_SHARING * attrs["distinct"]
        assert attrs["join_size"] == 0  # not even tried
        _assert_exact(sets, index, got, queries, *PRECISE)

    def test_single_query_is_the_pairwise_case(self, workload):
        sets, _, _, index, _ = workload
        got = index.query(sets[3], 0.3, 1.0, explain=True)
        attrs = next(got.trace.find("verify_batch")).attrs
        assert attrs["verify_kernel"] == "pairwise"
        assert attrs["pairs"] == attrs["distinct"] == got.n_candidates

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("lo,hi", RANGES)
    def test_thread_executor(self, workload, workers, lo, hi):
        """The thread backend ignores ``workers``: the batch is verified
        as one chunk on the calling thread, exactly as the live index
        verifies it."""
        _, _, _, index, queries = workload
        want = index.query_batch(queries, lo, hi, explain=True)
        try:
            with ParallelExecutor(index.freeze(), workers=workers) as executor:
                got = executor.query_batch(queries, lo, hi, explain=True)
        finally:
            index.thaw()
        _assert_same(got, want)
        live, span = _verify_attrs(want), _verify_attrs(got)
        for key in ("verify_kernel", "pairs", "distinct", "join_size"):
            assert got.exec_stats[key] == span[key] == live[key]
        verify_tasks = [
            t for t in got.exec_stats["tasks"] if t["stage"] == "verify"
        ]
        assert len(verify_tasks) == 1

    def test_process_executor(self, workload, tmp_path):
        _, _, _, index, queries = workload
        want = index.query_batch(queries, 0.3, 1.0, explain=True)
        index.save_snapshot(tmp_path / "snap")
        joined = metrics.counter("verify.join_batches")
        before = joined.value
        with ParallelExecutor(
            open_snapshot(tmp_path / "snap"), workers=2, backend="process"
        ) as executor:
            got = executor.query_batch(queries, 0.3, 1.0)
        _assert_same(got, want)
        live = _verify_attrs(want)
        for key in ("verify_kernel", "pairs", "distinct", "join_size"):
            assert got.exec_stats[key] == live[key]
        # The workers' counter movements are folded into this process.
        assert joined.value == before + 2

    def test_sharded_executor(self, workload, tmp_path):
        sets, plan, dist, index, queries = workload
        want = index.query_batch(queries, 0.3, 1.0)
        build_sharded(
            sets, tmp_path / "s", n_shards=2, partition="hash",
            k=24, b=4, seed=5, plan=plan, dist=dist,
        )
        with ShardedExecutor(open_sharded(tmp_path / "s"), route="safe") as executor:
            got = executor.query_batch(queries, 0.3, 1.0, explain=True)
        for g, w in zip(got.results, want.results):
            assert g.answers == w.answers
            assert g.candidates == w.candidates
        stats = got.exec_stats
        assert stats["verify_kernel"] == "join"
        assert stats["distinct"] <= len(sets)
        spans = [s.attrs for s in got.trace.find("verify_batch")]
        assert len(spans) == 2  # one per shard, same names
        assert sum(s["pairs"] for s in spans) == stats["pairs"]
        assert sum(s["join_size"] for s in spans) == stats["join_size"]


def _disjoint_clusters(seed: int, n_clusters: int = 4, per: int = 20, n_queries: int = 8):
    """Clusters over disjoint element universes, several queries each,
    every stored set of size 24: the queries a shard keeps share its
    sets."""
    rng = random.Random(seed)
    sets, queries = [], []
    for c in range(n_clusters):
        base = [f"c{c}_{j}" for j in range(48)]
        proto = rng.sample(base, 24)
        members = []
        for _ in range(per):
            keep = rng.sample(proto, 21)
            fresh = rng.sample([e for e in base if e not in proto], 3)
            members.append(frozenset(keep + fresh))
        sets.extend(members)
        for _ in range(n_queries):
            src = sorted(rng.choice(members))
            rng.shuffle(src)
            fresh = rng.sample([e for e in base if e not in src], 2)
            queries.append(frozenset(src[2:] + fresh))
    rng.shuffle(queries)
    return sets, queries


def test_safe_route_masked_rows_inside_a_joined_chunk(tmp_path):
    """Safe routing hands a shard the whole batch with the pruned rows'
    candidates emptied; the rows it keeps still join, and the answers
    equal the unsharded engine's.  The 19-element subsets of stored
    sets are candidates, yet the size bound (19/24 < 0.8) prunes them
    on every shard of the hash fleet."""
    from repro.core.distribution import SimilarityDistribution
    from repro.core.optimizer import plan_index

    sets, queries = _disjoint_clusters(seed=8)
    rng = random.Random(8)
    queries += [frozenset(rng.sample(sorted(s), 19)) for s in rng.sample(sets, 8)]
    rng.shuffle(queries)
    dist = SimilarityDistribution.from_sets(sets, sample_pairs=400, seed=8)
    plan = plan_index(dist, 24, recall_target=0.9, b=4)
    index = SetSimilarityIndex.from_plan(sets, plan, dist, k=16, b=4, seed=8)
    want = ParallelExecutor(index.freeze()).query_batch(queries, 0.8, 1.0)
    build_sharded(
        sets, tmp_path / "s", n_shards=4, k=16, b=4, seed=8,
        plan=plan, dist=dist,
    )
    with ShardedExecutor(open_sharded(tmp_path / "s")) as executor:
        got = executor.query_batch(queries, 0.8, 1.0)
    for g, w in zip(got.results, want.results):
        assert g.answers == w.answers
        assert g.candidates == w.candidates
    assert any(r.answers for r in got.results)
    assert got.exec_stats["route"]["subqueries_pruned"] > 0
    assert got.exec_stats["verify_kernel"] == "join"
    assert got.exec_stats["pairs"] < want.exec_stats["pairs"]  # masked


# -- numpy scalars are the builtin elements they equal ---------------------


class TestNumpyScalarElements:
    def test_element_hash_folds_numpy_scalars(self):
        element_hash = minhash.stable_element_hash
        assert element_hash(np.int64(5)) == element_hash(5)
        assert element_hash(np.uint8(5)) == element_hash(5)
        assert element_hash(np.bool_(True)) == element_hash(1)
        assert element_hash(np.float64(0.5)) == element_hash(0.5)
        assert element_hash(np.float32(2.0)) == element_hash(2)
        assert element_hash(np.str_("a")) == element_hash("a")
        assert element_hash(np.int64(5)) != element_hash("5")
        # The batch pass folds them too, fast path or not.
        assert minhash.stable_hashes(
            [np.int64(5), np.uint8(5), np.bool_(True), np.str_("a")]
        ).tolist() == minhash.stable_hashes([5, 5, 1, "a"]).tolist()

    def test_verify_keeps_the_answers(self, workload, tmp_path):
        """A query of ``np.int64`` elements found its candidates and
        then lost every answer in columnar verify."""
        sets, _, _, index, queries = workload
        plain = sets[3]
        boxed = frozenset(np.array(sorted(plain)))
        assert boxed == plain
        assert all(type(e) is np.int64 for e in boxed)

        want = index.query(plain, 0.3, 1.0)
        assert len(want.candidates) > SMALL_VERIFY_CUTOFF
        assert want.answers[0] == (3, 1.0)
        got = index.query(boxed, 0.3, 1.0)
        assert got.candidates == want.candidates
        assert got.answers == want.answers

        plain_batch = index.query_batch([plain] + queries, 0.3, 1.0)
        boxed_batch = index.query_batch([boxed] + queries, 0.3, 1.0)
        assert boxed_batch.results[0].answers == want.answers
        _assert_same(boxed_batch, plain_batch)
        try:
            with ParallelExecutor(index.freeze()) as executor:
                served = executor.query_batch([boxed] + queries, 0.3, 1.0)
                alone = executor.query_batch([boxed], 0.3, 1.0)
        finally:
            index.thaw()
        _assert_same(served, plain_batch)
        assert alone.results[0].answers == want.answers
