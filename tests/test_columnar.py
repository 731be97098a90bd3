"""Columnar exact-verification kernels (:mod:`repro.exec.columnar`).

The kernels replace the per-candidate Python loop with vectorized
sorted-hash intersection.  The contract is *bit identity*: for any
sets, ``jaccard_values`` over CSR hash arrays equals
:func:`repro.core.similarity.jaccard` float for float -- including the
empty-vs-empty convention -- and the index's answers and accounted CPU
equal the per-candidate ``frozenset`` loop's.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.minhash import stable_element_hash as element_hash
from repro.core.similarity import jaccard
from repro.exec.columnar import (
    build_csr,
    gather_csr,
    hash_set,
    intersect_counts,
    jaccard_values,
)

SETS = st.frozensets(
    st.one_of(st.integers(-50, 50), st.text(max_size=4)), max_size=20
)


class TestHashing:
    def test_element_hash_deterministic_and_typed(self):
        assert element_hash("a") == element_hash("a")
        # Distinct set elements get distinct hashes...
        values = {element_hash(v) for v in (1, "1", b"1", (1,), 2)}
        assert len(values) == 5
        # ...but equal-comparing builtin numerics are ONE set element
        # (frozenset({1}) == frozenset({1.0})), so they share a hash.
        assert (
            element_hash(1) == element_hash(1.0)
            == element_hash(True) == element_hash(1 + 0j)
        )
        assert element_hash(0.5) != element_hash(1)
        assert element_hash(float("nan")) == element_hash(float("nan"))

    def test_hash_set_sorted_unique(self):
        arr, collided = hash_set(frozenset({"a", "b", "c", "d"}))
        assert arr.dtype == np.uint64
        assert np.all(arr[1:] > arr[:-1])
        assert not collided

    def test_hash_set_empty(self):
        arr, collided = hash_set(frozenset())
        assert len(arr) == 0 and not collided

    def test_collision_flag(self, monkeypatch):
        """Two distinct elements forced onto one hash trip the flag."""
        monkeypatch.setattr(
            "repro.core.minhash.stable_element_hash", lambda e: 42
        )
        _, collided = hash_set(frozenset({"x", "y"}))
        assert collided
        _, collided = hash_set(frozenset({"x"}))
        assert not collided


class TestCSR:
    def test_build_and_gather_roundtrip(self):
        arrays = [
            hash_set(s)[0]
            for s in (frozenset({1, 2, 3}), frozenset(), frozenset({9}))
        ]
        indptr, data = build_csr(arrays)
        assert list(indptr) == [0, 3, 3, 4]
        for i, arr in enumerate(arrays):
            assert np.array_equal(data[indptr[i]:indptr[i + 1]], arr)
        # Gather rows out of order, with repeats and empty rows.
        rows = np.array([2, 0, 1, 0])
        sub_indptr, sub_data = gather_csr(indptr, data, rows)
        for j, row in enumerate(rows):
            assert np.array_equal(
                sub_data[sub_indptr[j]:sub_indptr[j + 1]], arrays[row]
            )

    def test_empty_inputs(self):
        indptr, data = build_csr([])
        assert list(indptr) == [0] and len(data) == 0
        sub_indptr, sub_data = gather_csr(
            indptr, data, np.empty(0, dtype=np.int64)
        )
        assert list(sub_indptr) == [0] and len(sub_data) == 0


class TestIntersectCounts:
    def test_counts_match_set_intersection(self):
        sets = [
            frozenset({1, 2, 3}),
            frozenset(),
            frozenset({3, 4, 5, 6}),
            frozenset({7}),
        ]
        query = frozenset({2, 3, 7})
        indptr, data = build_csr([hash_set(s)[0] for s in sets])
        counts = intersect_counts(hash_set(query)[0], indptr, data)
        assert list(counts) == [len(s & query) for s in sets]

    def test_empty_segments_count_zero(self):
        """Empty CSR rows must produce 0 (the ``reduceat`` trap)."""
        indptr, data = build_csr(
            [np.empty(0, np.uint64), hash_set(frozenset({1}))[0],
             np.empty(0, np.uint64)]
        )
        counts = intersect_counts(hash_set(frozenset({1, 2}))[0], indptr, data)
        assert list(counts) == [0, 1, 0]

    def test_empty_query_or_data(self):
        indptr, data = build_csr([hash_set(frozenset({1, 2}))[0]])
        assert list(intersect_counts(np.empty(0, np.uint64), indptr, data)) == [0]
        empty_indptr, empty_data = build_csr([np.empty(0, np.uint64)])
        assert list(
            intersect_counts(hash_set(frozenset({1}))[0], empty_indptr, empty_data)
        ) == [0]


class TestJaccardValues:
    def test_empty_vs_empty_is_one(self):
        values = jaccard_values(0, np.array([0]), np.array([0]))
        assert values[0] == 1.0 == jaccard(frozenset(), frozenset())

    def test_empty_vs_nonempty_is_zero(self):
        values = jaccard_values(0, np.array([3]), np.array([0]))
        assert values[0] == 0.0 == jaccard(frozenset(), frozenset({1, 2, 3}))

    @given(st.lists(SETS, max_size=8), SETS)
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_scalar_jaccard(self, sets, query):
        """Property: the full columnar pipeline (hash -> CSR ->
        intersect -> jaccard) equals the scalar path float for float."""
        arrays = []
        for s in sets:
            arr, collided = hash_set(s)
            assert not collided  # blake2b over tiny domains
            arrays.append(arr)
        qarr, collided = hash_set(query)
        assert not collided
        indptr, data = build_csr(arrays)
        inter = intersect_counts(qarr, indptr, data)
        sizes = np.fromiter((len(s) for s in sets), np.int64, count=len(sets))
        values = jaccard_values(len(query), sizes, inter)
        for i, s in enumerate(sets):
            assert values[i] == jaccard(query, s)  # bitwise ==


def _legacy_loop(index, query, candidates, lo, hi):
    """The per-candidate ``frozenset`` loop the kernels replaced:
    ``(answers, accounted CPU)`` for one query's candidates."""
    query = frozenset(query)
    stored = {sid: index.store.get(sid) for sid in candidates}
    values = {sid: jaccard(elements, query) for sid, elements in stored.items()}
    answers = sorted(
        ((sid, v) for sid, v in values.items() if lo <= v <= hi),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return answers, sum(len(e) + len(query) for e in stored.values())


class TestIndexEquivalence:
    """Columnar verification through the index equals the scalar loop."""

    @pytest.fixture(scope="class")
    def index(self):
        from repro.core.index import SetSimilarityIndex
        from repro.data.generators import planted_clusters

        sets = planted_clusters(
            n_clusters=5, per_cluster=6, base_size=18, universe=900,
            mutation_rate=0.25, seed=13,
        )
        return SetSimilarityIndex.build(
            sets, budget=30, recall_target=0.8, k=20, b=4, seed=13,
            sample_pairs=1_500,
        )

    @pytest.mark.parametrize("lo,hi", [(0.5, 1.0), (0.0, 0.4), (0.2, 0.8)])
    def test_columnar_equals_legacy_loop(self, index, lo, hi):
        queries = [index.store.get(sid) for sid in sorted(index.sids)[:6]]
        queries.append(frozenset({"unseen", "elements"}))
        queries.append(frozenset())

        columnar = index.query_batch(queries, lo, hi)

        verify_cpu = 0
        for query, result in zip(queries, columnar.results):
            answers, cpu = _legacy_loop(index, query, result.candidates, lo, hi)
            assert result.answers == answers  # sids AND float similarities
            verify_cpu += cpu
        embed_cpu = index.embedder.k * sum(1 for q in queries if q)
        assert columnar.io.cpu_ops == verify_cpu + embed_cpu

    def test_single_query_path_equivalence(self, index):
        query = index.store.get(next(iter(index.sids)))
        single = index.query(query, 0.3, 1.0)
        answers, cpu = _legacy_loop(index, query, single.candidates, 0.3, 1.0)
        assert single.answers == answers
        assert single.io.cpu_ops == cpu + index.embedder.k
        (row,) = index.query_batch([query], 0.3, 1.0).results
        assert (row.answers, row.candidates) == (single.answers, single.candidates)

    def test_collision_fallback_sets_still_exact(self, index, monkeypatch):
        """A set whose hashes collide silently falls back to exact
        ``frozenset`` verification and still answers correctly."""
        sid = next(iter(index.sids))
        elements = index.store.get(sid)
        # Corrupt the stored row as a collision would: shorter than
        # the set, and mark the sid for fallback.
        index._hashes.lens[sid] -= 1
        index._cfallback.add(sid)
        try:
            result = index.query(elements, 0.9, 1.0)
            assert any(s == sid and v == 1.0 for s, v in result.answers)
        finally:
            index._hashes.lens[sid] += 1
            index._cfallback.discard(sid)
