"""Candidates as one CSR per batch (:func:`repro.exec.columnar.pairs_csr`).

A batch's candidates travel from probe to result as ``(indptr, sids)``
over its query rows, each row's sids ascending and unique.  These tests
pin every layer of that against the Python-set formulation it replaced:
the ``sorted_unique`` primitive (both its mark and its sort path)
against ``np.unique``; the plan algebra
against set algebra for every plan family; the filter-wide probe
against the per-table probes (sids, charges, ``hashtable.*`` counter
moves) on ``freeze()`` and mapped views; the traced EXPLAIN attributes
against a set-based recount; the sharded merge against the unsharded
engine (and, where sketch routing splits a batch, against a set-based
merge of what each shard answered alone); fetch charging on arrays; and
the stacked v4 snapshot layout against hostile manifests.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import _LiveView
from repro.core.minhash import hash_rows
from repro.core.query_plan import combine_candidates
from repro.exec import ParallelExecutor, open_snapshot
from repro.exec.columnar import (
    MARK_SPAN_FACTOR,
    KeyOverflowError,
    csr_of,
    csr_split,
    dense_span,
    sorted_unique,
)
from repro.exec.shard import ShardedExecutor, build_sharded, open_sharded
from repro.exec.snapfile import (
    MANIFEST_FILE,
    SnapshotFormatError,
    SnapshotIntegrityError,
    byte_breakdown,
)
from repro.hamming.bitvector import complement
from repro.obs import metrics
from repro.obs.explain import probe_spans
from repro.storage.iomodel import IOStats
from tests.test_index import PLAN_CASES, build_planned_index, oracle_queries

HASHTABLE_COUNTERS = (
    "hashtable.probes", "hashtable.probe_pages", "hashtable.probe_pages_saved",
)


def _counters():
    return [metrics.counter(name).value for name in HASHTABLE_COUNTERS]


def _assert_well_formed(csr, n_rows):
    indptr, sids = csr
    assert indptr.dtype == np.int64 and sids.dtype == np.int64
    assert len(indptr) == n_rows + 1 and indptr[0] == 0
    assert indptr[-1] == len(sids)
    for row in csr_split(indptr, sids):
        assert np.all(row[1:] > row[:-1])  # ascending, unique


# -- sorted_unique -----------------------------------------------------------


@st.composite
def _dedup_inputs(draw, dtype):
    """``(values, dense)``: an array of ``dtype`` whose span takes the
    mark path (narrow) or the sort path (wide, or holding a negative)."""
    n = draw(st.integers(0, 60))
    lowest = -(2**63) if dtype is np.int64 else 0
    highest = 2**63 - 1 if dtype is np.int64 else 2**64 - 1
    shape = draw(st.sampled_from(
        ["narrow", "wide", "negative"] if lowest else ["narrow", "wide"]
    ))
    if shape == "narrow" and n:
        top = draw(st.integers(0, MARK_SPAN_FACTOR * n - 1))
        values = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    elif shape == "wide" and n:
        values = [draw(st.integers(MARK_SPAN_FACTOR * n, highest))] + draw(
            st.lists(st.integers(0, highest), min_size=n - 1, max_size=n - 1)
        )
    elif n:
        values = [draw(st.integers(lowest, -1))] + draw(st.lists(
            st.integers(lowest, highest), min_size=n - 1, max_size=n - 1
        ))
    else:
        values = []
    array = np.array(draw(st.permutations(values)), dtype=dtype)
    return array, shape == "narrow" and n > 0


def _assert_sorted_unique(drawn, dtype):
    array, dense = drawn
    assert (dense_span(array) > 0) == dense
    got = sorted_unique(array)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, np.unique(array))


@given(_dedup_inputs(np.int64))
@settings(max_examples=200)
def test_sorted_unique_int64(drawn):
    """Property: the mark path (narrow spans) and the sort path (wide
    spans, negatives) each equal ``np.unique`` and keep the dtype."""
    _assert_sorted_unique(drawn, np.int64)


@given(_dedup_inputs(np.uint64))
@settings(max_examples=200)
def test_sorted_unique_uint64(drawn):
    _assert_sorted_unique(drawn, np.uint64)


def test_sorted_unique_huge_value_allocates_no_span():
    """One sid of 2**40 among three: the sort path, with nothing
    allocated in proportion to the span."""
    array = np.array([2**40, 3, 3, 0], dtype=np.int64)
    assert dense_span(array) == 0
    tracemalloc.start()
    try:
        got = sorted_unique(array)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, [0, 3, 2**40])
    assert peak < 1 << 16


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_sorted_unique_empty_and_all_equal(dtype):
    empty = np.empty(0, dtype=dtype)
    assert sorted_unique(empty).dtype == dtype and len(sorted_unique(empty)) == 0
    same = np.full(9, 7, dtype=dtype)
    np.testing.assert_array_equal(sorted_unique(same), np.array([7], dtype=dtype))


# -- the plan algebra ----------------------------------------------------------

#: ``plan -> how many probes it consumes``.
FAMILIES = {
    "full_collection": 0, "empty_queries": 0, "dfi(up)": 1, "sfi(lo)": 1,
    "complement_sfi(up)": 1, "complement_dfi(lo)": 1, "sfi_difference": 2,
    "dfi_difference": 2, "pivot_union": 4,
}


def _set_algebra(plan, probed, probes, n_queries, rows, all_sids):
    """The per-query Python-set plan algebra the CSR algebra replaced."""
    if plan == "full_collection":
        return [set(all_sids) for _ in range(n_queries)]
    results = [set() for _ in range(n_queries)]
    if plan == "empty_queries":
        return results
    if plan in ("dfi(up)", "sfi(lo)"):
        per_row = probed[probes[0]]
    elif plan in ("complement_sfi(up)", "complement_dfi(lo)"):
        per_row = [set(all_sids) - s for s in probed[probes[0]]]
    elif plan == "sfi_difference":
        per_row = [a - b for a, b in zip(probed[probes[0]], probed[probes[1]])]
    elif plan == "dfi_difference":
        per_row = [b - a for a, b in zip(probed[probes[0]], probed[probes[1]])]
    else:
        pd, ld, ps, us = (probed[p] for p in probes)
        per_row = [(a - b) | (c - d) for a, b, c, d in zip(pd, ld, ps, us)]
    for row, i in enumerate(rows):
        results[i] = per_row[row]
    return results


@st.composite
def plan_cases(draw):
    plan = draw(st.sampled_from(sorted(FAMILIES)))
    n_queries = draw(st.integers(0, 6))
    rows = sorted(draw(st.sets(st.integers(0, max(0, n_queries - 1)), max_size=n_queries)))
    if plan == "empty_queries" or n_queries == 0:
        rows = []
    universe = sorted(draw(st.sets(st.integers(0, 80), max_size=25)))
    probes = [(f"f{p}", p / 10) for p in range(FAMILIES[plan])]
    pick = st.sets(st.sampled_from(universe)) if universe else st.just(set())
    probed = {key: [draw(pick) for _ in rows] for key in probes}
    return plan, probed, probes, n_queries, rows, universe


@given(plan_cases())
@settings(max_examples=300, deadline=None)
def test_csr_plan_algebra_equals_set_algebra(case):
    plan, probed, probes, n_queries, rows, universe = case
    csr = combine_candidates(
        plan, {key: csr_of(sets) for key, sets in probed.items()}, probes,
        n_queries, rows, lambda: np.asarray(universe, dtype=np.int64),
    )
    _assert_well_formed(csr, n_queries)
    got = [set(row.tolist()) for row in csr_split(*csr)]
    assert got == _set_algebra(plan, probed, probes, n_queries, rows, universe)


@given(plan_cases())
@settings(max_examples=200, deadline=None)
def test_csr_plan_algebra_at_huge_sids(case):
    """The algebra over sids from 2**62: equal to the set algebra where
    every ``row * span + sid`` key fits int64; else refused with
    ``KeyOverflowError`` -- which a single probed row never needs."""
    plan, probed, probes, n_queries, rows, universe = case
    base = 2**62
    probed = {
        key: [{base + sid for sid in sids} for sids in per_row]
        for key, per_row in probed.items()
    }
    universe = [base + sid for sid in universe]
    try:
        csr = combine_candidates(
            plan, {key: csr_of(sets) for key, sets in probed.items()}, probes,
            n_queries, rows, lambda: np.asarray(universe, dtype=np.int64),
        )
    except KeyOverflowError:
        assert len(rows) >= 2
        return
    _assert_well_formed(csr, n_queries)
    got = [set(row.tolist()) for row in csr_split(*csr)]
    assert got == _set_algebra(plan, probed, probes, n_queries, rows, universe)


# -- the filter-wide probe ---------------------------------------------------


@pytest.fixture(scope="module")
def views(clustered_sets, tmp_path_factory):
    """``(index, {"frozen": ..., "mapped": ...})`` over the planned index
    (every plan family reachable); the index stays frozen."""
    index = build_planned_index(clustered_sets)
    path = tmp_path_factory.mktemp("csr") / "snap"
    index.save_snapshot(path)
    return index, {"frozen": index.freeze(), "mapped": open_snapshot(path)}


def _filters(snap):
    for kind, filters in (("sfi", snap.sfis), ("dfi", snap.dfis)):
        for point, fp in sorted(filters.items()):
            yield kind, point, fp


@pytest.mark.parametrize("view", ["frozen", "mapped"])
def test_filter_wide_probe_equals_per_table_probes(views, clustered_sets, view):
    index, snaps = views
    snap = snaps[view]
    queries = oracle_queries(clustered_sets)
    matrix = snap.embedder.embed_many(queries)
    for _, _, fp in _filters(snap):
        probe_matrix = complement(matrix, snap.n_bits) if fp.complement_query else matrix
        l = fp.n_tables
        for start, stop in ((0, l), (1, l - 1), (l - 1, l)):
            want_io, got_io = IOStats(), IOStats()
            before = _counters()
            want = [set() for _ in queries]
            hits = 0
            for t in range(start, stop):
                for j, got in enumerate(fp.probe_table(t, probe_matrix, want_io)):
                    want[j].update(got)
                    hits += len(got)
            middle = _counters()
            csr, got_hits = fp.probe_tables(start, stop, probe_matrix, got_io)
            after = _counters()
            _assert_well_formed(csr, len(queries))
            assert [set(row.tolist()) for row in csr_split(*csr)] == want
            assert got_hits == hits
            assert got_io == want_io
            assert np.subtract(after, middle).tolist() == np.subtract(
                middle, before
            ).tolist()
    # The live filters, through their pager, agree with the frozen image.
    live_index = index
    for kind, point, fp in _filters(snaps["frozen"]):
        live = (live_index._sfis if kind == "sfi" else live_index._dfis)[point]
        probe_matrix = complement(matrix, snap.n_bits) if fp.complement_query else matrix
        io0 = live_index.io.snapshot()
        live_csr, live_hits = live.probe_tables(0, fp.n_tables, probe_matrix, IOStats())
        live_io = live_index.io.snapshot() - io0
        frozen_io = IOStats()
        frozen_csr, frozen_hits = fp.probe_tables(0, fp.n_tables, probe_matrix, frozen_io)
        for a, b in zip(live_csr, frozen_csr):
            np.testing.assert_array_equal(a, b)
        assert live_hits == frozen_hits
        assert (live_io.random_reads, live_io.sequential_reads) == (
            frozen_io.random_reads, frozen_io.sequential_reads
        )


# -- traced EXPLAIN attributes -----------------------------------------------

INDEX_CASES = [c for c in PLAN_CASES if c[3] == "index" and c[4] != "empty_queries"]


@pytest.mark.parametrize("path", ["live", "mapped"])
@pytest.mark.parametrize(
    "lo,hi,plan", [c[1:3] + (c[4],) for c in INDEX_CASES],
    ids=[c[0] for c in INDEX_CASES],
)
def test_explain_attributes_match_a_set_recount(views, clustered_sets, path, lo, hi, plan):
    """``candidates``, ``collisions``, ``survived`` and ``est_in_range``
    recounted from per-table probes and Python sets."""
    index, snaps = views
    snap = snaps["mapped"]
    queries = oracle_queries(clustered_sets) + [frozenset()]
    run = index if path == "live" else ParallelExecutor(snap)
    batch = run.query_batch(queries, lo, hi, explain=True)
    cspan = next(batch.trace.find("candidates_batch"))
    assert cspan.attrs["plan"] == plan
    rows = [i for i, q in enumerate(queries) if q]
    q_indptr, q_data, _ = hash_rows([queries[i] for i in rows])
    codes = snap.embedder.code_hashes(q_indptr, q_data)
    matrix = snap.embedder.encode(codes)
    answers = [r.answer_sids for r in batch.results]
    for span in probe_spans(cspan):
        kind = span.name.split("_")[0]
        fp = snap.filter_probe(kind, span.attrs["sigma"])
        probe_matrix = complement(matrix, snap.n_bits) if fp.complement_query else matrix
        per_row = [set() for _ in rows]
        hits = 0
        for t in range(fp.n_tables):
            for j, got in enumerate(fp.probe_table(t, probe_matrix, IOStats())):
                per_row[j].update(got)
                hits += len(got)
        unique = sum(len(s) for s in per_row)
        assert span.attrs["candidates"] == unique
        if kind == "sfi":
            assert span.attrs["collisions"] == hits - unique
        assert span.attrs["survived"] == sum(
            len(s & answers[i]) for s, i in zip(per_row, rows)
        )
    vspan = next(batch.trace.find("verify_batch"))
    est = 0
    if plan != "full_collection":
        for row, i in enumerate(rows):
            cands = sorted(batch.results[i].candidates)
            if cands:
                vals = snap.embedder.estimate_pairs(
                    codes[[row] * len(cands)], snap.codes_of(cands)
                )
                est += int(((lo <= vals) & (vals <= hi)).sum())
    assert vspan.attrs["est_in_range"] == est


# -- the sharded merge ---------------------------------------------------------


@pytest.fixture(scope="module")
def fleets(clustered_sets, tmp_path_factory):
    """Mirror-built fleets of 1, 2 and 3 shards beside the unsharded index."""
    index = build_planned_index(clustered_sets)
    root = tmp_path_factory.mktemp("csr-shards")
    out = {}
    for k in (1, 2, 3):
        build_sharded(
            clustered_sets, root / f"k{k}", n_shards=k, k=48, b=6, seed=11,
            plan=index.plan, dist=index.distribution,
        )
        out[k] = open_sharded(root / f"k{k}")
    return index, out


SHARD_RANGE = (0.3, 1.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sharded_merge_equals_unsharded(fleets, clustered_sets, k):
    index, by_k = fleets
    sharded = by_k[k]
    queries = oracle_queries(clustered_sets) + [
        frozenset({424242, 434343}), frozenset(),
    ]
    with ShardedExecutor(sharded) as executor:
        got = executor.query_batch(queries, *SHARD_RANGE)
    _assert_well_formed(got.candidate_csr, len(queries))
    for row, result in zip(csr_split(*got.candidate_csr), got.results):
        np.testing.assert_array_equal(result.candidate_sids, row)
    want = index.query_batch(queries, *SHARD_RANGE)
    for g, w in zip(got.results, want.results):
        assert g.answers == w.answers
        assert g.candidates == w.candidates
    # The foreign and empty queries are routed away from every shard.
    assert got.exec_stats["route"]["subqueries_pruned"] >= 2 * k


# -- results and fetch charging ----------------------------------------------


def test_query_result_candidates_read_lazily(views, clustered_sets):
    _, snaps = views
    batch = ParallelExecutor(snaps["frozen"]).query_batch(
        oracle_queries(clustered_sets), 0.3, 1.0
    )
    result = batch.results[0]
    assert isinstance(result._candidates, np.ndarray)  # no set until read
    assert result.n_candidates == len(result.candidate_sids)
    assert result.candidates == set(result.candidate_sids.tolist())
    assert isinstance(result._candidates, set)
    np.testing.assert_array_equal(
        result.candidate_sids, sorted(result.candidates)
    )


def test_fetch_charging_takes_arrays(views):
    """A non-empty ndarray of sids is charged like the list of them."""
    index, snaps = views
    sids = [0, 3, 17, 40]
    for snap in snaps.values():
        by_list, by_array = IOStats(), IOStats()
        snap.charge_fetches(sids, by_list)
        snap.charge_fetches(np.array(sids), by_array)
        assert by_array == by_list != IOStats()
        snap.fetch(np.array(sids), by_array)
        assert by_array == by_list + by_list
    live = _LiveView(index)
    by_list, by_array = IOStats(), IOStats()
    live.fetch(sids, by_list)
    live.fetch(np.array(sids, dtype=np.int64), by_array)
    assert by_array == by_list != IOStats()
    by_list_snap = IOStats()
    snaps["frozen"].charge_fetches(sids, by_list_snap)
    assert by_list == by_list_snap


# -- the stacked v4 layout under hostile manifests ----------------------------


@pytest.fixture()
def snapdir(views, tmp_path):
    """A private copy of the mapped snapshot whose manifest a test edits."""
    import shutil

    _, snaps = views
    dst = tmp_path / "snap"
    shutil.copytree(snaps["mapped"].path, dst)
    return dst


def _edit_filter(path, edit, i=0):
    manifest = json.loads((path / MANIFEST_FILE).read_text())
    edit(manifest["filters"][i])
    (path / MANIFEST_FILE).write_text(json.dumps(manifest))


def _descending(meta):
    offsets = meta["run_offsets"]
    offsets[1] = offsets[2] + 1


def _zero_bucket(meta):
    meta["n_buckets"][1] += meta["n_buckets"][0]
    meta["n_buckets"][0] = 0


HOSTILE = {
    "run_offsets_not_monotone": _descending,
    "run_offsets_not_from_zero": lambda m: m["run_offsets"].__setitem__(0, 1),
    "run_offsets_negative": lambda m: m["run_offsets"].__setitem__(1, -1),
    "run_offsets_past_the_runs": lambda m: m["run_offsets"].__setitem__(
        -1, m["run_offsets"][-1] + 1
    ),
    "run_offsets_too_short": lambda m: m["run_offsets"].pop(),
    "run_offsets_not_ints": lambda m: m["run_offsets"].__setitem__(1, "3"),
    "n_buckets_sum_mismatch": lambda m: m["n_buckets"].__setitem__(
        0, m["n_buckets"][0] + 1
    ),
    "n_buckets_length_mismatch": lambda m: m["n_buckets"].append(1),
    "n_buckets_zero": _zero_bucket,
    "n_buckets_missing": lambda m: m.pop("n_buckets"),
    "table_count_mismatch": lambda m: m.__setitem__("l", m["l"] + 1),
}


def test_stacked_tables_are_the_bucket_bytes(views):
    """``byte_breakdown`` files every stacked ``f###_`` array, and only
    those, under ``buckets``."""
    _, snaps = views
    manifest = snaps["mapped"].manifest
    stacked = sum(
        spec["nbytes"] for name, spec in manifest["arrays"].items()
        if name[0] == "f" and name[1:4].isdigit()
    )
    assert byte_breakdown(manifest)["groups"]["buckets"] == stacked > 0
    # Five arrays a filter: its bit positions and its four stacked fields.
    assert len(manifest["arrays"]) < 5 * len(manifest["filters"]) + 16


@pytest.mark.parametrize("edit", HOSTILE.values(), ids=HOSTILE)
def test_hostile_table_bounds_fail_typed_at_open(snapdir, edit):
    """Checked from the manifest alone, at every open."""
    _edit_filter(snapdir, edit)
    with pytest.raises(SnapshotFormatError, match="f000_"):
        open_snapshot(snapdir)


def test_shifted_table_boundary_fails_verify(snapdir):
    """A boundary moved inside the runs still fits the arrays, so only
    reading ``run_fps`` can tell: ``verify=True`` refuses it."""
    snap = open_snapshot(snapdir)
    stack = snap.filter_probe(*next(_filters(snap))[:2]).stack
    offsets = stack.run_offsets.tolist()
    fps = stack.run_fps
    t = next(
        t for t in range(1, len(offsets) - 1)
        if offsets[t - 1] < offsets[t] < offsets[t + 1]
        and fps[offsets[t]] < fps[offsets[t] - 1]
    )
    _edit_filter(snapdir, lambda m: m["run_offsets"].__setitem__(t, offsets[t] + 1))
    open_snapshot(snapdir)  # the O(ms) open reads no array bytes
    with pytest.raises(SnapshotIntegrityError, match="f000_"):
        open_snapshot(snapdir, verify=True)


@given(
    field=st.sampled_from(["n_buckets", "run_offsets"]),
    a=st.integers(0, 7),
    b=st.integers(0, 7),
    delta=st.integers(-3, 3),
    keep_sum=st.booleans(),
)
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_fuzzed_table_bounds_fail_typed_or_serve(
    snapdir, clustered_sets, field, a, b, delta, keep_sum
):
    """Table bounds nudged by a few buckets or runs (``keep_sum`` moves
    them between two tables, so the arrays still fit) either fail typed
    at open or open a snapshot that answers: bounds that fit the arrays
    keep every read inside them.  Never an untyped error."""
    original = (snapdir / MANIFEST_FILE).read_text()

    def edit(meta):
        values = meta[field]
        values[a % len(values)] += delta
        if keep_sum:
            values[b % len(values)] -= delta

    try:
        _edit_filter(snapdir, edit)
        try:
            snap = open_snapshot(snapdir, verify=True)
        except (SnapshotFormatError, SnapshotIntegrityError):
            return
        # [0.5, 1] is sfi(lo) at the first SFI point: filter f000.
        ParallelExecutor(snap).query_batch(oracle_queries(clustered_sets), 0.5, 1.0)
    finally:
        (snapdir / MANIFEST_FILE).write_text(original)
