"""Zero-copy snapshot files: round-trip fidelity and loud failure.

``save_snapshot`` writes a frozen index image as aligned raw arrays +
a checksummed manifest; ``open_snapshot`` maps it back as a
:class:`~repro.exec.snapfile.MappedSnapshot` that must behave exactly
like the in-memory ``index.freeze()`` snapshot -- same answers, same
simulated page charges, same counter movements.  These tests pin the
round trip (including the int64 / tagged set-element encodings and
lazy set materialization), property-test the raw array pack layer
across dtypes and shapes, and check that every corruption mode --
wrong format, wrong version, truncation, flipped bytes, overlapping
extents, dtype lies, out-of-range manifest fields and codes -- fails
loudly with a :class:`~repro.exec.snapfile.SnapshotError`.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import SetSimilarityIndex
from repro.data.generators import planted_clusters, uniform_random_sets
from repro.exec import (
    MappedSnapshot,
    ParallelExecutor,
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    open_snapshot,
    save_snapshot,
    verify_snapshot,
)
from repro.exec.snapfile import (
    _ARRAY_TYPES,
    _TABLE_FIELDS,
    ARRAYS_FILE,
    MANIFEST_FILE,
    _decode_tagged,
    _encode_sets,
    open_arrays,
    write_arrays,
)
from repro.obs import metrics

RANGES = [(0.5, 1.0), (0.0, 0.4), (0.2, 0.8), (0.0, 1.0), (0.7, 0.9)]


def _build_index(seed: int = 1, elements: str = "int"):
    if seed % 2:
        sets = planted_clusters(
            n_clusters=5, per_cluster=7, base_size=20, universe=1200,
            mutation_rate=0.2, seed=seed,
        )
    else:
        sets = uniform_random_sets(n_sets=40, set_size=14, universe=700, seed=seed)
    if elements == "str":
        sets = [frozenset(f"w{e}" for e in s) for s in sets]
    elif elements == "mixed":
        sets = [frozenset((e, f"w{e}")) | s for s, e in zip(sets, range(len(sets)))]
    index = SetSimilarityIndex.build(
        sets, budget=36, recall_target=0.8, k=24, b=4, seed=seed,
        sample_pairs=2_000,
    )
    rng = np.random.default_rng(seed)
    queries = [sets[int(rng.integers(len(sets)))] for _ in range(6)]
    queries.append(frozenset())
    return index, sets, queries


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """One built index saved as a snapshot, shared across this module."""
    index, sets, queries = _build_index(seed=1)
    path = tmp_path_factory.mktemp("snap") / "snapdir"
    snapshot = index.freeze()
    try:
        save_snapshot(snapshot, path)
    finally:
        index.thaw()
    return index, sets, queries, path


# -- round trip ------------------------------------------------------------


def test_roundtrip_state_matches_frozen(saved):
    index, _, _, path = saved
    mapped = open_snapshot(path)
    frozen = index.freeze()
    try:
        assert isinstance(mapped, MappedSnapshot)
        assert mapped.n_sets == frozen.n_sets
        assert mapped.sids == frozen.sids
        assert mapped.row_of == frozen.row_of
        np.testing.assert_array_equal(mapped.sid_array, frozen.sid_array)
        assert mapped.fallback_sids == frozen.fallback_sids
        np.testing.assert_array_equal(mapped.code_matrix, frozen.code_matrix)
        np.testing.assert_array_equal(mapped.vector_matrix, frozen.vector_matrix)
        np.testing.assert_array_equal(mapped.set_indptr, frozen.set_indptr)
        np.testing.assert_array_equal(mapped.set_data, frozen.set_data)
        np.testing.assert_array_equal(mapped.set_sizes, frozen.set_sizes)
        np.testing.assert_array_equal(mapped.fetch_random, frozen.fetch_random)
        np.testing.assert_array_equal(mapped.fetch_seq, frozen.fetch_seq)
        assert mapped.n_bits == frozen.n_bits
        assert mapped.scan_pages == frozen.scan_pages
        assert mapped.cost.seq_cost == frozen.cost.seq_cost
        assert mapped.cost.random_cost == frozen.cost.random_cost
        assert mapped.cost.cpu_cost == frozen.cost.cpu_cost
        assert set(mapped.sfis) == set(frozen.sfis)
        assert set(mapped.dfis) == set(frozen.dfis)
        for sid in frozen.sids:
            assert mapped.sets[sid] == frozen.sets[sid]
    finally:
        index.thaw()


def test_mapped_tables_equal_frozen_views(saved):
    """The table stack a snapshot maps is the ``freeze()`` view's own."""
    index, _, _, path = saved
    mapped = open_snapshot(path)
    frozen = index.freeze()
    try:
        for kind, filters in (("sfi", frozen.sfis), ("dfi", frozen.dfis)):
            for point, want in filters.items():
                got = mapped.filter_probe(kind, point)
                np.testing.assert_array_equal(got.positions, want.positions)
                assert got.complement_query == want.complement_query
                assert got.n_tables == want.n_tables
                g, w = got.stack, want.stack
                assert type(g) is type(w)
                for field in ("n_buckets", "run_offsets", *_TABLE_FIELDS):
                    a, b = getattr(g, field), getattr(w, field)
                    assert a.dtype == b.dtype
                    np.testing.assert_array_equal(a, b)
    finally:
        index.thaw()


def test_mapped_arrays_are_readonly_memmaps(saved):
    _, _, _, path = saved
    mapped = open_snapshot(path)
    assert not mapped.code_matrix.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        mapped.code_matrix[0, 0] = 1


def _assert_batches_identical(got, want):
    assert got.n_queries == want.n_queries
    for g, w in zip(got.results, want.results):
        assert g.answers == w.answers
        assert g.candidates == w.candidates
    assert got.io == want.io
    assert got.io_time == want.io_time
    assert got.cpu_time == want.cpu_time
    assert got.pages_saved == want.pages_saved
    assert got.fetches_saved == want.fetches_saved


@pytest.mark.parametrize("lo,hi", RANGES)
def test_mapped_snapshot_serves_identically(saved, lo, hi):
    """Thread executor over the mapped snapshot == sequential index."""
    index, _, queries, path = saved
    sequential = index.query_batch(queries, lo, hi)
    mapped = open_snapshot(path)
    with ParallelExecutor(mapped) as ex:
        served = ex.query_batch(queries, lo, hi)
    _assert_batches_identical(served, sequential)


def test_mapped_snapshot_scan_strategy(saved):
    index, _, queries, path = saved
    sequential = index.query_batch(queries, 0.3, 0.9, strategy="scan")
    mapped = open_snapshot(path)
    with ParallelExecutor(mapped) as ex:
        served = ex.query_batch(queries, 0.3, 0.9, strategy="scan")
    _assert_batches_identical(served, sequential)


def test_sets_materialize_lazily(saved):
    _, sets, _, path = saved
    mapped = open_snapshot(path)
    counter = metrics.counter("snapshot.sets_materialized")
    base = counter.value
    assert "sets" not in mapped.__dict__  # nothing touched yet
    sid = mapped.sids[3]
    first = mapped.sets[sid]
    assert counter.value == base + 1
    again = mapped.sets[sid]  # memoized: no second materialization
    assert again is first
    assert counter.value == base + 1


def test_cold_open_is_fast_and_counted(saved):
    import time

    _, _, _, path = saved
    opens = metrics.counter("snapshot.opens")
    mapped_bytes = metrics.counter("snapshot.bytes_mapped")
    base_opens, base_bytes = opens.value, mapped_bytes.value
    t0 = time.perf_counter()
    mapped = open_snapshot(path)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0  # generous bound; typically ~3 ms
    assert opens.value == base_opens + 1
    assert mapped_bytes.value > base_bytes
    assert mapped.n_sets > 0


# -- element encodings -----------------------------------------------------


def _assert_tagged_roundtrip(index, queries, path):
    """``index`` saved at ``path`` uses the tagged encoding, and both
    the mapped snapshot and the thawed index give back every set and
    serve identically."""
    index.save(path)
    manifest = json.loads((path / MANIFEST_FILE).read_text())
    assert manifest["sets_encoding"] == "tagged"
    assert sorted(p.name for p in path.iterdir()) == [ARRAYS_FILE, MANIFEST_FILE]
    mapped = open_snapshot(path)
    loaded = SetSimilarityIndex.load(path)
    for sid in mapped.sids:
        assert mapped.sets[sid] == index.store.get(sid) == loaded.store.get(sid)
    sequential = index.query_batch(queries, 0.2, 0.9)
    with ParallelExecutor(mapped) as ex:
        _assert_batches_identical(ex.query_batch(queries, 0.2, 0.9), sequential)
    _assert_batches_identical(loaded.query_batch(queries, 0.2, 0.9), sequential)


def test_string_elements_use_tagged_encoding(tmp_path):
    index, _, queries = _build_index(seed=2, elements="str")
    _assert_tagged_roundtrip(index, queries, tmp_path / "snap")


def test_mixed_elements_use_tagged_encoding(tmp_path):
    index, _, queries = _build_index(seed=3, elements="mixed")
    _assert_tagged_roundtrip(index, queries, tmp_path / "snap")


def test_huge_int_elements_use_tagged_encoding(tmp_path):
    sets = [frozenset({2 ** 70 + i, -(2 ** 64) - i, i}) for i in range(30)]
    index = SetSimilarityIndex.build(
        sets, budget=12, recall_target=0.7, k=16, b=4, seed=0, sample_pairs=500
    )
    _assert_tagged_roundtrip(index, sets[:4], tmp_path / "snap")


def test_unsupported_element_type_is_refused_at_save(tmp_path):
    """A tuple element has no columnar encoding: the save fails with a
    typed error and writes nothing."""
    sets = [frozenset({(1, 2), 3}), frozenset({3, 4}), frozenset({4, 5})]
    index = SetSimilarityIndex.build(
        sets, budget=6, recall_target=0.7, k=8, b=4, seed=0
    )
    with pytest.raises(SnapshotError, match="tuple"):
        index.save(tmp_path / "snap")
    assert list(tmp_path.iterdir()) == []


#: The element domain a snapshot stores: ints of any size, floats,
#: complex numbers, strs and bytes.
_ELEMENTS = st.one_of(
    st.integers(-(2 ** 70), 2 ** 70),
    st.sampled_from([0, -1, 2 ** 63 - 1, 2 ** 63, -(2 ** 63) - 1]),
    st.floats(allow_nan=False),
    st.complex_numbers(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=8),
)


@given(st.lists(st.frozensets(_ELEMENTS, max_size=6), max_size=5))
@settings(max_examples=150, deadline=None)
def test_tagged_encoding_roundtrips_the_element_domain(sets):
    _, arrays = _encode_sets(sets)
    if "elem_tags" not in arrays:
        return
    flat = _decode_tagged(
        arrays["elem_tags"], arrays["elem_bytes_indptr"], arrays["elem_bytes"]
    )
    bounds = arrays["elem_indptr"].tolist()
    got = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
    want = [list(s) for s in sets]
    assert got == want
    assert [[type(e) for e in row] for row in got] == [
        [type(e) for e in row] for row in want
    ]


def test_tiny_collection_with_mostly_empty_tables(tmp_path):
    """Three sets leave most buckets (and some runs) empty -- the CSR
    flattening and the mapped probe must survive the degenerate end."""
    sets = [frozenset({1, 2, 3}), frozenset({2, 3, 4}), frozenset({10, 11})]
    index = SetSimilarityIndex.build(
        sets, budget=12, recall_target=0.7, k=16, b=4, seed=0, sample_pairs=100
    )
    path = tmp_path / "snap"
    index.save_snapshot(path)
    mapped = open_snapshot(path)
    assert mapped.n_sets == 3
    queries = [frozenset({1, 2, 3}), frozenset({99}), frozenset()]
    for lo, hi in [(0.5, 1.0), (0.0, 1.0), (0.0, 0.4)]:
        sequential = index.query_batch(queries, lo, hi)
        with ParallelExecutor(mapped) as ex:
            _assert_batches_identical(ex.query_batch(queries, lo, hi), sequential)


def test_save_snapshot_refuses_mapped(saved):
    _, _, _, path = saved
    mapped = open_snapshot(path)
    with pytest.raises(SnapshotError):
        save_snapshot(mapped, path.parent / "again")


def test_index_save_snapshot_leaves_live_index_mutable(tmp_path):
    index, _, _ = _build_index(seed=4)
    index.save_snapshot(tmp_path / "snap")
    sid = index.insert(frozenset({1, 2, 3}))  # not frozen afterwards
    assert sid in index.sids


# -- the array pack layer (property tests) ---------------------------------

DTYPES = ("<i8", "<u8", "|u1", "<f8")

array_strategy = st.sampled_from(DTYPES).flatmap(
    lambda dt: st.one_of(
        st.lists(st.integers(0, 200), min_size=0, max_size=40).map(
            lambda xs: np.asarray(xs, dtype=np.dtype(dt))
        ),
        st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
            lambda shape: st.just(
                np.arange(shape[0] * shape[1], dtype=np.dtype(dt)).reshape(shape)
            )
        ),
    )
)


@given(st.lists(array_strategy, min_size=0, max_size=6))
@settings(max_examples=60, deadline=None)
def test_write_open_arrays_roundtrip(tmp_path_factory, arrays):
    path = tmp_path_factory.mktemp("packs") / "arrays.bin"
    named = {f"a{i:02d}": a for i, a in enumerate(arrays)}
    specs = write_arrays(path, named)
    assert list(specs) == list(named)
    for spec in specs.values():
        assert spec["offset"] % 64 == 0
    got = open_arrays(path, specs, verify=True)
    for name, array in named.items():
        assert got[name].dtype == array.dtype
        assert got[name].shape == array.shape
        np.testing.assert_array_equal(got[name], array)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_open_arrays_detects_flipped_byte(tmp_path_factory, data):
    arrays = {
        "x": np.arange(37, dtype=np.int64),
        "y": np.arange(64, dtype=np.uint8).reshape(8, 8),
    }
    path = tmp_path_factory.mktemp("packs") / "arrays.bin"
    specs = write_arrays(path, arrays)
    raw = bytearray(path.read_bytes())
    # Flip a byte inside a spec'd region (padding bytes are unchecked).
    spec = specs[data.draw(st.sampled_from(sorted(specs)))]
    pos = spec["offset"] + data.draw(st.integers(0, spec["nbytes"] - 1))
    raw[pos] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotIntegrityError):
        open_arrays(path, specs, verify=True)
    # ...but the structural (non-verify) open still maps it: checksums
    # are opt-in so cold opens stay O(ms).
    open_arrays(path, specs, verify=False)


def test_open_arrays_rejects_shape_dtype_mismatch(tmp_path):
    path = tmp_path / "arrays.bin"
    specs = write_arrays(path, {"x": np.arange(10, dtype=np.int64)})
    bad = {"x": dict(specs["x"], shape=[11])}
    with pytest.raises(SnapshotFormatError):
        open_arrays(path, bad)


@pytest.mark.parametrize("offset", [-64, 4])
def test_open_arrays_rejects_negative_or_misaligned_offset(tmp_path, offset):
    path = tmp_path / "arrays.bin"
    specs = write_arrays(path, {"x": np.arange(10, dtype=np.int64)})
    bad = {"x": dict(specs["x"], offset=offset)}
    with pytest.raises(SnapshotFormatError, match="offset"):
        open_arrays(path, bad)


def test_open_arrays_rejects_overlapping_extents(tmp_path):
    path = tmp_path / "arrays.bin"
    specs = write_arrays(path, {
        "x": np.arange(16, dtype=np.int64), "y": np.arange(16, dtype=np.int64),
    })
    bad = {"x": specs["x"], "y": dict(specs["y"], offset=specs["x"]["offset"] + 64)}
    with pytest.raises(SnapshotFormatError, match="overlaps"):
        open_arrays(path, bad)


def test_open_arrays_rejects_truncated_file(tmp_path):
    path = tmp_path / "arrays.bin"
    specs = write_arrays(path, {"x": np.arange(100, dtype=np.int64)})
    path.write_bytes(path.read_bytes()[:50])
    with pytest.raises(SnapshotIntegrityError):
        open_arrays(path, specs)


# -- loud failures on snapshot directories ---------------------------------


def _copy_snapshot(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for child in src.iterdir():
        (dst / child.name).write_bytes(child.read_bytes())
    return dst


def test_open_missing_directory(tmp_path):
    with pytest.raises(SnapshotError):
        open_snapshot(tmp_path / "nope")


def test_open_directory_without_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(SnapshotError):
        open_snapshot(tmp_path / "empty")


def test_open_rejects_garbage_manifest(saved, tmp_path):
    _, _, _, src = saved
    bad = _copy_snapshot(src, tmp_path / "bad")
    (bad / MANIFEST_FILE).write_text("{not json")
    with pytest.raises(SnapshotFormatError):
        open_snapshot(bad)


def test_open_rejects_wrong_format_name(saved, tmp_path):
    _, _, _, src = saved
    bad = _copy_snapshot(src, tmp_path / "bad")
    manifest = json.loads((bad / MANIFEST_FILE).read_text())
    manifest["format"] = "somebody-elses-format"
    (bad / MANIFEST_FILE).write_text(json.dumps(manifest))
    with pytest.raises(SnapshotFormatError):
        open_snapshot(bad)


def test_open_rejects_future_version(saved, tmp_path):
    _, _, _, src = saved
    bad = _copy_snapshot(src, tmp_path / "bad")
    manifest = json.loads((bad / MANIFEST_FILE).read_text())
    manifest["version"] = 99
    (bad / MANIFEST_FILE).write_text(json.dumps(manifest))
    with pytest.raises(SnapshotFormatError) as exc:
        open_snapshot(bad)
    assert "99" in str(exc.value)


def _first_table(manifest: dict) -> str:
    return next(n for n in manifest["arrays"] if n.endswith("_chain_pages"))[
        : -len("chain_pages")
    ]


def _shorten(spec: dict) -> None:
    spec["shape"][0] -= 1
    spec["nbytes"] -= 8


@pytest.mark.parametrize("field,mutate", [
    ("chain_pages", _shorten),  # one short of n_buckets
    ("run_indptr", _shorten),  # no longer len(run_fps) + 1
    ("run_fps", lambda spec: spec.update(dtype="<i8")),
    ("run_sids", lambda spec: spec.update(shape=[1, spec["shape"][0]])),
])
def test_open_rejects_misfit_table_specs(saved, tmp_path, field, mutate):
    """Checked from the manifest specs alone, at every open."""
    _, _, _, src = saved
    bad = _copy_snapshot(src, tmp_path / "bad")
    manifest = json.loads((bad / MANIFEST_FILE).read_text())
    name = _first_table(manifest) + field
    mutate(manifest["arrays"][name])
    (bad / MANIFEST_FILE).write_text(json.dumps(manifest))
    with pytest.raises(SnapshotFormatError, match=name[: -len(field)]):
        open_snapshot(bad)


@pytest.mark.parametrize("field,values", [
    ("run_fps", [5, 5]),  # not strictly ascending
    ("run_indptr", [0, 2, 1]),  # decreasing
    ("run_indptr", [1]),  # does not start at 0
])
def test_verify_rejects_unordered_table_runs(saved, tmp_path, field, values):
    """Order inside a table's arrays needs their bytes: verify only."""
    _, _, _, src = saved
    bad = _copy_snapshot(src, tmp_path / "bad")
    manifest = json.loads((bad / MANIFEST_FILE).read_text())
    prefix = _first_table(manifest)
    spec = manifest["arrays"][prefix + field]
    assert spec["shape"][0] >= len(values)
    data = np.asarray(values, dtype=spec["dtype"]).tobytes()
    blob = bytearray((bad / ARRAYS_FILE).read_bytes())
    blob[spec["offset"]: spec["offset"] + len(data)] = data
    # Keep the checksum honest so only the order check can object.
    spec["crc32"] = zlib.crc32(
        bytes(blob[spec["offset"]: spec["offset"] + spec["nbytes"]])
    )
    (bad / ARRAYS_FILE).write_bytes(bytes(blob))
    (bad / MANIFEST_FILE).write_text(json.dumps(manifest))
    open_snapshot(bad)  # the O(ms) open reads no array bytes
    with pytest.raises(SnapshotIntegrityError, match=prefix):
        open_snapshot(bad, verify=True)


def test_open_rejects_truncated_arrays(saved, tmp_path):
    _, _, _, src = saved
    bad = _copy_snapshot(src, tmp_path / "bad")
    blob = (bad / ARRAYS_FILE).read_bytes()
    (bad / ARRAYS_FILE).write_bytes(blob[: len(blob) // 2])
    with pytest.raises(SnapshotIntegrityError):
        open_snapshot(bad)


def test_open_rejects_missing_arrays_file(saved, tmp_path):
    _, _, _, src = saved
    bad = _copy_snapshot(src, tmp_path / "bad")
    (bad / ARRAYS_FILE).unlink()
    with pytest.raises(SnapshotIntegrityError):
        open_snapshot(bad)


def test_verify_catches_silent_array_corruption(saved, tmp_path):
    """A flipped code byte passes the O(ms) open but fails verify -- in
    any row but the first non-empty set's, whose codes every open
    re-signs and so refuses."""
    _, _, _, src = saved
    manifest = json.loads((src / MANIFEST_FILE).read_text())
    spec = manifest["arrays"]["code_matrix"]
    for position, caught_at_open in ((spec["nbytes"] - 1, False), (1, True)):
        bad = _copy_snapshot(src, tmp_path / f"bad{position}")
        blob = bytearray((bad / ARRAYS_FILE).read_bytes())
        blob[spec["offset"] + position] ^= 0xFF
        (bad / ARRAYS_FILE).write_bytes(bytes(blob))
        if caught_at_open:
            with pytest.raises(SnapshotIntegrityError, match="re-sign"):
                open_snapshot(bad)
        else:
            open_snapshot(bad)  # structural open cannot see it
        with pytest.raises(SnapshotIntegrityError):
            open_snapshot(bad, verify=True)
        with pytest.raises(SnapshotIntegrityError):
            verify_snapshot(bad)


def test_open_refuses_hash_offsets_past_the_data(saved, tmp_path):
    """The set the open re-signs must have element hashes: verify-CSR
    offsets past the hash data are refused typed even without
    ``verify``."""
    _, _, _, src = saved
    bad = _copy_snapshot(src, tmp_path / "bad")
    manifest = json.loads((bad / MANIFEST_FILE).read_text())
    spec = manifest["arrays"]["set_indptr"]
    blob = bytearray((bad / ARRAYS_FILE).read_bytes())
    past = np.array([10**6, 10**6 + 5], dtype="<i8").tobytes()
    blob[spec["offset"]: spec["offset"] + len(past)] = past
    (bad / ARRAYS_FILE).write_bytes(bytes(blob))
    with pytest.raises(SnapshotIntegrityError, match="re-sign"):
        open_snapshot(bad)


def test_verify_snapshot_summary(saved):
    _, _, _, path = saved
    summary = verify_snapshot(path)
    assert summary["n_sets"] > 0
    assert summary["n_arrays"] == len(
        json.loads((path / MANIFEST_FILE).read_text())["arrays"]
    )
    assert summary["filters"] >= 1


def _exploding_dump(*args, **kwargs):
    raise RuntimeError("disk full")


def test_crashed_save_leaves_no_openable_snapshot(tmp_path, monkeypatch):
    """Dying before the commit point leaves nothing to open."""
    index, _, _ = _build_index(seed=5)
    monkeypatch.setattr(json, "dump", _exploding_dump)
    with pytest.raises(RuntimeError):
        index.save_snapshot(tmp_path / "snap")
    monkeypatch.undo()
    assert not (tmp_path / "snap" / MANIFEST_FILE).exists()
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(SnapshotError):
        open_snapshot(tmp_path / "snap")
    # A rerun into the same place succeeds and opens cleanly.
    index.save_snapshot(tmp_path / "snap")
    assert open_snapshot(tmp_path / "snap").n_sets == len(index.sids)


def test_failed_resave_keeps_old_snapshot(tmp_path, monkeypatch):
    """A re-save that dies before its commit point leaves the snapshot
    already at the path openable and answering as before."""
    index, sets, queries = _build_index(seed=7)
    path = tmp_path / "snap"
    index.save_snapshot(path)
    want = index.query_batch(queries, 0.2, 0.9)
    for s in sets[:5]:
        index.insert(s | {10 ** 6})
    monkeypatch.setattr(json, "dump", _exploding_dump)
    with pytest.raises(RuntimeError):
        index.save_snapshot(path)
    monkeypatch.undo()
    with ParallelExecutor(open_snapshot(path, verify=True)) as ex:
        _assert_batches_identical(ex.query_batch(queries, 0.2, 0.9), want)
    assert SetSimilarityIndex.load(path).sids == set(range(len(sets)))


@pytest.mark.parametrize("name", sorted(
    set(_ARRAY_TYPES) - {"positions", "elem_tags", "elem_bytes_indptr", "elem_bytes"}
))
def test_open_rejects_fixed_array_dtype_lies(saved, tmp_path, name):
    """A fixed-name array whose manifest dtype differs from the layout's
    is refused at every open, even when its byte length still fits."""
    _, _, _, src = saved
    bad = _copy_snapshot(src, tmp_path / "bad")
    manifest = json.loads((bad / MANIFEST_FILE).read_text())
    spec = manifest["arrays"][name]
    spec["dtype"] = {"<i8": "<f8", "<u8": "<i8", "|u1": "|i1"}[spec["dtype"]]
    (bad / MANIFEST_FILE).write_text(json.dumps(manifest))
    with pytest.raises(SnapshotFormatError, match=name):
        open_snapshot(bad)


@pytest.mark.parametrize("lie", ["dtype", "width"])
def test_open_rejects_code_matrix_lies(saved, tmp_path, lie):
    """``code_matrix`` is ``(n, k)`` of the embedder's code dtype: the
    same bytes declared as wider codes or as another width are refused
    at every open."""
    _, _, _, src = saved
    bad = _copy_snapshot(src, tmp_path / "bad")
    manifest = json.loads((bad / MANIFEST_FILE).read_text())
    spec = manifest["arrays"]["code_matrix"]
    n, k = spec["shape"]
    assert spec["dtype"] == "|u1" and k % 2 == 0
    if lie == "dtype":
        spec.update(dtype="<u2", shape=[n, k // 2])
    else:
        spec["shape"] = [2 * n, k // 2]
    (bad / MANIFEST_FILE).write_text(json.dumps(manifest))
    with pytest.raises(SnapshotFormatError, match="code_matrix"):
        open_snapshot(bad)
    with pytest.raises(SnapshotFormatError, match="code_matrix"):
        SetSimilarityIndex.load(bad)


def _plant_code(bad: Path, position: int, value: int) -> None:
    """Overwrite one stored code and re-checksum the array, so only the
    content check can see it."""
    manifest = json.loads((bad / MANIFEST_FILE).read_text())
    spec = manifest["arrays"]["code_matrix"]
    blob = bytearray((bad / ARRAYS_FILE).read_bytes())
    blob[spec["offset"] + position] = value
    (bad / ARRAYS_FILE).write_bytes(bytes(blob))
    spec["crc32"] = zlib.crc32(
        bytes(blob[spec["offset"]: spec["offset"] + spec["nbytes"]])
    )
    (bad / MANIFEST_FILE).write_text(json.dumps(manifest))


def test_verify_refuses_out_of_range_code(saved, tmp_path):
    """A code of 2**b or more is no b-bit code: the O(ms) open maps it
    (outside the one set it re-signs), ``verify=True`` and ``load``
    refuse it."""
    _, _, _, src = saved
    bad = _copy_snapshot(src, tmp_path / "bad")
    manifest = json.loads((bad / MANIFEST_FILE).read_text())
    b = manifest["embedder"]["b"]
    _plant_code(bad, manifest["arrays"]["code_matrix"]["nbytes"] - 5, 1 << b)
    open_snapshot(bad)
    with pytest.raises(SnapshotIntegrityError):
        open_snapshot(bad, verify=True)
    with pytest.raises(SnapshotIntegrityError):
        SetSimilarityIndex.load(bad)


def _plant_run_sid(bad: Path, sid: int, value: int, prefix: str = "") -> None:
    """Overwrite ``sid``'s entry in table 0 of the filter ``prefix``
    (default: the first stored) with ``value`` and re-checksum the
    array, so that only the one-entry-a-set check can see it."""
    manifest = json.loads((bad / MANIFEST_FILE).read_text())
    spec = manifest["arrays"][(prefix or _first_table(manifest)) + "run_sids"]
    blob = bytearray((bad / ARRAYS_FILE).read_bytes())
    start, end = spec["offset"], spec["offset"] + spec["nbytes"]
    run_sids = np.frombuffer(bytes(blob[start:end]), dtype=spec["dtype"]).copy()
    # Table 0 holds the first n_sets entries, one per stored set.
    table = run_sids[: len(open_snapshot(bad).sid_array)]
    table[np.flatnonzero(table == sid)[0]] = value
    blob[start:end] = run_sids.tobytes()
    spec["crc32"] = zlib.crc32(bytes(blob[start:end]))
    (bad / ARRAYS_FILE).write_bytes(bytes(blob))
    (bad / MANIFEST_FILE).write_text(json.dumps(manifest))


@pytest.mark.parametrize("planted", ["duplicate", "foreign", "huge"])
def test_thaw_refuses_a_table_without_one_entry_a_set(saved, tmp_path, planted):
    """A delete finds a set's entries through the slot index, so every
    table must hold one entry of every stored set.  A table that holds
    one set twice and drops another, holds a sid that is not stored, or
    holds a sid of 2**40 (which would size the sid-indexed arrays at
    terabytes) is refused with a typed error, not loaded half-consistent
    or killed by a ``MemoryError``."""
    _, _, _, src = saved
    bad = _copy_snapshot(src, tmp_path / "bad")
    sids = open_snapshot(src).sid_array
    value = {"duplicate": sids[0], "foreign": sids[-1] + 1, "huge": 2**40}[planted]
    _plant_run_sid(bad, int(sids[1]), int(value))
    with pytest.raises(SnapshotIntegrityError, match="table 0 does not hold"):
        SetSimilarityIndex.load(bad)


def test_verify_refuses_a_table_without_one_entry_a_set(tmp_path, capsys):
    """A verifying open checks the one-entry-a-set rule a thaw relies
    on, so ``verify_snapshot`` and ``repro snapshot verify`` refuse a
    150-set snapshot whose SFI table 0 holds one sid twice and drops
    another (the array re-checksummed), while a plain open maps it."""
    from repro.cli import main
    from repro.data.weblog import make_weblog_collection

    index = SetSimilarityIndex.build(
        make_weblog_collection(n_sets=150, seed=9), budget=60, k=32, seed=9,
        sample_pairs=10_000,
    )
    index.save(tmp_path / "w.d")
    verify_snapshot(tmp_path / "w.d")
    bad = _copy_snapshot((tmp_path / "w.d").resolve(), tmp_path / "bad")
    manifest = json.loads((bad / MANIFEST_FILE).read_text())
    sfi = next(i for i, f in enumerate(manifest["filters"]) if f["kind"] == "sfi")
    sids = open_snapshot(bad).sid_array
    assert len(sids) == 150
    _plant_run_sid(bad, int(sids[1]), int(sids[0]), prefix=f"f{sfi:03d}_")
    open_snapshot(bad)
    with pytest.raises(SnapshotIntegrityError, match="table 0 does not hold"):
        verify_snapshot(bad)
    capsys.readouterr()
    assert main(["snapshot", "verify", "--path", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAILED: ")
    assert "table 0 does not hold one entry of each of the 150 stored sets" in err


# -- fuzzing the manifest and the arrays file ------------------------------

#: (manifest path, lie): every one must be refused with a SnapshotError.
_FIELD_LIES = [
    (("n_sets",), -1), (("n_sets",), "35"), (("n_sets",), 10 ** 9),
    (("next_sid",), -1), (("next_sid",), 0), (("n_bits",), 7),
    (("scan_pages",), -2), (("page_size",), 0), (("avg_set_size",), "x"),
    (("embedder",), None), (("embedder", "k"), 0), (("embedder", "k"), 2 ** 40),
    (("embedder", "b"), 99), (("embedder", "seed"), -1),
    (("codec",), "bogus"), (("sets_encoding",), "pickle"),
    (("cost",), []), (("cost", "random_cost"), "x"),
    (("distribution", "mass"), []), (("distribution", "mass"), [-1.0]),
    (("distribution", "n_sets"), None), (("plan",), []),
    (("plan", "filters"), "x"), (("plan", "cut_points"), [2.0]),
    (("plan", "filters", 0, "kind"), 5), (("plan", "filters", 0, "n_tables"), -1),
    (("plan", "filters", 0, "n_tables"), 999), (("filters",), {}),
    (("filters", 0), "sfi"), (("filters", 0, "kind"), "xfi"),
    (("filters", 0, "r"), 0), (("filters", 0, "r"), 999), (("filters", 0, "l"), 0),
    (("filters", 0, "threshold"), 1.5), (("filters", 0, "point"), "a"),
    (("filters", 0, "n_buckets"), "x"), (("filters", 0, "run_offsets"), [0]),
    (("arrays",), []), (("arrays", "sid_array"), None),
    (("arrays", "code_matrix", "shape"), [35, 23]),
    (("arrays", "set_sizes", "shape"), [1, 35]), (("arrays_bytes",), "big"),
    (("version",), None), (("format",), None),
]


def _lie(manifest: dict, where: tuple, value) -> None:
    for key in where[:-1]:
        manifest = manifest[key]
    manifest[where[-1]] = value


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_fuzzed_snapshots_fail_typed(saved, tmp_path_factory, data):
    """Manifest and arrays-file truncation, overlapping extents, dtype
    lies and out-of-range manifest fields: opening and loading each
    raises a SnapshotError subclass -- never a bare KeyError or
    ValueError, and never a silently wrong index."""
    _, _, _, src = saved
    bad = _copy_snapshot(src, tmp_path_factory.mktemp("fuzz") / "bad")
    manifest = json.loads((bad / MANIFEST_FILE).read_text())
    specs = manifest["arrays"]
    filled = sorted(name for name, spec in specs.items() if spec["nbytes"])
    case = data.draw(st.sampled_from(
        ["manifest_cut", "arrays_cut", "overlap", "dtype_lie", "field_lie",
         "code_lie"]
    ))
    if case == "code_lie":
        b = manifest["embedder"]["b"]
        _plant_code(
            bad, data.draw(st.integers(0, specs["code_matrix"]["nbytes"] - 1)),
            data.draw(st.integers(1 << b, 255)),
        )
    elif case == "manifest_cut":
        blob = (bad / MANIFEST_FILE).read_bytes()
        (bad / MANIFEST_FILE).write_bytes(
            blob[: data.draw(st.integers(0, len(blob) - 1))]
        )
    else:
        if case == "arrays_cut":
            blob = (bad / ARRAYS_FILE).read_bytes()
            keep = data.draw(st.integers(0, len(blob) - 1))
            (bad / ARRAYS_FILE).write_bytes(blob[:keep])
            manifest["arrays_bytes"] = keep  # the manifest lies along
        elif case == "overlap":
            a, b = data.draw(st.lists(
                st.sampled_from(filled), min_size=2, max_size=2, unique=True
            ))
            item = np.dtype(specs[b]["dtype"]).itemsize
            specs[b]["offset"] = specs[a]["offset"] + item * data.draw(
                st.integers(0, specs[a]["nbytes"] // item - 1)
            )
        elif case == "dtype_lie":
            name = data.draw(st.sampled_from(filled))
            dtype = specs[name]["dtype"]
            same_size = [
                d for d in ("<i8", "<u8", "<f8", ">i8", "|u1", "|i1", "|b1")
                if d != dtype and np.dtype(d).itemsize == np.dtype(dtype).itemsize
            ]
            specs[name]["dtype"] = data.draw(st.sampled_from(same_size))
        else:
            _lie(manifest, *data.draw(st.sampled_from(_FIELD_LIES)))
        (bad / MANIFEST_FILE).write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError):
        SetSimilarityIndex.load(bad)
