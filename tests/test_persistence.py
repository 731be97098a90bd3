"""Tests for index save/load: the snapshot directory is the one format."""

import json

import pytest

from repro.core.index import SetSimilarityIndex
from repro.exec.snapfile import (
    ARRAYS_FILE,
    FORMAT_VERSION,
    MANIFEST_FILE,
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
)


@pytest.fixture(scope="module")
def small_index(clustered_sets):
    return SetSimilarityIndex.build(
        clustered_sets[:40], budget=30, recall_target=0.8, k=24, b=6, seed=3
    )


@pytest.fixture
def saved(small_index, tmp_path):
    path = tmp_path / "index.d"
    small_index.save(path)
    return path


def _rewrite_manifest(path, **changes):
    manifest = json.loads((path / MANIFEST_FILE).read_text())
    manifest.update(changes)
    (path / MANIFEST_FILE).write_text(json.dumps(manifest))


class TestSaveLoad:
    def test_roundtrip_answers_identical(self, small_index, clustered_sets, saved):
        loaded = SetSimilarityIndex.load(saved)
        q = clustered_sets[0]
        original = small_index.query(q, 0.3, 1.0)
        restored = loaded.query(q, 0.3, 1.0)
        assert restored.answers == original.answers
        assert restored.candidates == original.candidates
        assert restored.io == original.io

    def test_loaded_index_supports_updates(self, small_index, saved):
        loaded = SetSimilarityIndex.load(saved)
        sid = loaded.insert({1, 2, 3, 4})
        assert sid == small_index.store.next_sid  # the sid the original gives
        assert sid in loaded.query({1, 2, 3, 4}, 0.9, 1.0).answer_sids
        loaded.delete(sid)
        assert loaded.n_sets == small_index.n_sets
        assert loaded.sids == small_index.sids

    def test_plan_preserved(self, small_index, saved):
        loaded = SetSimilarityIndex.load(saved)
        assert loaded.plan == small_index.plan
        assert loaded.plan.tables_used == small_index.plan.tables_used
        assert loaded.embedder.codec == small_index.embedder.codec
        assert (loaded.embedder.k, loaded.embedder.b, loaded.embedder.seed) == (
            small_index.embedder.k, small_index.embedder.b, small_index.embedder.seed
        )
        assert loaded.planner().estimate(0.4, 1.0) == small_index.planner().estimate(0.4, 1.0)

    def test_bad_magic(self, saved, tmp_path):
        garbage = tmp_path / "garbage.bin"
        garbage.write_bytes(b"NOT-AN-INDEX" + b"\x00" * 50)
        with pytest.raises(SnapshotError):
            SetSimilarityIndex.load(garbage)
        _rewrite_manifest(saved, format="somebody-elses-format")
        with pytest.raises(SnapshotFormatError):
            SetSimilarityIndex.load(saved)

    def test_bad_version(self, saved):
        _rewrite_manifest(saved, version=FORMAT_VERSION + 1)
        with pytest.raises(SnapshotFormatError):
            SetSimilarityIndex.load(saved)

    def test_older_version_names_both(self, saved):
        """A version-6 directory (packed vectors instead of codes) fails
        at load, naming its version and the one this build reads."""
        _rewrite_manifest(saved, version=6)
        assert FORMAT_VERSION == 7
        with pytest.raises(SnapshotFormatError, match="version 6; this build reads only version 7"):
            SetSimilarityIndex.load(saved)

    def test_load_type_check(self, saved):
        """A manifest that is JSON but not an object is refused, typed."""
        (saved / MANIFEST_FILE).write_text("[1, 2, 3]")
        with pytest.raises(SnapshotFormatError):
            SetSimilarityIndex.load(saved)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError):
            SetSimilarityIndex.load(tmp_path / "nope.d")


class TestShortFiles:
    """Truncated files raise a SnapshotError, never a surprise."""

    @pytest.mark.parametrize(
        "keep",
        [0, 1, len('{"format": "repro-ssi-snapshot"'), 0.5],
        ids=["empty", "one-byte", "magic-only", "half-version"],
    )
    def test_short_header(self, saved, keep):
        blob = (saved / MANIFEST_FILE).read_bytes()
        keep = int(len(blob) * keep) if isinstance(keep, float) else keep
        (saved / MANIFEST_FILE).write_bytes(blob[:keep])
        with pytest.raises(SnapshotFormatError):
            SetSimilarityIndex.load(saved)

    def test_truncated_payload(self, saved):
        blob = (saved / ARRAYS_FILE).read_bytes()
        (saved / ARRAYS_FILE).write_bytes(blob[: len(blob) // 3])
        with pytest.raises(SnapshotIntegrityError):
            SetSimilarityIndex.load(saved)

    def test_header_only(self, saved):
        (saved / ARRAYS_FILE).unlink()
        with pytest.raises(SnapshotIntegrityError, match="missing"):
            SetSimilarityIndex.load(saved)


class TestCrashSafety:
    """A failed save must leave a pre-existing snapshot as it was."""

    def test_fsync_failure_preserves_existing_file(
        self, small_index, clustered_sets, tmp_path, monkeypatch
    ):
        import repro.exec.snapfile as snapfile

        path = tmp_path / "index.d"
        small_index.save(path)
        good = {name: (path / name).read_bytes() for name in (MANIFEST_FILE, ARRAYS_FILE)}
        q = clustered_sets[0]
        want = small_index.query(q, 0.3, 1.0).answers
        changed = SetSimilarityIndex.load(path)
        changed.insert(q | {10 ** 6})

        def exploding_fsync(fd):
            raise OSError("simulated device failure mid-write")

        monkeypatch.setattr(snapfile, "_fsync", exploding_fsync)
        with pytest.raises(OSError, match="simulated"):
            changed.save(path)
        assert {name: (path / name).read_bytes() for name in good} == good
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [path.name, path.resolve().name]
        )  # the staged directory is gone
        assert SetSimilarityIndex.load(path).query(q, 0.3, 1.0).answers == want

    def test_unpicklable_index_fails_before_touching_target(
        self, small_index, tmp_path
    ):
        """An element type the format cannot hold (a tuple) fails the
        save before anything at the target is touched."""
        path = tmp_path / "index.d"
        small_index.save(path)
        good = (path / ARRAYS_FILE).read_bytes()
        bad = SetSimilarityIndex.build(
            [frozenset({(1, 2), 3}), frozenset({3, 4})],
            budget=6, recall_target=0.7, k=8, b=4, seed=0,
        )
        with pytest.raises(SnapshotError, match="tuple"):
            bad.save(path)
        assert (path / ARRAYS_FILE).read_bytes() == good
        assert len(list(tmp_path.iterdir())) == 2

    def test_failed_first_save_leaves_nothing(self, small_index, tmp_path, monkeypatch):
        import repro.exec.snapfile as snapfile

        path = tmp_path / "fresh.d"
        monkeypatch.setattr(
            snapfile, "_fsync", lambda fd: (_ for _ in ()).throw(OSError("boom"))
        )
        with pytest.raises(OSError):
            small_index.save(path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []
