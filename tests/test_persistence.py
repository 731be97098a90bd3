"""Tests for index save/load."""

import pytest

from repro.core.index import SetSimilarityIndex
from repro.core.persistence import (
    FORMAT_VERSION,
    MAGIC,
    PersistenceError,
    load_index,
    save_index,
)


@pytest.fixture(scope="module")
def small_index(clustered_sets):
    return SetSimilarityIndex.build(
        clustered_sets[:40], budget=30, recall_target=0.8, k=24, b=6, seed=3
    )


class TestSaveLoad:
    def test_roundtrip_answers_identical(self, small_index, clustered_sets, tmp_path):
        path = tmp_path / "index.ssi"
        small_index.save(path)
        loaded = SetSimilarityIndex.load(path)
        q = clustered_sets[0]
        original = small_index.query(q, 0.3, 1.0)
        restored = loaded.query(q, 0.3, 1.0)
        assert restored.answers == original.answers
        assert restored.candidates == original.candidates

    def test_loaded_index_supports_updates(self, small_index, clustered_sets, tmp_path):
        path = tmp_path / "index.ssi"
        small_index.save(path)
        loaded = SetSimilarityIndex.load(path)
        sid = loaded.insert({1, 2, 3, 4})
        assert sid in loaded.query({1, 2, 3, 4}, 0.9, 1.0).answer_sids
        loaded.delete(sid)
        assert loaded.n_sets == small_index.n_sets

    def test_plan_preserved(self, small_index, tmp_path):
        path = tmp_path / "index.ssi"
        small_index.save(path)
        loaded = SetSimilarityIndex.load(path)
        assert loaded.plan.cut_points == small_index.plan.cut_points
        assert loaded.plan.tables_used == small_index.plan.tables_used

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"NOT-AN-INDEX" + b"\x00" * 50)
        with pytest.raises(PersistenceError):
            load_index(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "future.ssi"
        path.write_bytes(MAGIC + (FORMAT_VERSION + 1).to_bytes(2, "little") + b"x")
        with pytest.raises(PersistenceError):
            load_index(path)

    def test_older_version_names_both(self, small_index, tmp_path):
        """A version-4 file (per-sid hash-array dicts, no hash arena)
        fails at load, naming its version and the one this build reads."""
        path = tmp_path / "old.ssi"
        save_index(small_index, path)
        blob = path.read_bytes()
        path.write_bytes(MAGIC + (4).to_bytes(2, "little") + blob[len(MAGIC) + 2 :])
        assert FORMAT_VERSION == 5
        with pytest.raises(PersistenceError, match="format version 4; this build reads 5"):
            load_index(path)

    def test_load_type_check(self, tmp_path):
        path = tmp_path / "notindex.ssi"
        save_index({"just": "a dict"}, path)
        with pytest.raises(TypeError):
            SetSimilarityIndex.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(tmp_path / "nope.ssi")


class TestShortFiles:
    """Truncated headers raise PersistenceError, never a surprise."""

    @pytest.mark.parametrize(
        "blob",
        [
            b"",
            b"R",
            MAGIC,  # magic but no version bytes
            MAGIC + b"\x02",  # only half the version field
        ],
        ids=["empty", "one-byte", "magic-only", "half-version"],
    )
    def test_short_header(self, tmp_path, blob):
        path = tmp_path / "short.ssi"
        path.write_bytes(blob)
        with pytest.raises(PersistenceError, match="shorter|bad magic"):
            load_index(path)

    def test_truncated_payload(self, small_index, tmp_path):
        path = tmp_path / "index.ssi"
        save_index(small_index, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(MAGIC) + 2 + 10])
        with pytest.raises(PersistenceError):
            load_index(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "headeronly.ssi"
        path.write_bytes(MAGIC + FORMAT_VERSION.to_bytes(2, "little"))
        with pytest.raises(PersistenceError, match="truncated"):
            load_index(path)


class TestCrashSafety:
    """A failed save must leave a pre-existing file byte-identical."""

    def test_fsync_failure_preserves_existing_file(
        self, small_index, tmp_path, monkeypatch
    ):
        import repro.core.persistence as persistence

        path = tmp_path / "index.ssi"
        save_index(small_index, path)
        good = path.read_bytes()

        def exploding_fsync(fd):
            raise OSError("simulated device failure mid-write")

        monkeypatch.setattr(persistence, "_fsync", exploding_fsync)
        with pytest.raises(OSError, match="simulated"):
            save_index(small_index, path)
        assert path.read_bytes() == good  # untouched
        assert list(tmp_path.glob("*.tmp")) == []  # staging file removed
        loaded = SetSimilarityIndex.load(path)
        assert loaded.n_sets == small_index.n_sets

    def test_unpicklable_index_fails_before_touching_target(self, tmp_path):
        path = tmp_path / "index.ssi"
        path.write_bytes(b"precious")
        with pytest.raises(Exception):
            save_index({"bad": lambda: None}, path)  # lambdas don't pickle
        assert path.read_bytes() == b"precious"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_first_save_leaves_nothing(self, small_index, tmp_path, monkeypatch):
        import repro.core.persistence as persistence

        path = tmp_path / "fresh.ssi"
        monkeypatch.setattr(
            persistence, "_fsync", lambda fd: (_ for _ in ()).throw(OSError("boom"))
        )
        with pytest.raises(OSError):
            save_index(small_index, path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []
