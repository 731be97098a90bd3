"""Codec format compatibility: old layouts and bad tags fail loudly.

Snapshot manifests (version 7) carry the ``codec`` tag and shard
manifests (version 5) carry ``build.codec``.  These tests pin what a
reader promises about them:

* exactly one version of each is read: an older snapshot or shard
  manifest fails at open with a typed error naming the version found
  and the version read -- nothing converts or defaults an old layout;
* an unknown codec tag -- a b-bit packing among them, which only older
  builds wrote -- raises a typed ``SnapshotFormatError`` instead of
  silently mis-decoding signature bytes;
* a known tag or seed that does not sign the stored sets -- an edited
  manifest -- raises ``SnapshotIntegrityError`` at every open instead
  of signing queries differently from the stored sets.
"""

from __future__ import annotations

import json

import pytest

from repro.core.index import SetSimilarityIndex
from repro.data.generators import planted_clusters
from repro.cli import main
from repro.exec import (
    ParallelExecutor,
    ShardedExecutor,
    SnapshotFormatError,
    SnapshotIntegrityError,
    open_sharded,
    open_snapshot,
    save_snapshot,
)
from repro.exec.shard import SHARD_MANIFEST_FILE, ShardError, build_sharded
from repro.exec.snapfile import MANIFEST_FILE, byte_breakdown

RANGE = (0.4, 1.0)


def _sets(seed=3):
    return planted_clusters(
        n_clusters=5, per_cluster=6, base_size=18, universe=900,
        mutation_rate=0.2, seed=seed,
    )


def _build(sets, codec="full64", k=24):
    return SetSimilarityIndex.build(
        sets, budget=30, recall_target=0.8, k=k, b=4, seed=3,
        sample_pairs=2_000, codec=codec,
    )


def _save(index, path):
    snapshot = index.freeze()
    try:
        save_snapshot(snapshot, path)
    finally:
        index.thaw()


def _edit_manifest(path, mutate):
    manifest = json.loads((path / MANIFEST_FILE).read_text())
    mutate(manifest)
    (path / MANIFEST_FILE).write_text(json.dumps(manifest))


def _assert_batches_identical(got, want):
    for g, w in zip(got.results, want.results):
        assert g.answers == w.answers
        assert g.candidates == w.candidates


class TestSnapshotCompat:
    def test_manifest_records_codec(self, tmp_path):
        sets = _sets()
        _save(_build(sets, codec="superminhash"), tmp_path / "snap")
        manifest = json.loads((tmp_path / "snap" / MANIFEST_FILE).read_text())
        assert manifest["version"] == 7
        assert manifest["codec"] == "superminhash"

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
    def test_old_manifest_version_fails_loudly(self, tmp_path, version):
        """An older snapshot is refused by version, not converted: a
        version-6 directory stores packed vectors instead of codes, a
        version-5 one's verify rows hold another element hash."""
        _save(_build(_sets()), tmp_path / "snap")
        _edit_manifest(tmp_path / "snap", lambda m: m.update(version=version))
        with pytest.raises(SnapshotFormatError) as exc:
            open_snapshot(tmp_path / "snap")
        assert f"version {version};" in str(exc.value)
        assert "only version 7" in str(exc.value)

    @pytest.mark.parametrize("codec", ["full64", "superminhash"])
    def test_roundtrip_answers_identical(self, tmp_path, codec):
        sets = _sets()
        index = _build(sets, codec=codec)
        _save(index, tmp_path / "snap")
        queries = [sets[0], sets[11]]
        want = index.query_batch(queries, *RANGE)
        with ParallelExecutor(open_snapshot(tmp_path / "snap")) as ex:
            _assert_batches_identical(ex.query_batch(queries, *RANGE), want)

    def test_unknown_codec_tag_fails_loudly(self, tmp_path):
        sets = _sets()
        _save(_build(sets), tmp_path / "snap")
        _edit_manifest(
            tmp_path / "snap", lambda m: m.update(codec="zstd")
        )
        with pytest.raises(SnapshotFormatError, match="zstd"):
            open_snapshot(tmp_path / "snap")

    def test_manifest_embedder_codec_mismatch_fails(self, tmp_path):
        """A doctored manifest must not silently re-tag signature bytes:
        a b-bit packing tag (what a format-6 build could write) is
        refused typed."""
        sets = _sets()
        _save(_build(sets), tmp_path / "snap")
        _edit_manifest(
            tmp_path / "snap", lambda m: m.update(codec="bbit:2")
        )
        with pytest.raises(SnapshotFormatError, match="codec"):
            open_snapshot(tmp_path / "snap")

    @pytest.mark.parametrize("edit", ["codec", "seed"])
    @pytest.mark.parametrize("codec", ["full64", "superminhash"])
    def test_resigning_manifest_edit_is_refused(self, tmp_path, capsys, codec, edit):
        """An edited ``codec`` or ``embedder.seed`` would sign every query
        differently from the stored sets and shrink answers silently:
        every open re-signs a stored set and refuses the snapshot --
        mapped with and without ``verify``, thawed by ``load``, and by
        ``repro snapshot verify``."""
        path = tmp_path / "snap"
        _save(_build(_sets(), codec=codec), path)
        other = {"full64": "superminhash", "superminhash": "full64"}[codec]
        if edit == "codec":
            _edit_manifest(path, lambda m: m.update(codec=other))
        else:
            _edit_manifest(path, lambda m: m["embedder"].update(seed=m["embedder"]["seed"] + 1))
        for verify in (False, True):
            with pytest.raises(SnapshotIntegrityError, match="re-sign"):
                open_snapshot(path, verify=verify)
        with pytest.raises(SnapshotIntegrityError, match="re-sign"):
            SetSimilarityIndex.load(path)
        capsys.readouterr()
        assert main(["snapshot", "verify", "--path", str(path)]) == 1
        assert "re-sign" in capsys.readouterr().err

    def test_byte_breakdown_accounting(self, tmp_path):
        """Groups partition the total; a set's signature is its k codes,
        one byte each at b <= 8, whatever the generator."""
        sets = _sets()
        k = 32
        _save(_build(sets, codec="full64", k=k), tmp_path / "full")
        _save(_build(sets, codec="superminhash", k=k), tmp_path / "super")
        full = byte_breakdown(
            json.loads((tmp_path / "full" / MANIFEST_FILE).read_text())
        )
        sup = byte_breakdown(
            json.loads((tmp_path / "super" / MANIFEST_FILE).read_text())
        )
        for report in (full, sup):
            assert sum(report["groups"].values()) == report["total_bytes"]
            assert report["n_sets"] == len(sets)
            assert report["groups"]["signatures"] == len(sets) * k
            assert report["signature_bytes_per_set"] == k
        assert full["codec"] == "full64" and sup["codec"] == "superminhash"
        assert sup["groups"]["verify_csr"] == full["groups"]["verify_csr"]


class TestShardCompat:
    def _build_sharded(self, tmp_path, sets, codec="full64"):
        return build_sharded(
            sets, tmp_path / "s", n_shards=2, k=16, b=4, seed=8,
            budget=16, sample_pairs=500, codec=codec,
        )

    def test_manifest_records_codec(self, tmp_path):
        sets = _sets(seed=8)
        manifest = self._build_sharded(tmp_path, sets, codec="superminhash")
        assert manifest["version"] == 5
        assert manifest["build"]["codec"] == "superminhash"
        # Version 5 drops the universe profiles: bits and sizes only.
        assert set(manifest["routing"]) == {"m_bits", "shards", "arrays"}
        open_sharded(tmp_path / "s")  # version 5 is read

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_old_manifest_version_fails_loudly(self, tmp_path, version):
        """An older shard directory is refused by version, not defaulted:
        a version-3 directory's routing bits come from another element
        hash, and a version-4 one carries per-shard plans and replicas
        that version 5 no longer reads."""
        self._build_sharded(tmp_path, _sets(seed=8))
        manifest_path = tmp_path / "s" / SHARD_MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = version
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ShardError) as exc:
            open_sharded(tmp_path / "s")
        assert f"version {version};" in str(exc.value)
        assert "only version 5" in str(exc.value)

    def test_unknown_build_codec_fails_loudly(self, tmp_path):
        sets = _sets(seed=8)
        self._build_sharded(tmp_path, sets)
        manifest_path = tmp_path / "s" / SHARD_MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["build"]["codec"] = "zstd"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotFormatError, match="zstd"):
            open_sharded(tmp_path / "s")

    def test_bbit_build_codec_fails_loudly(self, tmp_path):
        """A fleet tagged with a b-bit packing (which only older builds
        wrote) fails typed at open."""
        self._build_sharded(tmp_path, _sets(seed=8))
        manifest_path = tmp_path / "s" / SHARD_MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["build"]["codec"] = "superminhash+bbit:2"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotFormatError, match="bbit:2"):
            open_sharded(tmp_path / "s")

    def test_codec_round_trip_through_shards(self, tmp_path):
        """SuperMinHash shards answer with exact (verified) similarities."""
        sets = _sets(seed=8)
        self._build_sharded(tmp_path, sets, codec="superminhash")
        sharded = open_sharded(tmp_path / "s")
        assert sharded.manifest["build"]["codec"] == "superminhash"
        with ShardedExecutor(sharded) as ex:
            batch = ex.query_batch([sets[0]], *RANGE)
        answers = batch.results[0].answers
        assert answers
        for _, sim in answers:
            assert RANGE[0] <= sim <= RANGE[1]
