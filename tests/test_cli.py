"""Tests for the command-line interface."""

import json
import shutil

import pytest

from repro.cli import build_parser, main, read_sets


@pytest.fixture
def sets_file(tmp_path):
    path = tmp_path / "sets.txt"
    path.write_text(
        "apple banana cherry\n"
        "banana cherry date\n"
        "\n"  # blank lines are skipped
        "x y z\n"
        "apple banana cherry date\n"
    )
    return path


class TestReadSets:
    def test_parses_lines(self, sets_file):
        sets = read_sets(sets_file)
        assert len(sets) == 4
        assert sets[0] == frozenset({"apple", "banana", "cherry"})

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError):
            read_sets(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_build_defaults(self):
        args = build_parser().parse_args(
            ["build", "--input", "a.txt", "--output", "b.d"]
        )
        assert args.budget == 500
        assert args.recall == 0.9


class TestEndToEnd:
    def test_build_query_stats(self, sets_file, tmp_path, capsys):
        index_path = tmp_path / "demo.d"
        rc = main(
            [
                "build",
                "--input", str(sets_file),
                "--output", str(index_path),
                "--budget", "20",
                "--k", "16",
            ]
        )
        assert rc == 0
        assert index_path.exists()
        out = capsys.readouterr().out
        assert "indexed 4 sets" in out

        rc = main(
            [
                "query",
                "--index", str(index_path),
                "--set", "apple banana cherry",
                "--low", "0.9",
                "--high", "1.0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "0\t1.0000" in out

        rc = main(["stats", "--index", str(index_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sets indexed:      4" in out

    def test_demo_command(self, capsys):
        rc = main(["demo", "--n-sets", "60"])
        assert rc == 0
        assert "demo index" in capsys.readouterr().out


@pytest.fixture
def built_index_path(sets_file, tmp_path):
    index_path = tmp_path / "demo.d"
    rc = main(
        [
            "build",
            "--input", str(sets_file),
            "--output", str(index_path),
            "--budget", "20",
            "--k", "16",
        ]
    )
    assert rc == 0
    return index_path


class TestObservabilityCommands:
    def test_query_explain_appends_plan_tree(self, built_index_path, capsys):
        capsys.readouterr()
        rc = main(
            [
                "query",
                "--index", str(built_index_path),
                "--set", "apple banana cherry",
                "--low", "0.5",
                "--explain",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "0\t1.0000" in out  # answers still printed
        assert out.splitlines()[-1:] != []
        assert "query" in out and "candidates" in out
        assert "probe SFI" in out or "probe DFI" in out
        assert "s*=" in out and "buckets=" in out and "survived=" in out

    def test_explain_subcommand_tree(self, built_index_path, capsys):
        capsys.readouterr()
        rc = main(
            [
                "explain",
                "--index", str(built_index_path),
                "--set", "apple banana cherry",
                "--low", "0.5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("query")
        assert "\t" not in out.splitlines()[0]  # no answer lines
        assert "verify" in out

    def test_explain_subcommand_json(self, built_index_path, capsys):
        import json

        capsys.readouterr()
        rc = main(
            [
                "explain",
                "--index", str(built_index_path),
                "--set", "apple banana cherry",
                "--low", "0.5",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"query", "filters", "io", "duration_ms", "trace"}
        for f in payload["filters"]:
            assert f["kind"] in ("SFI", "DFI")
            assert f["survived"] <= f["candidates"]

    def test_stats_reports_occupancy(self, built_index_path, capsys):
        capsys.readouterr()
        rc = main(["stats", "--index", str(built_index_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-filter occupancy:" in out
        assert "load factor" in out
        assert "longest chain" in out

    def test_stats_occupancy_pinned_on_weblog(self, tmp_path, capsys):
        """The occupancy lines, read from the tables' count and chain
        arrays, equal those the page-by-page statistics printed for a
        churned 400-set weblog index at the benchmark's build
        parameters."""
        from repro.core.index import SetSimilarityIndex
        from repro.data.weblog import make_set1

        sets = make_set1(400, seed=7)
        index = SetSimilarityIndex.build(
            sets, seed=11, k=100, b=6, budget=200, recall_target=0.9,
            sample_pairs=20000,
        )
        for sid in sorted(index._codes)[:60]:
            index.delete(sid)
        for elements in sets[:30]:
            index.insert(elements)
        index.save(tmp_path / "w.d")
        capsys.readouterr()
        assert main(["stats", "--index", str(tmp_path / "w.d")]) == 0
        out = capsys.readouterr().out
        occupancy = out[out.index("per-filter occupancy:"):].split("histograms:")[0]
        tail = (
            "370 entries/table over {} pages, load factor 0.361, "
            "occupancy avg/max 92.50/{}, longest chain 1 page(s)"
        )
        assert occupancy.splitlines() == [
            "per-filter occupancy:",
            "  SFI @ 0.051 (s*=0.533, r=5, l=19): " + tail.format(76, 235),
            "  SFI @ 0.076 (s*=0.545, r=7, l=36): " + tail.format(144, 149),
            "  SFI @ 0.359 (s*=0.685, r=14, l=115): " + tail.format(460, 127),
            "  DFI @ 0.031 (s*=0.523, r=4, l=9): " + tail.format(36, 153),
            "  DFI @ 0.051 (s*=0.533, r=5, l=21): " + tail.format(84, 184),
        ]

    def test_verbose_flag_logs_to_stderr(self, sets_file, tmp_path, capsys):
        import logging

        rc = main(
            [
                "-v",
                "build",
                "--input", str(sets_file),
                "--output", str(tmp_path / "v.d"),
                "--budget", "20",
                "--k", "16",
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "building index" in err
        # Restore the default level for other tests.
        from repro.obs import configure_logging

        assert configure_logging(0).level == logging.WARNING


class TestSnapshotCommands:
    def test_save_info_verify(self, built_index_path, tmp_path, capsys):
        """``build --output`` writes the snapshot directory that
        ``snapshot info`` / ``verify`` inspect."""
        snap_dir = built_index_path
        assert (snap_dir / "manifest.json").exists()
        capsys.readouterr()

        rc = main(["snapshot", "info", "--path", str(snap_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro-ssi-snapshot" in out
        assert "arrays:" in out

        rc = main(["snapshot", "verify", "--path", str(snap_dir)])
        assert rc == 0
        assert "all checksums pass" in capsys.readouterr().out

    def test_verify_reports_corruption(self, built_index_path, tmp_path, capsys):
        snap_dir = built_index_path
        capsys.readouterr()
        blob = bytearray((snap_dir / "arrays.bin").read_bytes())
        blob[-1] ^= 0xFF
        (snap_dir / "arrays.bin").write_bytes(bytes(blob))
        rc = main(["snapshot", "verify", "--path", str(snap_dir)])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().err

    def test_query_from_snapshot_matches_index(
        self, built_index_path, tmp_path, capsys
    ):
        snap_dir = built_index_path
        capsys.readouterr()
        argv = ["--set", "apple banana cherry", "--set", "x y z",
                "--low", "0.2", "--high", "1.0"]
        assert main(["query", "--index", str(built_index_path)] + argv) == 0
        from_index = capsys.readouterr().out
        assert main(["query", "--snapshot", str(snap_dir)] + argv) == 0
        from_snapshot = capsys.readouterr().out
        assert from_snapshot == from_index

    def test_query_rejects_index_and_snapshot_together(
        self, built_index_path, capsys
    ):
        rc = main(
            ["query", "--index", str(built_index_path),
             "--snapshot", "somewhere", "--set", "a b"]
        )
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err

    def test_query_rejects_neither_source(self, capsys):
        rc = main(["query", "--set", "a b"])
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["query", "--index"], ["query", "--snapshot"], ["explain", "--index"],
        ["stats", "--index"],
    ])
    def test_edited_snapshot_is_one_error_line(
        self, built_index_path, tmp_path, capsys, command
    ):
        """A snapshot whose manifest seed was edited is refused with one
        ``error:`` line and exit status 1, not a traceback."""
        edited = tmp_path / "edited.d"
        shutil.copytree(built_index_path, edited)
        manifest_path = edited / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["embedder"]["seed"] += 1
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        argv = command + [str(edited)]
        if command[0] != "stats":
            argv += ["--set", "apple banana cherry", "--low", "0.2", "--high", "1.0"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert "re-sign" in lines[0]
        assert captured.out == ""

    def test_process_backend_requires_snapshot(self, built_index_path, capsys):
        rc = main(
            ["query", "--index", str(built_index_path),
             "--set", "a b", "--backend", "process"]
        )
        assert rc == 2
        assert "requires --snapshot" in capsys.readouterr().err


@pytest.fixture
def shard_sets_file(tmp_path):
    """A set file big enough that hash partitioning fills every shard."""
    import random

    rng = random.Random(17)
    path = tmp_path / "shard_sets.txt"
    path.write_text("\n".join(
        " ".join(str(x) for x in rng.sample(range(300), rng.randint(4, 14)))
        for _ in range(80)
    ) + "\n")
    return path


class TestShardCommands:
    def test_build_info_verify_stats(self, shard_sets_file, tmp_path, capsys):
        shard_dir = tmp_path / "shards.d"
        rc = main([
            "shard", "build", "--input", str(shard_sets_file),
            "--out", str(shard_dir), "--shards", "3", "--budget", "24",
            "--k", "16", "--bits", "4", "--sample-pairs", "500",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 shards" in out
        assert (shard_dir / "shard_manifest.json").exists()

        rc = main(["shard", "info", "--path", str(shard_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro-ssi-shards" in out
        assert "shard-000" in out

        rc = main(["shard", "verify", "--path", str(shard_dir)])
        assert rc == 0
        assert "all checksums pass" in capsys.readouterr().out

        rc = main(["stats", "--shards", str(shard_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-shard occupancy" in out
        assert "budget allocation" in out

    def test_verify_reports_corruption(self, shard_sets_file, tmp_path, capsys):
        shard_dir = tmp_path / "shards.d"
        assert main([
            "shard", "build", "--input", str(shard_sets_file),
            "--out", str(shard_dir), "--shards", "2", "--budget", "16",
            "--k", "16", "--bits", "4", "--sample-pairs", "500",
        ]) == 0
        capsys.readouterr()
        import json

        victim = next(shard_dir.glob("shard-*/arrays.bin"))
        # Flip a byte inside a named array (padding isn't checksummed).
        manifest = json.loads((victim.parent / "manifest.json").read_text())
        spec = max(manifest["arrays"].values(), key=lambda s: s["nbytes"])
        blob = bytearray(victim.read_bytes())
        blob[spec["offset"] + spec["nbytes"] // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        rc = main(["shard", "verify", "--path", str(shard_dir)])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().err

    def test_verify_reports_tampered_routing(self, shard_sets_file, tmp_path,
                                             capsys):
        import json

        shard_dir = tmp_path / "shards.d"
        assert main([
            "shard", "build", "--input", str(shard_sets_file),
            "--out", str(shard_dir), "--shards", "2", "--budget", "16",
            "--k", "16", "--bits", "4", "--sample-pairs", "500",
        ]) == 0
        manifest_path = shard_dir / "shard_manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for entry in manifest["routing"]["shards"]:
            entry["size_max"] = 1
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["shard", "verify", "--path", str(shard_dir)]) == 1
        assert "routing" in capsys.readouterr().err

    def test_stats_rejects_index_and_shards_together(self, capsys):
        rc = main(["stats", "--index", "a", "--shards", "b"])
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_stats_requires_a_source(self, capsys):
        rc = main(["stats"])
        assert rc == 2
        assert "required" in capsys.readouterr().err


class TestLoadgenFlags:
    def test_requests_is_an_alias_for_total(self):
        args = build_parser().parse_args(
            ["loadgen", "--requests", "25", "--synthetic", "4"]
        )
        assert args.total == 25
        args = build_parser().parse_args(
            ["loadgen", "--total", "30", "--synthetic", "4"]
        )
        assert args.total == 30

    def test_serve_accepts_shards_alias(self):
        args = build_parser().parse_args(["serve", "--shards", "some.d"])
        assert args.snapshot == "some.d"
