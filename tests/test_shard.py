"""Sharded scatter-gather: partitioning invariants and bit-equivalence.

The load-bearing guarantee of :mod:`repro.exec.shard` is that a shard
fleet -- hash-partitioned, every shard built from the one global plan,
safe-routed -- answers exactly like the unsharded index:
candidate membership is ``hash_key(sampled query bits) ==
hash_key(sampled set bits)``, which depends only on the plan's
samplers (seeded per filter offset) and never on bucket counts or
which shard holds a set -- so the union of per-shard candidates is the
global candidate set, false positives included, and merged verified
answers match bit for bit.  These tests pin that across 12 seeds x
K in {1, 2, 4} on the thread backend, plus a spawn-cost-bounded
process-backend pass, alongside hypothesis properties for the
partitioner (total, disjoint, rebuild-stable, permutation-stable), the
build keywords that accept only the one fleet shape, and manifest
integrity checks.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distribution import SimilarityDistribution
from repro.core.index import SetSimilarityIndex
from repro.core.optimizer import plan_index
from repro.data.generators import planted_clusters
from repro.exec import ParallelExecutor
from repro.exec.route import ShardRouter
from repro.exec.shard import (
    SHARD_MANIFEST_FILE,
    ShardError,
    ShardedExecutor,
    build_sharded,
    is_sharded,
    open_sharded,
    partition_sets,
    verify_sharded,
)
from repro.storage.iomodel import IOStats

RANGE = (0.3, 0.9)


def _workload(seed: int, n_sets: int = 90, n_queries: int = 6):
    rng = np.random.default_rng(seed)
    sets = planted_clusters(
        n_clusters=5, per_cluster=n_sets // 5, base_size=16, universe=900,
        mutation_rate=0.25, seed=seed,
    )
    queries = [sets[int(rng.integers(len(sets)))] for _ in range(n_queries - 2)]
    queries.append(frozenset(int(x) for x in rng.integers(0, 900, size=10)))
    queries.append(frozenset())
    return sets, queries


def _build_plan(sets, seed: int):
    dist = SimilarityDistribution.from_sets(sets, sample_pairs=1_500, seed=seed)
    plan = plan_index(dist, 36, recall_target=0.85, b=4)
    return plan, dist


def _baseline(sets, plan, dist, queries, seed: int):
    index = SetSimilarityIndex.from_plan(sets, plan, dist, k=24, b=4, seed=seed)
    return ParallelExecutor(index.freeze(), workers=1).query_batch(
        queries, *RANGE
    )


def _assert_bit_identical(got, want):
    for g, w in zip(got.results, want.results):
        assert g.answers == w.answers        # sids, sims AND ordering
        assert g.candidates == w.candidates  # incl. fingerprint collisions
    assert got.n_queries == want.n_queries


# -- partition invariants --------------------------------------------------

sets_strategy = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=400), max_size=20),
    max_size=60,
)


class TestPartitioning:
    @given(sets=sets_strategy, n_shards=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_set_in_exactly_one_shard(self, sets, n_shards, seed):
        assignment = partition_sets(sets, n_shards, seed=seed)
        assert assignment.shape == (len(sets),)
        assert ((assignment >= 0) & (assignment < n_shards)).all()

    @given(sets=sets_strategy, n_shards=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stable_across_rebuilds(self, sets, n_shards, seed):
        a1 = partition_sets(sets, n_shards, seed=seed)
        a2 = partition_sets(list(sets), n_shards, seed=seed)
        assert (a1 == a2).all()

    @given(sets=st.lists(
        st.frozensets(st.integers(0, 400), min_size=1, max_size=20),
        min_size=1, max_size=40, unique=True,
    ), n_shards=st.integers(1, 6), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_hash_partition_permutation_stable(self, sets, n_shards, seed):
        """A set's shard is a function of its content, not its position."""
        a1 = partition_sets(sets, n_shards, seed=seed)
        perm = list(reversed(range(len(sets))))
        a2 = partition_sets([sets[i] for i in perm], n_shards, seed=seed)
        for new_pos, old_pos in enumerate(perm):
            assert a2[new_pos] == a1[old_pos]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="n_shards"):
            partition_sets([frozenset({1})], 0)

    @pytest.mark.parametrize(
        "value", ("cluster", "workload", "full", "sketch", "nope", "")
    )
    def test_kept_keywords_accept_only_the_one_fleet_shape(self, tmp_path,
                                                          value):
        """``partition``, ``tune`` and ``route`` stay as keywords that
        name the one fleet shape; any other value raises."""
        sets, _ = _workload(seed=1, n_sets=30)
        kwargs = dict(k=16, b=4, seed=1, budget=12, sample_pairs=200)
        with pytest.raises(ValueError, match="partition"):
            build_sharded(sets, tmp_path / "p", 2, partition=value, **kwargs)
        with pytest.raises(ValueError, match="tune"):
            build_sharded(sets, tmp_path / "t", 2, tune=value, **kwargs)
        build_sharded(sets, tmp_path / "s", 2, partition="hash",
                      tune="mirror", **kwargs)
        sharded = open_sharded(tmp_path / "s")
        with pytest.raises(ValueError, match="route"):
            ShardedExecutor(sharded, route=value)
        ShardedExecutor(sharded, route="safe").close()


# -- mirror-mode bit-equivalence -------------------------------------------


class TestScatterGatherEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n_shards", (1, 2, 4))
    def test_thread_backend_bit_identical(self, tmp_path, seed, n_shards):
        sets, queries = _workload(seed)
        plan, dist = _build_plan(sets, seed)
        want = _baseline(sets, plan, dist, queries, seed)
        build_sharded(
            sets, tmp_path / "s", n_shards=n_shards, k=24, b=4, seed=seed,
            plan=plan, dist=dist,
        )
        with ShardedExecutor(
            open_sharded(tmp_path / "s"), backend="thread"
        ) as executor:
            got = executor.query_batch(queries, *RANGE)
        _assert_bit_identical(got, want)

    # Spawn start-up dominates process-backend runs, so this pass keeps
    # a couple of seeds; the thread sweep above covers the merge logic
    # both backends share (same scatter/merge code path).
    @pytest.mark.parametrize("seed", (0, 7))
    @pytest.mark.parametrize("n_shards", (1, 2, 4))
    def test_process_backend_bit_identical(self, tmp_path, seed, n_shards):
        sets, queries = _workload(seed)
        plan, dist = _build_plan(sets, seed)
        want = _baseline(sets, plan, dist, queries, seed)
        build_sharded(
            sets, tmp_path / "s", n_shards=n_shards, k=24, b=4, seed=seed,
            plan=plan, dist=dist,
        )
        with ShardedExecutor(
            open_sharded(tmp_path / "s"), workers=1, backend="process"
        ) as executor:
            got = executor.query_batch(queries, *RANGE)
        _assert_bit_identical(got, want)

    def test_scan_strategy_bit_identical(self, tmp_path):
        sets, queries = _workload(seed=5)
        plan, dist = _build_plan(sets, 5)
        want_index = SetSimilarityIndex.from_plan(
            sets, plan, dist, k=24, b=4, seed=5
        )
        want = ParallelExecutor(want_index.freeze(), workers=1).query_batch(
            queries, *RANGE, strategy="scan"
        )
        build_sharded(sets, tmp_path / "s", n_shards=3, k=24, b=4, seed=5,
                      plan=plan, dist=dist)
        with ShardedExecutor(open_sharded(tmp_path / "s")) as executor:
            got = executor.query_batch(queries, *RANGE, strategy="scan")
        _assert_bit_identical(got, want)

    def test_single_query_and_explain(self, tmp_path):
        sets, queries = _workload(seed=2)
        plan, dist = _build_plan(sets, 2)
        want = _baseline(sets, plan, dist, queries, 2)
        build_sharded(sets, tmp_path / "s", n_shards=2, k=24, b=4, seed=2,
                      plan=plan, dist=dist)
        with ShardedExecutor(open_sharded(tmp_path / "s")) as executor:
            single = executor.query(queries[0], *RANGE)
            assert single.answers == want.results[0].answers
            explained = executor.query_batch(queries, *RANGE, explain=True)
        assert explained.trace is not None
        shard_spans = [
            c for c in explained.trace.children if c.name == "query_batch"
        ]
        assert len(shard_spans) == 2  # one child trace per live shard

    def test_merged_io_and_timings_are_summed(self, tmp_path):
        sets, queries = _workload(seed=9)
        plan, dist = _build_plan(sets, 9)
        build_sharded(sets, tmp_path / "s", n_shards=3, k=24, b=4, seed=9,
                      plan=plan, dist=dist)
        with ShardedExecutor(open_sharded(tmp_path / "s")) as executor:
            got = executor.query_batch(queries, *RANGE)
        assert got.io.random_reads > 0
        assert got.exec_stats["sharded"] is True
        assert set(got.exec_stats["shard_wall_seconds"]) == {0, 1, 2}
        assert got.exec_stats["merge_seconds"] >= 0.0
        assert got.timings  # per-phase ms survived the merge

    def test_batch_and_single_latency_histograms(self, tmp_path):
        """A sharded batch is a batch: its whole-batch wall goes to
        ``query_batch.latency_ms`` only; ``executor.query`` moves what
        ``index.query`` moves."""
        from repro.obs import metrics

        sets, queries = _workload(seed=4)
        plan, dist = _build_plan(sets, 4)
        build_sharded(sets, tmp_path / "s", n_shards=2, k=24, b=4, seed=4,
                      plan=plan, dist=dist)
        single = metrics.hdr("query.latency_ms")
        batch = metrics.hdr("query_batch.latency_ms")
        with ShardedExecutor(open_sharded(tmp_path / "s")) as executor:
            before = single.count, batch.count
            executor.query_batch(queries, *RANGE)
            assert (single.count, batch.count) == (before[0], before[1] + 1)
            batches = metrics.counter("query.batches").value
            executor.query(queries[0], *RANGE)
            assert (single.count, batch.count) == (before[0] + 1, before[1] + 1)
            assert metrics.counter("query.batches").value == batches

    def test_fleet_batch_event_validates_and_shows_in_top(self, tmp_path):
        """A fleet batch is recorded as a ``query_batch`` event, so the
        JSONL export validates and ``repro top`` counts its queries."""
        from repro.obs import events, top
        from repro.obs.export import validate_events_jsonl

        sets, queries = _workload(seed=4)
        plan, dist = _build_plan(sets, 4)
        build_sharded(sets, tmp_path / "s", n_shards=2, k=24, b=4, seed=4,
                      plan=plan, dist=dist)
        events.log.clear()
        events.log.configure(sample=1.0, enabled=True)
        try:
            with ShardedExecutor(open_sharded(tmp_path / "s")) as executor:
                executor.query_batch(queries, *RANGE)
            path = tmp_path / "events.jsonl"
            assert events.log.export_jsonl(path) == 1
        finally:
            events.log.clear()
        assert validate_events_jsonl(path) == 1
        summary = top.summarize(events.read_jsonl(path))
        assert summary["n_events"] == 1
        assert summary["n_queries"] == len(queries)

    def test_empty_shards_tiny_collection(self, tmp_path):
        sets = [frozenset({1, 2, 3}), frozenset({7, 8, 9, 10})]
        build_sharded(sets, tmp_path / "s", n_shards=4, k=16, b=4, seed=0,
                      budget=12, sample_pairs=50)
        sharded = open_sharded(tmp_path / "s", verify=True)
        assert len(sharded.live_shards) < 4
        with ShardedExecutor(sharded) as executor:
            got = executor.query_batch([sets[0], frozenset()], 0.5, 1.0)
        assert (0, 1.0) in got.results[0].answers
        assert got.results[1].answers == []

    def test_rejects_bad_range_and_strategy(self, tmp_path):
        sets, _ = _workload(seed=1, n_sets=30)
        build_sharded(sets, tmp_path / "s", n_shards=2, k=16, b=4, seed=1,
                      budget=12, sample_pairs=200)
        with ShardedExecutor(open_sharded(tmp_path / "s")) as executor:
            with pytest.raises(ValueError, match="range"):
                executor.query_batch([frozenset({1})], 0.9, 0.1)
            with pytest.raises(ValueError, match="strategy"):
                executor.query_batch([frozenset({1})], 0.1, 0.9,
                                     strategy="nope")


# -- one scheduler ----------------------------------------------------------


class TestOneScheduler:
    """A sharded batch is the one pipeline run shard by shard on the
    caller's thread, every shard on the fleet's one scheduler."""

    @pytest.mark.parametrize("n_shards", (1, 2, 4))
    def test_each_shard_span_once_with_exact_io(self, tmp_path, n_shards):
        """Regression: with one dispatched unit the shard's span used to
        hang under the EXPLAIN root twice.  Every live shard's
        ``query_batch`` span occurs exactly once, directly under the
        root, tagged ``shard=``; its I/O is that shard's own batch I/O
        (run alone with the rows routing kept for it) and the shard
        spans sum to the merged ``batch.io``."""
        sets, queries = _workload(seed=3)
        build_sharded(sets, tmp_path / "s", n_shards=n_shards, k=24, b=4,
                      seed=3, budget=36, sample_pairs=1_500)
        sharded = open_sharded(tmp_path / "s")
        with ShardedExecutor(sharded) as executor:
            batch = executor.query_batch(queries, *RANGE, explain=True)
        root = batch.trace
        spans = [s for s in root.walk() if s.name == "query_batch"]
        assert [s.attrs["shard"] for s in spans] == sharded.live_shards
        children = [id(c) for c in root.children]
        assert len(children) == len(set(children))
        assert all(id(s) in children for s in spans)
        # What each shard was dispatched, replayed on the shard alone.
        decision = ShardRouter(sharded.routing).route(
            [frozenset(q) for q in queries], RANGE[0], sharded.live_shards,
        )
        assert decision.pruned_pairs > 0  # the empty and foreign queries
        total = IOStats()
        for span in spans:
            i = span.attrs["shard"]
            alone = ParallelExecutor(sharded.shards[i]).query_batch(
                queries, *RANGE, verify_rows=decision.kept[i]
            )
            assert span.io_delta == alone.io
            total = total + span.io_delta
        assert total == batch.io
        assert root.io_delta == batch.io

    def test_fleet_prepares_each_batch_once(self, tmp_path, monkeypatch):
        """A K=3 batch hashes each distinct query element once (one
        digest per distinct value, in one hash pass) and signs once:
        the router and every shard's embed, verify and scan read the
        one prepared batch.  Answers and I/O are the unprepared path's
        with the same rows verified."""
        import hashlib

        from repro.core import minhash

        sets, queries = _workload(seed=4)
        queries = queries + [sets[7] | {5_000_000, 5_000_001}]
        build_sharded(sets, tmp_path / "s", n_shards=3, k=24, b=4, seed=4,
                      budget=36, sample_pairs=1_500)
        sharded = open_sharded(tmp_path / "s")
        assert len(sharded.live_shards) == 3
        decision = ShardRouter(sharded.routing).route(
            [frozenset(q) for q in queries], RANGE[0], sharded.live_shards,
        )
        unprepared = [
            ParallelExecutor(sharded.shards[i]).query_batch(
                queries, *RANGE, verify_rows=decision.kept[i]
            )
            for i in sharded.live_shards
        ]

        digests = []

        class Counted:
            def __init__(self, state):
                self.state = state

            def copy(self):
                return Counted(self.state.copy())

            def update(self, data):
                self.state.update(data)

            def digest(self):
                digests.append(1)
                return self.state.digest()

        class CountingHashlib:
            @staticmethod
            def blake2b(*args, **kwargs):
                return Counted(hashlib.blake2b(*args, **kwargs))

        passes, signings = [], []
        real_pass = minhash.stable_hashes
        real_sign = minhash.MinHasher.signature_csr
        monkeypatch.setattr(minhash, "hashlib", CountingHashlib)
        monkeypatch.setattr(
            minhash, "stable_hashes",
            lambda elements: passes.append(len(elements)) or real_pass(elements),
        )
        monkeypatch.setattr(
            minhash.MinHasher, "signature_csr",
            lambda self, *a, **kw: signings.append(1) or real_sign(self, *a, **kw),
        )
        with ShardedExecutor(sharded) as executor:
            batch = executor.query_batch(queries, *RANGE)
            scanned = executor.query_batch(queries, *RANGE, strategy="scan")
        distinct = set().union(*queries)
        assert passes == [sum(map(len, queries))] * 2
        assert len(digests) == 2 * len(distinct)
        assert len(signings) == 1  # the scan batch is hashed, not signed
        assert batch.io == sum((b.io for b in unprepared), IOStats())
        for q, result in enumerate(batch.results):
            want = sorted(
                (
                    (int(sharded.global_sids[i][sid]), sim)
                    for i, alone in zip(sharded.live_shards, unprepared)
                    for sid, sim in alone.results[q].answers
                ),
                key=lambda pair: (-pair[1], pair[0]),
            )
            assert result.answers == want
            assert set(want) <= set(scanned.results[q].answers)

    def test_process_fleet_is_one_pool(self, tmp_path):
        """``workers`` sizes the fleet's one pool: four shards on two
        worker processes -- not two per shard -- with the answers of the
        pool-less thread path."""
        sets, queries = _workload(seed=6)
        build_sharded(sets, tmp_path / "s", n_shards=4, k=24, b=4, seed=6,
                      budget=36, sample_pairs=1_500)
        sharded = open_sharded(tmp_path / "s")
        with ShardedExecutor(sharded, workers=1, backend="thread") as executor:
            want = executor.query_batch(queries, *RANGE)
        with ShardedExecutor(sharded, workers=2, backend="process") as executor:
            # Two batches; then, because a spawn worker can take longer
            # to come up than these batches run, more until the second
            # worker has served.
            batches, pids = [], set()
            deadline = time.monotonic() + 60
            while len(batches) < 2 or (
                len(pids) < 2 and time.monotonic() < deadline
            ):
                batches.append(executor.query_batch(queries, *RANGE))
                pids |= {t["thread"] for t in batches[-1].exec_stats["tasks"]}
        assert {t["shard"] for t in batches[0].exec_stats["tasks"]} == set(
            sharded.live_shards
        )
        assert len(pids) == 2 and all(p.startswith("pid-") for p in pids)
        for batch in batches[:2]:
            _assert_bit_identical(batch, want)
            assert batch.io == want.io
            assert batch.pages_saved == want.pages_saved
            assert batch.fetches_saved == want.fetches_saved


# -- manifest integrity ----------------------------------------------------


class TestManifest:
    def test_open_verify_roundtrip(self, tmp_path):
        sets, _ = _workload(seed=8, n_sets=40)
        build_sharded(sets, tmp_path / "s", n_shards=2, k=16, b=4, seed=8,
                      budget=16, sample_pairs=500)
        assert is_sharded(tmp_path / "s")
        assert not is_sharded(tmp_path)
        summary = verify_sharded(tmp_path / "s")
        assert summary["n_sets"] == len(sets)
        assert summary["live_shards"] == 2

    def test_verify_checks_each_live_shard_once(self, tmp_path, monkeypatch):
        """``verify_sharded`` makes one verifying pass per live shard --
        its arrays checksummed and contents checked once -- and sums the
        shards' own ``verify_snapshot`` summaries."""
        from repro.exec import snapfile

        sets, _ = _workload(seed=8, n_sets=40)
        build_sharded(sets, tmp_path / "s", n_shards=3, k=16, b=4, seed=8,
                      budget=16, sample_pairs=500)
        sharded = open_sharded(tmp_path / "s")
        shard_sums = [
            snapfile.verify_snapshot(
                sharded.path / sharded.manifest["shards"][i]["dir"])
            for i in sharded.live_shards
        ]
        checked = []
        check = snapfile._check_contents
        monkeypatch.setattr(
            snapfile, "_check_contents",
            lambda snap: checked.append(snap.path) or check(snap),
        )
        summary = verify_sharded(tmp_path / "s")
        assert len(checked) == len(set(checked)) == summary["live_shards"] > 1
        for key in ("n_arrays", "arrays_bytes"):
            assert summary[key] == sum(s[key] for s in shard_sums)

    def test_detects_shard_corruption(self, tmp_path):
        sets, _ = _workload(seed=8, n_sets=40)
        build_sharded(sets, tmp_path / "s", n_shards=2, k=16, b=4, seed=8,
                      budget=16, sample_pairs=500)
        victim = next((tmp_path / "s").glob("shard-*/arrays.bin"))
        # Flip a byte inside a named array (padding isn't checksummed).
        manifest = json.loads((victim.parent / "manifest.json").read_text())
        spec = max(manifest["arrays"].values(), key=lambda s: s["nbytes"])
        blob = bytearray(victim.read_bytes())
        blob[spec["offset"] + spec["nbytes"] // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(Exception):  # integrity error from snapfile
            verify_sharded(tmp_path / "s")

    def test_detects_manifest_tampering(self, tmp_path):
        sets, _ = _workload(seed=8, n_sets=40)
        build_sharded(sets, tmp_path / "s", n_shards=2, k=16, b=4, seed=8,
                      budget=16, sample_pairs=500)
        victim = next((tmp_path / "s").glob("shard-*/manifest.json"))
        manifest = json.loads(victim.read_text())
        manifest["n_sets"] += 1
        victim.write_text(json.dumps(manifest))
        with pytest.raises(ShardError, match="checksum"):
            open_sharded(tmp_path / "s")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ShardError, match=SHARD_MANIFEST_FILE):
            open_sharded(tmp_path)

    def test_sidmap_partition_enforced(self, tmp_path):
        sets, _ = _workload(seed=8, n_sets=40)
        build_sharded(sets, tmp_path / "s", n_shards=2, k=16, b=4, seed=8,
                      budget=16, sample_pairs=500)
        manifest_path = tmp_path / "s" / SHARD_MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["n_sets"] += 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ShardError, match="partition"):
            open_sharded(tmp_path / "s")


# -- serving over shards ---------------------------------------------------


class TestShardedServe:
    def test_server_routes_through_scatter_gather(self, tmp_path):
        import asyncio

        from repro.serve import QueryServer, ServeConfig, run_loadgen

        sets, queries = _workload(seed=10)
        plan, dist = _build_plan(sets, 10)
        want = _baseline(sets, plan, dist, queries[:4], 10)
        build_sharded(sets, tmp_path / "s", n_shards=2, k=24, b=4, seed=10,
                      plan=plan, dist=dist)

        async def run():
            server = QueryServer(tmp_path / "s", ServeConfig(port=0))
            await server.start()
            stats = server.stats()
            result = await run_loadgen(
                "127.0.0.1", server.port, queries[:4], *RANGE,
                connections=2, total=8, duration=None,
                strategy="index", pipeline=1,
            )
            server.request_drain()
            await server.drain()
            return stats, result

        stats, result = asyncio.run(run())
        assert stats["sharded"] is True and stats["n_shards"] == 2
        assert result.n_ok == result.n_sent == 8
        for qidx, answers in result.answers.items():
            assert [tuple(a) for a in answers] == want.results[qidx].answers
