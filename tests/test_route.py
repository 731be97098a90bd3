"""Shard routing: sound bounds, safe-mode bit-identity, replicas.

The routing layer (:mod:`repro.exec.route`) prunes (query, shard)
pairs whose Jaccard upper bound falls below ``sigma_low``.  The
load-bearing guarantee is soundness: the bound dominates the true
Jaccard of *every* set in the shard, so ``route="safe"`` -- which only
masks verification for pruned pairs while dispatching every probe --
answers bit-identically to full fan-out, candidates and ordering
included.  These tests pin the bound's math directly, the bit-identity
across 12 seeds x K in {2, 4, 8} on the thread backend (plus a process
-backend pass), the degenerate ranges (empty query, ``sigma_low ==
sigma_high``, ``sigma_low = 0`` never prunes), the opt-in sketch
mode's measured recall, replica cloning/balancing, and the executor's
error paths (closed executor, dead shard).
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.core.distribution import SimilarityDistribution
from repro.core.index import SetSimilarityIndex
from repro.core.optimizer import plan_index
from repro.core.similarity import jaccard
from repro.data.generators import planted_clusters
from repro.exec import ParallelExecutor
from repro.exec.route import (
    RoutingInfo,
    ShardRouter,
    ShardSummary,
    build_routing,
    jaccard_upper_bound,
)
from repro.exec.shard import (
    SHARD_MANIFEST_FILE,
    ShardError,
    ShardedExecutor,
    build_sharded,
    open_sharded,
    replicate_shards,
    verify_sharded,
)

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


def _disjoint_workload(seed: int, n_clusters: int = 4, per: int = 20):
    """Clusters over pairwise-disjoint element universes: a query drawn
    from one cluster provably has J = 0 against every other cluster's
    sets, so a cluster-partitioned fleet is maximally prunable."""
    rng = random.Random(seed)
    sets, queries = [], []
    for c in range(n_clusters):
        base = [f"c{c}_{j}" for j in range(48)]
        proto = rng.sample(base, 24)
        members = []
        for _ in range(per):
            # 3-element mutations of a prototype: within-cluster J is
            # high (>= ~0.7, enough for the minhash partitioner to
            # colocate the cluster), across clusters exactly 0.
            keep = rng.sample(proto, 21)
            fresh = rng.sample([e for e in base if e not in proto], 3)
            members.append(frozenset(keep + fresh))
        sets.extend(members)
        src = sorted(rng.choice(members))
        rng.shuffle(src)
        fresh = rng.sample([e for e in base if e not in src], 2)
        queries.append(frozenset(src[2:] + fresh))
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


# -- the bound itself ------------------------------------------------------


class TestJaccardUpperBound:
    def test_dominates_true_jaccard_exhaustively(self):
        """With exact inputs (c = |q ∩ U|, tight size range) the bound
        must dominate J(q, S) for every set S in the shard."""
        rng = random.Random(3)
        universe = list(range(120))
        for _ in range(60):
            shard = [
                frozenset(rng.sample(universe, rng.randint(0, 30)))
                for _ in range(rng.randint(1, 12))
            ]
            u = frozenset().union(*shard)
            sizes = [len(s) for s in shard]
            q = frozenset(rng.sample(universe, rng.randint(0, 40)))
            bound = jaccard_upper_bound(
                len(q), len(q & u), min(sizes), max(sizes)
            )
            for s in shard:
                assert jaccard(q, s) <= bound + 1e-12

    def test_empty_query_convention(self):
        # J(empty, empty) = 1 engine-wide; empty vs non-empty = 0.
        assert jaccard_upper_bound(0, 0, 0, 9) == 1.0
        assert jaccard_upper_bound(0, 0, 3, 9) == 0.0

    def test_degenerate_inputs(self):
        # Zero overlap cap: J = 0 whatever the sizes (the J = 1
        # empty-vs-empty convention needs the *query* empty too).
        assert jaccard_upper_bound(5, 0, 2, 9) == 0.0
        assert jaccard_upper_bound(5, 0, 0, 9) == 0.0
        # Full overlap with a matching size in range: perfect score.
        assert jaccard_upper_bound(5, 5, 1, 9) == 1.0
        # Size range forces supersets: 5/9 is the best case.
        assert jaccard_upper_bound(5, 5, 9, 12) == pytest.approx(5 / 9)
        # Size range forces subsets: 2/5.
        assert jaccard_upper_bound(5, 5, 1, 2) == pytest.approx(2 / 5)

    def test_bitset_collisions_only_loosen(self):
        # c is an upper bound on |q ∩ U|; inflating it (a hash
        # collision) must never lower the bound.
        for c in range(0, 8):
            assert jaccard_upper_bound(6, c + 1, 2, 10) >= jaccard_upper_bound(
                6, c, 2, 10
            )


# -- router decisions ------------------------------------------------------


class TestShardRouter:
    def _router(self, shard_sets, seed=0):
        # Build summaries in memory (open_sharded maps them from
        # routing.bin; the router only sees decoded arrays either way).
        meta, arrays = build_routing(shard_sets, seed=seed)
        summaries = []
        for i, entry in enumerate(meta["shards"]):
            if entry is None:
                summaries.append(None)
                continue
            summaries.append(ShardSummary(
                size_min=entry["size_min"], size_max=entry["size_max"],
                n_universe=entry["n_universe"],
                bits=arrays[f"route{i:03d}_bits"],
                signature=arrays.get(f"route{i:03d}_sig"),
            ))
        return ShardRouter(RoutingInfo(
            m_bits=meta["m_bits"], sig_k=meta["sig_k"],
            sig_seed=meta["sig_seed"], summaries=summaries,
        ))

    def test_sigma_low_zero_never_prunes(self):
        sets, queries = _disjoint_workload(seed=1)
        shard_sets = [sets[i::3] for i in range(3)]
        router = self._router(shard_sets)
        decision = router.route(queries, 0.0, [0, 1, 2])
        assert decision.pruned_pairs == 0
        assert decision.skipped_shards() == []

    def test_disjoint_clusters_fully_pruned(self):
        sets, queries = _disjoint_workload(seed=2, n_clusters=3)
        shard_sets = [sets[:20], sets[20:40], sets[40:]]  # one per cluster
        router = self._router(shard_sets)
        decision = router.route(queries, 0.5, [0, 1, 2])
        # Query c matches only shard c: 2 of 3 pairs pruned per query.
        assert decision.pruned_pairs == 2 * len(queries)
        for c, q in enumerate(queries):
            assert decision.kept[c].count(c) == 1

    def test_empty_query_prunes_shards_without_empty_sets(self):
        shard_sets = [[frozenset({1, 2})], [frozenset(), frozenset({3})]]
        router = self._router(shard_sets)
        decision = router.route([frozenset()], 0.5, [0, 1])
        assert decision.kept == {0: [], 1: [0]}

    def test_missing_summary_keeps_blind(self):
        sets, queries = _disjoint_workload(seed=3, n_clusters=2)
        router = self._router([sets[:20], sets[20:]])
        router.routing.summaries[1] = None  # simulate a foreign manifest
        decision = router.route(queries, 0.9, [0, 1])
        # No summary for shard 1: every query is kept for it, blind.
        assert decision.kept[1] == list(range(len(queries)))

    def test_sketch_prunes_at_least_as_much(self):
        sets, queries = _disjoint_workload(seed=4)
        shard_sets = [sets[:20], sets[20:40], sets[40:60], sets[60:]]
        router = self._router(shard_sets)
        safe = router.route(queries, 0.5, [0, 1, 2, 3])
        sketch = router.route(queries, 0.5, [0, 1, 2, 3], sketch=True)
        assert sketch.mode == "sketch" and safe.mode == "safe"
        assert sketch.pruned_pairs >= safe.pruned_pairs


# -- safe mode: bit-identity under routing ---------------------------------


class TestSafeModeBitIdentity:
    """``route="safe"`` must equal full fan-out bit for bit: answers,
    candidate sets and ordering -- the pruning only skips verification
    work that provably returns nothing."""

    pruned_counts: list = []  # aggregate evidence routing fired

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n_shards", (2, 4, 8))
    def test_thread_backend_bit_identical(self, tmp_path, seed, n_shards):
        sets, queries = _workload(seed)
        plan, dist = _build_plan(sets, seed)
        want = _baseline(sets, plan, dist, queries, seed)
        build_sharded(
            sets, tmp_path / "s", n_shards=n_shards, partition="cluster",
            k=24, b=4, seed=seed, plan=plan, dist=dist,
        )
        sharded = open_sharded(tmp_path / "s")
        with ShardedExecutor(
            sharded, backend="thread", route="full"
        ) as full_exec:
            full = full_exec.query_batch(queries, *RANGE)
        with ShardedExecutor(
            sharded, backend="thread", route="safe"
        ) as safe_exec:
            assert safe_exec.route_active
            safe = safe_exec.query_batch(queries, *RANGE)
        _assert_bit_identical(safe, want)
        _assert_bit_identical(safe, full)
        stats = safe.exec_stats["route"]
        assert stats["mode"] == "safe" and stats["active"]
        # Safe mode dispatches every live shard regardless of pruning.
        assert stats["shards_skipped"] == 0
        self.pruned_counts.append(stats["subqueries_pruned"])

    def test_routing_actually_pruned_during_sweep(self):
        # The sweep above is only meaningful evidence if the router
        # pruned real work somewhere across the 36 builds.
        assert sum(self.pruned_counts) > 0

    @pytest.mark.parametrize("seed", (0, 7))
    @pytest.mark.parametrize("n_shards", (2, 8))
    def test_process_backend_bit_identical(self, tmp_path, seed, n_shards):
        sets, queries = _workload(seed)
        plan, dist = _build_plan(sets, seed)
        want = _baseline(sets, plan, dist, queries, seed)
        build_sharded(
            sets, tmp_path / "s", n_shards=n_shards, partition="cluster",
            k=24, b=4, seed=seed, plan=plan, dist=dist,
        )
        with ShardedExecutor(
            open_sharded(tmp_path / "s"), workers=1, backend="process",
            route="safe",
        ) as executor:
            got = executor.query_batch(queries, *RANGE)
        _assert_bit_identical(got, want)

    def test_degenerate_sigma_range_bit_identical(self, tmp_path):
        sets, queries = _workload(seed=3)
        plan, dist = _build_plan(sets, 3)
        index = SetSimilarityIndex.from_plan(sets, plan, dist, k=24, b=4,
                                             seed=3)
        build_sharded(sets, tmp_path / "s", n_shards=4, partition="cluster",
                      k=24, b=4, seed=3, plan=plan, dist=dist)
        sharded = open_sharded(tmp_path / "s")
        base_exec = ParallelExecutor(index.freeze(), workers=1)
        for lo, hi in ((0.5, 0.5), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)):
            want = base_exec.query_batch(queries, lo, hi)
            with ShardedExecutor(sharded, route="safe") as executor:
                got = executor.query_batch(queries, lo, hi)
            _assert_bit_identical(got, want)
            if lo == 0.0:
                # sigma_low = 0 keeps every pair: nothing to prune.
                assert got.exec_stats["route"]["subqueries_pruned"] == 0

    def test_scan_and_auto_fan_out_fully(self, tmp_path):
        sets, queries = _workload(seed=6)
        plan, dist = _build_plan(sets, 6)
        build_sharded(sets, tmp_path / "s", n_shards=3, k=24, b=4, seed=6,
                      plan=plan, dist=dist)
        with ShardedExecutor(open_sharded(tmp_path / "s"),
                             route="sketch") as executor:
            got = executor.query_batch(queries, *RANGE, strategy="scan")
            assert got.exec_stats["route"]["subqueries_pruned"] == 0
            assert "route" not in got.timings

    def test_explain_carries_routing_decision(self, tmp_path):
        sets, queries = _disjoint_workload(seed=8)
        build_sharded(sets, tmp_path / "s", n_shards=4, partition="cluster",
                      k=16, b=4, seed=8, budget=24, sample_pairs=400)
        with ShardedExecutor(open_sharded(tmp_path / "s"),
                             route="safe") as executor:
            got = executor.query_batch(queries, 0.5, 1.0, explain=True)
        assert got.trace.attrs["route"] == "safe"
        assert got.trace.attrs["route_mode"] == "safe"
        assert got.trace.attrs["route_pruned_subqueries"] > 0
        assert got.timings["route"] >= 0.0


# -- sketch mode -----------------------------------------------------------


class TestSketchMode:
    def test_disjoint_clusters_skip_shards_with_full_recall(self, tmp_path):
        sets, queries = _disjoint_workload(seed=11)
        # Query two of the four clusters: the other two clusters'
        # shards have no surviving query, so sketch mode undispatches
        # them outright.
        queries = queries[:2]
        build_sharded(sets, tmp_path / "s", n_shards=4, partition="cluster",
                      k=24, b=4, seed=11, budget=36, sample_pairs=800)
        sharded = open_sharded(tmp_path / "s")
        with ShardedExecutor(sharded, route="full") as executor:
            want = executor.query_batch(queries, 0.5, 1.0)
        with ShardedExecutor(sharded, route="sketch") as executor:
            got = executor.query_batch(queries, 0.5, 1.0)
        stats = got.exec_stats["route"]
        assert stats["mode"] == "sketch"
        assert stats["shards_skipped"] > 0  # genuinely undispatched
        want_pairs = {
            (r, sid) for r, res in enumerate(want.results)
            for sid, _ in res.answers
        }
        got_pairs = {
            (r, sid) for r, res in enumerate(got.results)
            for sid, _ in res.answers
        }
        recall = len(got_pairs & want_pairs) / max(1, len(want_pairs))
        assert want_pairs  # the workload must produce answers to measure
        assert recall == 1.0  # disjoint universes: pruning is provable

    def test_sketch_recall_measured_on_overlapping_clusters(self, tmp_path):
        sets, queries = _workload(seed=10, n_queries=8)
        plan, dist = _build_plan(sets, 10)
        build_sharded(sets, tmp_path / "s", n_shards=4, partition="cluster",
                      k=24, b=4, seed=10, plan=plan, dist=dist)
        sharded = open_sharded(tmp_path / "s")
        with ShardedExecutor(sharded, route="full") as executor:
            want = executor.query_batch(queries, *RANGE)
        with ShardedExecutor(sharded, route="sketch") as executor:
            got = executor.query_batch(queries, *RANGE)
        want_pairs = {
            (r, sid) for r, res in enumerate(want.results)
            for sid, _ in res.answers
        }
        got_pairs = {
            (r, sid) for r, res in enumerate(got.results)
            for sid, _ in res.answers
        }
        assert got_pairs <= want_pairs  # sketch can only lose answers
        recall = len(got_pairs & want_pairs) / max(1, len(want_pairs))
        assert recall >= 0.9  # measured, with 1/sqrt(k) UCB slack


# -- replication -----------------------------------------------------------


class TestReplication:
    def _build(self, tmp_path, seed=12):
        sets, queries = _disjoint_workload(seed=seed)
        build_sharded(sets, tmp_path / "s", n_shards=4, partition="cluster",
                      k=16, b=4, seed=seed, budget=24, sample_pairs=400)
        return tmp_path / "s", queries

    def test_replicate_roundtrip_and_answers_identical(self, tmp_path):
        path, queries = self._build(tmp_path)
        with ShardedExecutor(open_sharded(path), route="full") as executor:
            want = executor.query_batch(queries, 0.5, 1.0)
        manifest = replicate_shards(path, top=2, copies=2)
        assert sum(bool(e.get("replicas")) for e in manifest["shards"]) == 2
        sharded = open_sharded(path)
        assert sum(len(r) for r in sharded.replicas.values()) == 2
        assert verify_sharded(path)["n_replicas"] == 2
        with ShardedExecutor(sharded, route="full") as executor:
            got = executor.query_batch(queries, 0.5, 1.0)
        _assert_bit_identical(got, want)

    def test_replicate_idempotent(self, tmp_path):
        path, _ = self._build(tmp_path)
        first = replicate_shards(path, top=1, copies=3)
        second = replicate_shards(path, top=1, copies=3)
        assert first["shards"] == second["shards"]
        open_sharded(path, verify=True)  # replica arrays checksum clean

    def test_replica_dispatch_balanced(self, tmp_path):
        path, queries = self._build(tmp_path)
        replicate_shards(path, top=4, copies=2)  # every shard x2
        with ShardedExecutor(open_sharded(path), route="full") as executor:
            for _ in range(30):
                executor.query_batch(queries, 0.5, 1.0)
            counts = executor.replica_dispatch_counts()
        assert set(counts) == {0, 1, 2, 3}
        for slots in counts.values():
            mean = sum(slots) / len(slots)
            assert max(slots) / mean <= 1.5  # the BENCH-ROUTE gate

    def test_drifted_replica_rejected(self, tmp_path):
        path, _ = self._build(tmp_path)
        replicate_shards(path, top=1, copies=2)
        manifest = json.loads((path / SHARD_MANIFEST_FILE).read_text())
        name = next(e["replicas"][0] for e in manifest["shards"]
                    if e.get("replicas"))
        replica_manifest = path / name / "manifest.json"
        replica_manifest.write_text(
            replica_manifest.read_text().replace("{", "{ ", 1)
        )
        with pytest.raises(ShardError, match="not identical"):
            open_sharded(path)

    def test_validation(self, tmp_path):
        path, _ = self._build(tmp_path)
        with pytest.raises(ValueError, match="top"):
            replicate_shards(path, top=0)
        with pytest.raises(ValueError, match="copies"):
            replicate_shards(path, copies=1)


# -- fallbacks and error paths ---------------------------------------------


class TestFallbacksAndErrors:
    def test_routing_disabled_build_falls_back_to_full(self, tmp_path):
        sets, queries = _workload(seed=5)
        plan, dist = _build_plan(sets, 5)
        want = _baseline(sets, plan, dist, queries, 5)
        build_sharded(sets, tmp_path / "s", n_shards=3, k=24, b=4, seed=5,
                      plan=plan, dist=dist, routing=False)
        sharded = open_sharded(tmp_path / "s")
        assert sharded.routing is None
        with ShardedExecutor(sharded, route="safe") as executor:
            assert not executor.route_active
            got = executor.query_batch(queries, *RANGE)
            assert got.exec_stats["route"]["active"] is False
        _assert_bit_identical(got, want)

    def test_unsupported_version_rejected(self, tmp_path):
        sets, _ = _workload(seed=1, n_sets=30)
        build_sharded(sets, tmp_path / "s", n_shards=2, k=16, b=4, seed=1,
                      budget=12, sample_pairs=200)
        mpath = tmp_path / "s" / SHARD_MANIFEST_FILE
        manifest = json.loads(mpath.read_text())
        manifest["version"] = 99
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ShardError, match="version"):
            open_sharded(tmp_path / "s")

    def test_unknown_route_mode_rejected(self, tmp_path):
        sets, _ = _workload(seed=1, n_sets=30)
        build_sharded(sets, tmp_path / "s", n_shards=2, k=16, b=4, seed=1,
                      budget=12, sample_pairs=200)
        with pytest.raises(ValueError, match="route"):
            ShardedExecutor(open_sharded(tmp_path / "s"), route="fastest")

    def test_query_delegates_to_query_batch(self, tmp_path):
        sets, queries = _workload(seed=2)
        build_sharded(sets, tmp_path / "s", n_shards=2, k=24, b=4, seed=2,
                      budget=36, sample_pairs=1_500)
        with ShardedExecutor(open_sharded(tmp_path / "s"),
                             route="safe") as executor:
            batch = executor.query_batch([queries[0]], *RANGE)
            single = executor.query(queries[0], *RANGE)
        assert single.answers == batch.results[0].answers
        assert single.candidates == batch.results[0].candidates

    def test_closed_executor_raises(self, tmp_path):
        sets, queries = _workload(seed=1, n_sets=30)
        build_sharded(sets, tmp_path / "s", n_shards=2, k=16, b=4, seed=1,
                      budget=12, sample_pairs=200)
        executor = ShardedExecutor(open_sharded(tmp_path / "s"))
        executor.close()
        with pytest.raises(ShardError, match="closed"):
            executor.query_batch(queries, *RANGE)

    def test_dead_shard_surfaces_as_shard_error(self, tmp_path):
        sets, queries = _workload(seed=1, n_sets=30)
        build_sharded(sets, tmp_path / "s", n_shards=2, k=16, b=4, seed=1,
                      budget=12, sample_pairs=200)
        sharded = open_sharded(tmp_path / "s")
        victim = max(sharded.live_shards)

        def boom(*args, **kwargs):
            raise RuntimeError("mmap torn away")

        # The failure enters where a real one would: the shard's view.
        sharded.shards[victim].filter_probe = boom
        with ShardedExecutor(sharded) as executor:
            with pytest.raises(ShardError,
                               match=f"shard {victim} failed"):
                executor.query_batch(queries, *RANGE)
