"""Shard routing: sound bounds, safe-routing bit-identity, checked summaries.

The routing layer (:mod:`repro.exec.route`) prunes (query, shard)
pairs whose Jaccard upper bound falls below ``sigma_low``.  The
load-bearing guarantee is soundness: the bound dominates the true
Jaccard of *every* set in the shard, so safe routing -- which only
masks verification for pruned pairs while every live shard still runs
every probe -- answers bit-identically to the unsharded engine,
candidates and ordering included.  These tests pin the bound's math
directly, the bit-identity on hash-partitioned fleets across 12 seeds x
K in {2, 4, 8} on the thread backend (plus a process-backend pass), the
degenerate ranges (empty query, ``sigma_low == sigma_high``,
``sigma_low = 0`` never prunes), the open-time checks that refuse a
routing block which does not describe its shards, and the executor's
error paths (closed executor, dead shard).
"""

from __future__ import annotations

import json
import random
import zlib

import numpy as np
import pytest

from repro.core.distribution import SimilarityDistribution
from repro.core.index import SetSimilarityIndex
from repro.core.optimizer import plan_index
from repro.core.similarity import jaccard
from repro.data.generators import planted_clusters
from repro.exec import ParallelExecutor
from repro.exec.route import (
    ROUTING_FILE,
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
    sets, so shards holding one cluster each are maximally prunable."""
    rng = random.Random(seed)
    sets, queries = [], []
    for c in range(n_clusters):
        base = [f"c{c}_{j}" for j in range(48)]
        proto = rng.sample(base, 24)
        members = []
        for _ in range(per):
            # 3-element mutations of a prototype: within-cluster J is
            # high, across clusters exactly 0.
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
    def _router(self, shard_sets):
        # Build summaries in memory (open_sharded maps them from
        # routing.bin; the router only sees decoded arrays either way).
        meta, arrays = build_routing(shard_sets)
        summaries = [
            None if entry is None else ShardSummary(
                size_min=entry["size_min"], size_max=entry["size_max"],
                bits=arrays[f"route{i:03d}_bits"],
            )
            for i, entry in enumerate(meta["shards"])
        ]
        return ShardRouter(RoutingInfo(m_bits=meta["m_bits"],
                                       summaries=summaries))

    def test_sigma_low_zero_never_prunes(self):
        sets, queries = _disjoint_workload(seed=1)
        shard_sets = [sets[i::3] for i in range(3)]
        router = self._router(shard_sets)
        decision = router.route(queries, 0.0, [0, 1, 2])
        assert decision.pruned_pairs == 0
        assert all(rows == list(range(len(queries)))
                   for rows in decision.kept.values())

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


# -- safe routing: bit-identity on hash fleets ------------------------------


class TestSafeModeBitIdentity:
    """A hash-partitioned fleet must equal the unsharded engine bit for
    bit: answers, candidate sets and ordering -- routing only skips
    verification work that provably returns nothing."""

    pruned_counts: list = []  # aggregate evidence routing fired

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n_shards", (2, 4, 8))
    def test_thread_backend_bit_identical(self, tmp_path, seed, n_shards):
        sets, queries = _workload(seed)
        plan, dist = _build_plan(sets, seed)
        want = _baseline(sets, plan, dist, queries, seed)
        build_sharded(
            sets, tmp_path / "s", n_shards=n_shards, k=24, b=4, seed=seed,
            plan=plan, dist=dist,
        )
        sharded = open_sharded(tmp_path / "s")
        with ShardedExecutor(sharded, backend="thread") as executor:
            got = executor.query_batch(queries, *RANGE)
        _assert_bit_identical(got, want)
        # Every live shard runs the whole batch, however much is pruned.
        assert set(got.exec_stats["shards"]) == set(sharded.live_shards)
        self.pruned_counts.append(got.exec_stats["route"]["subqueries_pruned"])

    def test_routing_actually_pruned_during_sweep(self):
        # The sweep above is only meaningful evidence if the router
        # pruned real work in every one of the 36 builds: the empty and
        # the foreign query of each workload are bounded away from
        # every shard.
        assert len(self.pruned_counts) == 36
        assert min(self.pruned_counts) > 0

    @pytest.mark.parametrize("seed", (0, 7))
    @pytest.mark.parametrize("n_shards", (2, 4, 8))
    def test_process_backend_bit_identical(self, tmp_path, seed, n_shards):
        sets, queries = _workload(seed)
        plan, dist = _build_plan(sets, seed)
        want = _baseline(sets, plan, dist, queries, seed)
        build_sharded(
            sets, tmp_path / "s", n_shards=n_shards, k=24, b=4, seed=seed,
            plan=plan, dist=dist,
        )
        with ShardedExecutor(
            open_sharded(tmp_path / "s"), workers=1, backend="process",
        ) as executor:
            got = executor.query_batch(queries, *RANGE)
        _assert_bit_identical(got, want)
        assert got.exec_stats["route"]["subqueries_pruned"] > 0

    def test_degenerate_sigma_range_bit_identical(self, tmp_path):
        sets, queries = _workload(seed=3)
        plan, dist = _build_plan(sets, 3)
        index = SetSimilarityIndex.from_plan(sets, plan, dist, k=24, b=4,
                                             seed=3)
        build_sharded(sets, tmp_path / "s", n_shards=4, k=24, b=4, seed=3,
                      plan=plan, dist=dist)
        sharded = open_sharded(tmp_path / "s")
        base_exec = ParallelExecutor(index.freeze(), workers=1)
        for lo, hi in ((0.5, 0.5), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)):
            want = base_exec.query_batch(queries, lo, hi)
            with ShardedExecutor(sharded) as executor:
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
        with ShardedExecutor(open_sharded(tmp_path / "s")) as executor:
            got = executor.query_batch(queries, *RANGE, strategy="scan")
            assert got.exec_stats["route"]["subqueries_pruned"] == 0
            assert "route" not in got.timings

    def test_explain_carries_routing_decision(self, tmp_path):
        # The workload's empty and foreign queries are pruned on every
        # shard of a hash fleet.
        sets, queries = _workload(seed=8)
        build_sharded(sets, tmp_path / "s", n_shards=4, k=16, b=4, seed=8,
                      budget=24, sample_pairs=400)
        with ShardedExecutor(open_sharded(tmp_path / "s")) as executor:
            got = executor.query_batch(queries, 0.5, 1.0, explain=True)
        assert got.trace.attrs["route_pruned_subqueries"] > 0
        assert got.timings["route"] >= 0.0


# -- the routing block is checked at open -----------------------------------


def _tamper(path, edit):
    """Apply ``edit(manifest, routing_block)`` to a fleet's manifest."""
    manifest_path = path / SHARD_MANIFEST_FILE
    manifest = json.loads(manifest_path.read_text())
    edit(manifest, manifest["routing"])
    manifest_path.write_text(json.dumps(manifest))


def _shorten_bits(routing, path, i):
    """Point shard ``i``'s bitset spec at its first half, crc included,
    so only the length is wrong."""
    spec = routing["arrays"][f"route{i:03d}_bits"]
    spec["shape"] = [spec["shape"][0] // 2]
    spec["nbytes"] //= 2
    blob = (path / ROUTING_FILE).read_bytes()
    spec["crc32"] = zlib.crc32(
        blob[spec["offset"]:spec["offset"] + spec["nbytes"]]
    )


class TestRoutingValidation:
    def test_tampered_routing_block_raises_typed_error(self, tmp_path):
        """A routing block that understates a shard could prune pairs
        holding answers; every such edit is refused at open and by
        ``verify_sharded``, so none can return fewer answers."""
        sets = planted_clusters(
            n_clusters=12, per_cluster=8, base_size=24, universe=3000,
            mutation_rate=0.2, seed=13,
        )
        fleet = tmp_path / "fleet"
        build_sharded(sets, fleet, n_shards=4, k=24, b=4, seed=13,
                      budget=36, recall_target=0.85, sample_pairs=2000)
        tiny = tmp_path / "tiny"  # two sets over four shards: some empty
        build_sharded([frozenset({1, 2, 3}), frozenset({7, 8, 9, 10})], tiny,
                      n_shards=4, k=16, b=4, seed=0, budget=12,
                      sample_pairs=50)
        tiny_entries = json.loads((tiny / SHARD_MANIFEST_FILE).read_text())
        empty = next(i for i, e in enumerate(tiny_entries["shards"])
                     if e.get("empty"))
        live = next(i for i, e in enumerate(tiny_entries["shards"])
                    if not e.get("empty"))

        def each_live(field, value):
            def edit(_, routing):
                for entry in routing["shards"]:
                    if entry is not None:
                        entry[field] = value(entry[field])
            return edit

        def set_key(key, value):
            return lambda _, routing: routing.__setitem__(key, value)

        edits = {
            "size_max to 1": (fleet, each_live("size_max", lambda v: 1)),
            "size_max + 1": (fleet, each_live("size_max", lambda v: v + 1)),
            "size_min + 1": (fleet, each_live("size_min", lambda v: v + 1)),
            "size_min as float": (fleet, each_live("size_min", float)),
            "m_bits halved": (fleet, lambda _, r: r.__setitem__(
                "m_bits", r["m_bits"] // 2)),
            "m_bits not a power of two": (fleet, lambda _, r: r.__setitem__(
                "m_bits", r["m_bits"] + 64)),
            "m_bits above 2^22": (fleet, set_key("m_bits", 1 << 23)),
            "m_bits below 2^10": (fleet, set_key("m_bits", 1 << 9)),
            "no routing block": (fleet, lambda m, _: m.__setitem__(
                "routing", None)),
            "missing summary": (fleet, lambda _, r: r["shards"].__setitem__(
                1, None)),
            "missing bitset": (fleet, lambda _, r: r["arrays"].pop(
                "route002_bits")),
            "extra entry": (fleet, lambda _, r: r["shards"].append(
                dict(r["shards"][0]))),
            "summary for an empty shard": (tiny, lambda _, r: r[
                "shards"].__setitem__(empty, dict(r["shards"][live]))),
            "short bitset": (fleet, lambda _, r: _shorten_bits(r, fleet, 3)),
            "bitset read as floats": (fleet, lambda _, r: r["arrays"][
                "route000_bits"].__setitem__("dtype", "<f8")),
        }
        for name, (path, edit) in edits.items():
            manifest_path = path / SHARD_MANIFEST_FILE
            pristine = manifest_path.read_text()
            open_sharded(path)  # the untouched fleet opens
            _tamper(path, edit)
            with pytest.raises(ShardError, match="routing"):
                open_sharded(path)
            with pytest.raises(ShardError, match="routing"):
                verify_sharded(path)
            manifest_path.write_text(pristine)
        # Restored, every fleet opens and verifies again.
        verify_sharded(fleet)
        verify_sharded(tiny)


# -- fallbacks and error paths ---------------------------------------------


class TestFallbacksAndErrors:
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
