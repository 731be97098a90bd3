"""Sharded scatter-gather execution over independent mmap snapshots.

One snapshot per process caps throughput at a single index's
probe/verify path and one global hash-table budget.  This module
splits a collection into ``K`` shards, builds each with the bulk
pipeline, persists each as its own :mod:`~repro.exec.snapfile`
snapshot under a checksummed *shard manifest*, and serves queries by
scatter-gather: the one query pipeline
(:func:`repro.exec.pipeline.run_batch`) answers the batch over each
shard's view in turn, on the caller's thread and on the fleet's one
scheduler (a :class:`~repro.exec.parallel.WorkerPool`: inline on the
thread backend, or one process pool sized by ``workers`` whatever K
is), and the verified
answers, per-phase timings and IOStats are merged.  The sharded path
differs from the unsharded one by a router, a sid map and a sort.

Two tuning modes, chosen at build time:

* ``tune="mirror"`` (default) -- every shard materializes the **same**
  global plan with the same build seed.  A set's membership in a
  bucket is ``hash_key(sampled query bits) == hash_key(sampled set
  bits)``, which depends only on the plan's samplers (seeded
  ``seed + 7919 * (offset + 1)`` per filter) and never on bucket
  counts or which shard holds the set.  The union of per-shard
  candidates is therefore *exactly* the unsharded candidate set --
  including fingerprint-collision false positives -- and with exact
  verification on top, a merged scatter-gather batch is bit-identical
  (similarities, candidates, ordering) to the equivalent single-index
  ``query_batch`` at any K, worker count and backend.

* ``tune="workload"`` -- the Lemma 6 greedy allocator lifted to a
  *global* budget (:func:`repro.core.optimizer.allocate_global_budget`):
  each shard's own pair-similarity distribution plus a workload weight
  (estimated answer mass routed to it) compete for tables, so hot
  shards get more of the budget.  Per-shard table counts then differ,
  which deliberately trades the bit-equivalence guarantee for recall
  where the workload needs it (answers remain exact-verified; only the
  candidate funnel is tuned per shard).

Partitioning is hash-based by default (a stable content fingerprint,
independent of input order and ``PYTHONHASHSEED``), with
``method="cluster"`` colocating minhash-similar sets -- the layout
that makes workload weights skewed and the global allocator useful.

Builds also persist per-shard **routing summaries**
(:mod:`repro.exec.route`: size ranges, an element-universe bitset, a
MinHash universe profile) that let :class:`ShardedExecutor` skip the
fetch/verify work -- or, opted in, the whole dispatch -- for shards
whose sound Jaccard upper bound falls below ``sigma_low``; and
:func:`replicate_shards` clones hot shards so dispatches alternate
over identical copies (fewest dispatches first).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import zlib
from pathlib import Path

import numpy as np

from repro.core.index import (
    BatchQueryResult,
    QueryResult,
    assemble_batch,
    record_batch,
)
from repro.core.minhash import MinHasher, hash_rows
from repro.exec.columnar import (
    csr_rows,
    merge_verify_info,
    pairs_csr,
    sorted_unique,
)
from repro.exec.parallel import WorkerPool
from repro.exec.pipeline import prepare_batch, run_batch
from repro.exec.route import (
    ROUTING_FILE,
    ShardRouter,
    build_routing,
    load_routing,
)
from repro.hamming.splitmix import GOLDEN, MASK64, mix64_array
from repro.obs import metrics, trace
from repro.storage.iomodel import IOCostModel, IOStats

SHARD_MANIFEST_FILE = "shard_manifest.json"
SIDMAP_FILE = "sidmap.bin"
FORMAT_NAME = "repro-ssi-shards"
#: v4: routing bitsets set from the one element hash
#: (:func:`~repro.core.minhash.stable_element_hash`), shard snapshots
#: at snapshot format 6; since v3 an optional ``routing`` block (with
#: ``sig_scheme``), per-shard ``replicas`` lists and the signature
#: ``codec`` in the ``build`` block.  The only version read; rebuild
#: older directories.
FORMAT_VERSION = 4

_SHARD_BATCHES = metrics.counter("exec.shard_batches")


class ShardError(RuntimeError):
    """Sharded-manifest problem: format, integrity or usage."""


def set_fingerprints(sets, seed: int = 0) -> np.ndarray:
    """Stable 64-bit content fingerprint of every set, as uint64.

    XOR of the set's element hashes (order-independent), avalanched
    with the seed folded in (times the splitmix64 increment, so
    different seeds give different but each stable partitions).
    Reproducible across processes and input permutations -- the
    property hash partitioning stands on.
    """
    indptr, data, _ = hash_rows(sets)
    acc = np.zeros(len(indptr) - 1, dtype=np.uint64)
    nonempty = np.flatnonzero(np.diff(indptr))
    if len(nonempty):
        acc[nonempty] = np.bitwise_xor.reduceat(data, indptr[nonempty])
    return mix64_array(acc ^ np.uint64((seed * GOLDEN) & MASK64))


def partition_sets(
    sets, n_shards: int, method: str = "hash", seed: int = 0
) -> np.ndarray:
    """Assign every set to exactly one shard; returns shape-(N,) int64.

    ``method="hash"``: content-fingerprint modulo ``n_shards`` --
    stable under input permutation and across rebuilds.
    ``method="cluster"``: order sets by their minhash signature
    (fixed-seed) and cut the order into ``n_shards`` near-equal
    contiguous chunks, so minhash-similar sets land together --
    deterministic for a given input list, and the layout that lets
    workload-aware tuning concentrate budget on hot shards.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    sets = [s if isinstance(s, frozenset) else frozenset(s) for s in sets]
    n = len(sets)
    if method == "hash":
        return (set_fingerprints(sets, seed) % np.uint64(n_shards)).astype(
            np.int64
        )
    if method != "cluster":
        raise ValueError(f"unknown partition method: {method!r}")
    assignment = np.zeros(n, dtype=np.int64)
    if n == 0:
        return assignment
    hasher = MinHasher(k=8, seed=seed)
    keys = np.zeros((n, hasher.k), dtype=np.uint64)
    nonempty = [i for i, s in enumerate(sets) if s]
    if nonempty:
        keys[nonempty] = hasher.signature_matrix([sets[i] for i in nonempty])
    # Lexicographic sort by signature; ties (identical signatures,
    # e.g. every empty set) stay in input order, keeping the result
    # deterministic for a given input list.
    order = np.lexsort(keys.T[::-1])
    bounds = [n * p // n_shards for p in range(n_shards + 1)]
    for shard, (a, b) in enumerate(zip(bounds, bounds[1:])):
        assignment[order[a:b]] = shard
    return assignment


def estimate_workload_weights(
    sets,
    assignment: np.ndarray,
    n_shards: int,
    workload,
    sigma_low: float,
    sigma_high: float,
    k: int = 32,
    b: int = 6,
    seed: int = 0,
    codec: str = "full64",
) -> list[float]:
    """Per-shard answer-mass estimate for a query workload.

    Embeds the collection and the workload's query sets once (the same
    codec and embedding the index uses), estimates every (query, set)
    Jaccard similarity from the packed vectors, and counts, per shard,
    the pairs estimated to fall in ``[sigma_low, sigma_high]`` -- the
    answer mass the workload routes to that shard.  Laplace-smoothed
    so no shard weighs zero (every shard still needs a sane floor of
    tables for the queries that do reach it).
    """
    from repro.core.embedding import SetEmbedder

    sets = [s if isinstance(s, frozenset) else frozenset(s) for s in sets]
    queries = [frozenset(q) for q in workload]
    counts = np.ones(n_shards, dtype=np.float64)  # +1 smoothing
    live = [i for i, s in enumerate(sets) if s]
    live_queries = [q for q in queries if q]
    if live and live_queries:
        embedder = SetEmbedder(k=k, b=b, seed=seed, codec=codec)
        matrix = embedder.embed_many([sets[i] for i in live])
        shard_of = np.asarray(assignment, dtype=np.int64)[live]
        for q in live_queries:
            # Codec-calibrated hamming_to_jaccard, vectorized over the
            # collection.
            sims = embedder.estimate_many(matrix, embedder.embed(q))
            hit = (sims >= sigma_low) & (sims <= sigma_high)
            np.add.at(counts, shard_of[hit], 1.0)
    total = float(counts.sum())
    return [float(c) / total for c in counts]


# -- build -----------------------------------------------------------------


def build_sharded(
    sets,
    out,
    n_shards: int,
    partition: str = "hash",
    tune: str = "mirror",
    budget: int = 500,
    recall_target: float = 0.9,
    k: int = 100,
    b: int = 6,
    seed: int = 0,
    sample_pairs: int | None = None,
    workload=None,
    workload_range: tuple[float, float] = (0.5, 1.0),
    plan=None,
    dist=None,
    routing: bool = True,
    codec: str = "full64",
) -> dict:
    """Partition, build and persist a K-shard index under ``out``.

    One global distribution estimate and one global plan (reused via
    ``plan=``/``dist=`` when the caller already built the unsharded
    index from the same parameters -- the plan is deterministic, so
    passing it only skips recomputation).  Every shard is built through
    the bulk pipeline from that plan -- identical cut points and build
    seed, hence identical samplers, in every shard (``tune="mirror"``)
    -- or from a per-shard re-allocated copy under the global greedy
    (``tune="workload"``, optionally weighted by a ``workload`` list of
    query sets over ``workload_range``).  Returns the written manifest.
    """
    from repro.core.distribution import SimilarityDistribution
    from repro.core.index import SetSimilarityIndex
    from repro.core.optimizer import (
        IndexPlan,
        PlannedFilter,
        allocate_global_budget,
        average_recall,
        evaluate_ranges,
        plan_index,
    )
    from repro.core.codec import parse_codec
    from repro.exec.snapfile import MANIFEST_FILE, save_snapshot, write_arrays

    if tune not in ("mirror", "workload"):
        raise ValueError(f"unknown tune mode: {tune!r}")
    spec = parse_codec(codec)
    plan_b = spec.bias_bits(b)
    sets = [s if isinstance(s, frozenset) else frozenset(s) for s in sets]
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    if dist is None:
        dist = SimilarityDistribution.from_sets(
            sets, sample_pairs=sample_pairs, seed=seed
        )
    if plan is None:
        plan = plan_index(dist, budget, recall_target=recall_target, b=plan_b)
    assignment = partition_sets(sets, n_shards, method=partition, seed=seed)
    shard_sets: list[list[frozenset]] = [[] for _ in range(n_shards)]
    shard_gsids: list[list[int]] = [[] for _ in range(n_shards)]
    for gsid, (s, a) in enumerate(zip(sets, assignment)):
        shard_sets[int(a)].append(s)
        shard_gsids[int(a)].append(gsid)

    if tune == "workload":
        shard_dists = [
            SimilarityDistribution.from_sets(
                ss, sample_pairs=sample_pairs, seed=seed
            ) if len(ss) > 1 else dist
            for ss in shard_sets
        ]
        if workload:
            weights = estimate_workload_weights(
                sets, assignment, n_shards, workload, *workload_range,
                k=min(k, 32), b=b, seed=seed, codec=codec,
            )
        else:
            n_total = max(1, len(sets))
            weights = [max(1, len(ss)) / n_total for ss in shard_sets]
        shard_filters = [
            [PlannedFilter(f.point, f.kind) for f in plan.filters]
            for _ in range(n_shards)
        ]
        allocate_global_budget(
            shard_filters, budget, shard_dists, weights, b=plan_b
        )
        plans = []
        for filters, sdist in zip(shard_filters, shard_dists):
            stats = evaluate_ranges(plan.cut_points, filters, sdist, plan_b)
            recall = average_recall(stats)
            plans.append(IndexPlan(
                cut_points=list(plan.cut_points),
                delta=plan.delta,
                filters=filters,
                expected_recall=recall,
                expected_precision=plan.expected_precision,
                b=plan.b,
                met_target=recall >= recall_target,
            ))
    else:
        weights = [
            len(ss) / max(1, len(sets)) for ss in shard_sets
        ]
        plans = [plan] * n_shards
        shard_dists = [dist] * n_shards

    shard_entries: list[dict] = []
    for i in range(n_shards):
        entry: dict = {
            "dir": f"shard-{i:03d}",
            "n_sets": len(shard_sets[i]),
            "weight": round(float(weights[i]), 6),
            "tables": plans[i].tables_used,
            "expected_recall": round(plans[i].expected_recall, 6),
            "filters": [
                {"point": f.point, "kind": f.kind, "n_tables": f.n_tables}
                for f in plans[i].filters
            ],
        }
        if not shard_sets[i]:
            # An empty shard contributes nothing to any query; there is
            # no snapshot to build and scatter-gather skips it.
            entry["empty"] = True
            shard_entries.append(entry)
            continue
        index = SetSimilarityIndex.from_plan(
            shard_sets[i], plans[i], shard_dists[i],
            k=k, b=b, seed=seed, codec=codec,
        )
        shard_dir = out / entry["dir"]
        save_snapshot(index.freeze(), shard_dir)
        entry["manifest_crc32"] = zlib.crc32(
            (shard_dir / MANIFEST_FILE).read_bytes()
        )
        shard_entries.append(entry)

    routing_meta = None
    if routing:
        routing_meta, routing_arrays = build_routing(
            shard_sets, seed=seed, sig_scheme=spec.generator
        )
        routing_meta["arrays"] = (
            write_arrays(out / ROUTING_FILE, routing_arrays)
            if routing_arrays else {}
        )

    sidmap_specs = write_arrays(out / SIDMAP_FILE, {
        f"shard{i:03d}_sids": np.asarray(shard_gsids[i], dtype=np.int64)
        for i in range(n_shards)
    })
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n_shards": n_shards,
        "n_sets": len(sets),
        "partition": {"method": partition, "seed": seed},
        "tune": tune,
        "build": {
            "budget": budget, "recall_target": recall_target,
            "k": k, "b": b, "seed": seed, "sample_pairs": sample_pairs,
            "codec": spec.name,
        },
        "global_plan": {
            "cut_points": list(plan.cut_points),
            "delta": plan.delta,
            "tables_used": plan.tables_used,
            "expected_recall": round(plan.expected_recall, 6),
        },
        "sidmap": sidmap_specs,
        "routing": routing_meta,
        "shards": shard_entries,
        "build_seconds": round(time.perf_counter() - t0, 3),
    }
    _write_manifest(out, manifest)
    return manifest


def _write_manifest(out: Path, manifest: dict) -> None:
    """Atomic shard-manifest (re)write: a crashed build or replicate
    never leaves an openable half-written directory (snapfile
    discipline)."""
    payload = json.dumps(manifest, indent=2).encode()
    fd, tmp_path = tempfile.mkstemp(dir=out, prefix=".shard_manifest-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_path, out / SHARD_MANIFEST_FILE)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def replicate_shards(
    path,
    top: int = 1,
    copies: int = 2,
    workload=None,
    workload_range: tuple[float, float] = (0.5, 1.0),
) -> dict:
    """Clone the ``top`` hottest shards to ``copies`` total replicas.

    Shard heat is the manifest's per-shard ``weight`` (set-count share
    for mirror builds, estimated answer mass for workload-tuned
    builds); passing a ``workload`` list of query sets re-estimates the
    weights against the current collection via
    :func:`estimate_workload_weights` first and persists them.  Each
    clone is a byte-for-byte ``copytree`` of the shard snapshot
    directory (``shard-XXX-rNN``), recorded in the entry's
    ``replicas`` list, and the manifest is rewritten atomically --
    re-running is idempotent.  Returns the updated manifest.

    Replicas serve reads only: :class:`ShardedExecutor` gives each
    dispatch to the copy with the fewest dispatches so far, and because
    clones are crc-verified identical at open, the pick can never
    change an answer.
    """
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    if copies < 2:
        raise ValueError(f"copies must be >= 2, got {copies}")
    sharded = open_sharded(path)
    path = Path(path)
    manifest = sharded.manifest
    entries = manifest["shards"]
    if workload is not None:
        build = manifest.get("build", {})
        sets: list[frozenset] = [frozenset()] * sharded.n_sets
        assignment = np.zeros(sharded.n_sets, dtype=np.int64)
        for i in sharded.live_shards:
            snap = sharded.shards[i]
            gsids = sharded.global_sids[i]
            for row, sid in enumerate(snap.sids):
                gsid = int(gsids[row])
                sets[gsid] = snap.sets[sid]
                assignment[gsid] = i
        weights = estimate_workload_weights(
            sets, assignment, sharded.n_shards, workload, *workload_range,
            k=min(int(build.get("k", 32)), 32), b=int(build.get("b", 6)),
            seed=int(build.get("seed", 0)),
            codec=build["codec"],
        )
        for entry, weight in zip(entries, weights):
            entry["weight"] = round(float(weight), 6)
    live = [i for i in sharded.live_shards]
    live.sort(key=lambda i: (-entries[i]["weight"], i))
    hot = live[:top]
    for i in hot:
        entry = entries[i]
        src = path / entry["dir"]
        replicas = []
        for c in range(1, copies):
            name = f"{entry['dir']}-r{c:02d}"
            dst = path / name
            if dst.exists():
                shutil.rmtree(dst)
            shutil.copytree(src, dst)
            replicas.append(name)
        entry["replicas"] = replicas
    _write_manifest(path, manifest)
    return manifest


# -- open / verify ---------------------------------------------------------


def is_sharded(path) -> bool:
    """Whether ``path`` is a sharded-index directory (shard manifest)."""
    try:
        return (Path(path) / SHARD_MANIFEST_FILE).is_file()
    except OSError:
        return False


class ShardedSnapshot:
    """An opened K-shard directory: per-shard mapped snapshots plus the
    local-sid -> global-sid maps.  ``shards[i]`` is None for an empty
    shard.  ``routing`` is the decoded
    :class:`~repro.exec.route.RoutingInfo` (None on ``routing=False``
    builds); ``replicas[i]`` lists the extra opened
    snapshot copies of a replicated shard (the primary is not in the
    list).  ``cost`` is the one :class:`~repro.storage.iomodel.IOCostModel`
    the fleet was built under: every shard and replica view charges it,
    so a sharded batch has one I/O bracket and its trace one counter
    set, whichever shard a span ran against."""

    def __init__(self, path, manifest: dict, shards: list,
                 global_sids: list[np.ndarray], routing=None,
                 replicas: dict | None = None):
        self.path = Path(path)
        self.manifest = manifest
        self.shards = shards
        self.global_sids = global_sids
        self.routing = routing
        self.replicas = replicas or {}
        views = [s for s in shards if s is not None]
        views += [r for copies in self.replicas.values() for r in copies]
        self.cost = views[0].cost if views else IOCostModel()
        for view in views:
            view.cost = self.cost

    @property
    def n_shards(self) -> int:
        return int(self.manifest["n_shards"])

    @property
    def n_sets(self) -> int:
        return int(self.manifest["n_sets"])

    @property
    def live_shards(self) -> list[int]:
        """Indices of the non-empty shards (the ones that get probed)."""
        return [i for i, s in enumerate(self.shards) if s is not None]

    def __repr__(self) -> str:
        return (
            f"ShardedSnapshot(path={str(self.path)!r}, "
            f"n_shards={self.n_shards}, n_sets={self.n_sets})"
        )


def open_sharded(path, verify: bool = False) -> "ShardedSnapshot":
    """Open a sharded directory written by :func:`build_sharded`.

    Always checks the format header, each shard's recorded snapshot
    -manifest crc32, and the sid-map structure (every global sid in
    exactly one shard); ``verify=True`` additionally checksums every
    mapped array of every shard (reads all bytes).
    """
    from repro.exec.snapfile import (
        MANIFEST_FILE,
        SnapshotError,
        open_arrays,
        open_snapshot,
    )

    path = Path(path)
    manifest_path = path / SHARD_MANIFEST_FILE
    if not manifest_path.is_file():
        raise ShardError(f"{path} has no {SHARD_MANIFEST_FILE}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ShardError(f"unreadable shard manifest at {path}: {exc}") from exc
    if manifest.get("format") != FORMAT_NAME:
        raise ShardError(
            f"{path} is not a sharded index "
            f"(format={manifest.get('format')!r})"
        )
    if manifest.get("version") != FORMAT_VERSION:
        raise ShardError(
            f"{path} has shard-manifest version {manifest.get('version')!r}; "
            f"this build reads only version {FORMAT_VERSION} -- rebuild it"
        )
    # An unknown tag fails loudly with the snapshot layer's typed error
    # before any shard bytes are interpreted.
    from repro.core.codec import CodecError, parse_codec
    from repro.exec.snapfile import SnapshotFormatError

    codec_tag = manifest.get("build", {}).get("codec")
    try:
        parse_codec(codec_tag)
    except CodecError as exc:
        raise SnapshotFormatError(
            f"{path} uses unsupported signature codec {codec_tag!r}: {exc}"
        ) from exc
    n_shards = int(manifest["n_shards"])
    entries = manifest["shards"]
    if len(entries) != n_shards:
        raise ShardError(
            f"manifest names {len(entries)} shards but n_shards={n_shards}"
        )
    sidmap = open_arrays(path / SIDMAP_FILE, manifest["sidmap"], verify=verify)
    shards: list = []
    global_sids: list[np.ndarray] = []
    replicas: dict[int, list] = {}
    for i, entry in enumerate(entries):
        gsids = sidmap.get(f"shard{i:03d}_sids")
        if gsids is None:
            raise ShardError(f"sid map missing shard {i}")
        global_sids.append(np.asarray(gsids, dtype=np.int64))
        if entry.get("empty"):
            if len(gsids) != 0:
                raise ShardError(
                    f"shard {i} marked empty but maps {len(gsids)} sids"
                )
            shards.append(None)
            continue
        shard_dir = path / entry["dir"]
        try:
            crc = zlib.crc32((shard_dir / MANIFEST_FILE).read_bytes())
        except OSError as exc:
            raise ShardError(f"shard {i}: {exc}") from exc
        if crc != entry.get("manifest_crc32"):
            raise ShardError(
                f"shard {i} manifest checksum mismatch: {shard_dir} does "
                "not match the shard manifest (corrupt or replaced)"
            )
        try:
            snap = open_snapshot(shard_dir, verify=verify)
        except SnapshotError as exc:
            raise ShardError(f"shard {i}: {exc}") from exc
        if snap.n_sets != len(gsids):
            raise ShardError(
                f"shard {i} holds {snap.n_sets} sets but maps "
                f"{len(gsids)} global sids"
            )
        shards.append(snap)
        for name in entry.get("replicas", ()):
            replica_dir = path / name
            try:
                crc = zlib.crc32((replica_dir / MANIFEST_FILE).read_bytes())
            except OSError as exc:
                raise ShardError(f"shard {i} replica {name}: {exc}") from exc
            if crc != entry.get("manifest_crc32"):
                # A replica that drifted from its primary could change
                # answers depending on which copy serves a dispatch.
                raise ShardError(
                    f"shard {i} replica {name} is not identical to its "
                    "primary (manifest checksum mismatch)"
                )
            try:
                replicas.setdefault(i, []).append(
                    open_snapshot(replica_dir, verify=verify)
                )
            except SnapshotError as exc:
                raise ShardError(f"shard {i} replica {name}: {exc}") from exc
    merged = (
        np.concatenate([g for g in global_sids if len(g)])
        if any(len(g) for g in global_sids) else np.empty(0, dtype=np.int64)
    )
    if len(merged) != manifest["n_sets"] or (
        len(merged) and (
            sorted_unique(merged).size != len(merged)
            or int(merged.min()) != 0
            or int(merged.max()) != len(merged) - 1
        )
    ):
        raise ShardError(
            "sid map is not a partition of the collection: "
            f"{len(merged)} mapped sids for {manifest['n_sets']} sets"
        )
    try:
        routing = load_routing(path, manifest, verify=verify)
    except (OSError, KeyError, SnapshotError) as exc:
        raise ShardError(f"unreadable routing summaries: {exc}") from exc
    return ShardedSnapshot(
        path, manifest, shards, global_sids,
        routing=routing, replicas=replicas,
    )


def verify_sharded(path) -> dict:
    """Full integrity pass: shard-manifest checks plus a crc32 of every
    array in every shard snapshot.  Returns a summary dict; raises
    :class:`ShardError` / snapshot errors on any mismatch."""
    from repro.exec.snapfile import verify_snapshot

    sharded = open_sharded(path, verify=True)
    arrays = 0
    array_bytes = 0
    for i in sharded.live_shards:
        summary = verify_snapshot(sharded.path / sharded.manifest["shards"][i]["dir"])
        arrays += summary["n_arrays"]
        array_bytes += summary["arrays_bytes"]
    return {
        "n_shards": sharded.n_shards,
        "n_sets": sharded.n_sets,
        "live_shards": len(sharded.live_shards),
        "n_arrays": arrays,
        "arrays_bytes": array_bytes,
        "tune": sharded.manifest["tune"],
        "routing": sharded.routing is not None,
        "n_replicas": sum(len(r) for r in sharded.replicas.values()),
    }


# -- scatter-gather execution ----------------------------------------------


class ShardedExecutor:
    """Scatter-gather ``query``/``query_batch`` over a fleet of shards.

    A sharded batch is the one query pipeline
    (:func:`repro.exec.pipeline.run_batch`) run shard by shard, in
    shard order, on the calling thread -- every shard's view on the
    fleet's **one** scheduler (a :class:`~repro.exec.parallel.WorkerPool`:
    no pool at all on the thread backend, one ``workers``-wide process
    pool on the process backend) -- from one prepared batch (hashed
    once, and embedded once when a shard will probe: every shard
    shares ``k``, ``b``, seed and codec) that the router and every
    shard's stages read -- and merged deterministically:

    - per-query answers are mapped local->global sid and re-sorted
      best-first (sid ties ascending) -- exactly the order
      ``in_range_answers`` gives every unsharded verification path;
    - candidates are the union of mapped per-shard candidates: every
      shard's candidate CSR mapped through its ``global_sids`` in one
      gather, concatenated and sort-uniqued into the batch's CSR;
    - IOStats, ``pages_saved``/``fetches_saved`` and per-phase timings
      are integer/float sums over shards (order-independent);
    - per-shard runs skip the query-level telemetry (``record=False``)
      and this class emits one merged ``record_query`` + ``query.*``
      update, so a sharded batch counts every query once.

    On a mirror-built manifest the merged batch is bit-identical to
    the unsharded ``query_batch`` (see the module docstring); on a
    workload-tuned manifest answers remain exact-verified but the
    candidate funnel is per-shard.

    ``workers`` sizes the fleet's one process pool, whatever the shard
    and replica counts (on the thread backend it is ignored and
    :attr:`workers` reads 1); every worker process maps every shard and
    replica directory, so any worker serves any shard.

    ``route`` selects the shard-routing mode
    (:mod:`repro.exec.route`), applied when the manifest carries
    routing summaries and ``strategy`` resolves to the index path:

    - ``"full"`` -- no routing; every shard gets every query.
    - ``"safe"`` (default) -- every shard is still dispatched (probes
      are unchanged, so candidates stay bit-identical to full
      fan-out), but (query, shard) pairs whose sound Jaccard upper
      bound falls below ``sigma_low`` skip fetch + exact verification.
      Answers are bit-identical to full fan-out: a pruned pair
      provably holds no in-range answer.
    - ``"sketch"`` -- pruned pairs are dropped from the dispatch
      itself (a shard with no surviving query is not contacted), and
      the MinHash universe profile tightens the bound further.
      Estimated, not proven: its recall is measured by
      ``tests/test_route.py::test_sketch_recall_measured_on_overlapping_clusters``.

    When a shard has replicas (:func:`replicate_shards`) they are
    extra views of it and each dispatch goes to the copy with the
    fewest dispatches so far; replicas are crc-verified identical, so
    the pick never changes an answer, only which mmap serves it.  Like
    every executor this one answers one batch at a time (a batch
    brackets the fleet's shared cost model), so nothing here locks.

    Telemetry lands under ``metric_prefix`` (default ``"shard"``; the
    query server uses ``"serve.shard"``): per-shard batch-latency HDRs
    and candidate counters, a routed-subqueries counter, a skew gauge
    (slowest/mean shard wall per batch) and ``route.*`` counters
    (``subqueries_pruned``, ``shards_skipped``,
    ``replica_dispatches``).
    """

    def __init__(self, sharded: ShardedSnapshot, workers: int = 1,
                 backend: str = "thread", metric_prefix: str = "shard",
                 route: str = "safe"):
        if route not in ("full", "safe", "sketch"):
            raise ValueError(f"unknown route mode: {route!r}")
        self.sharded = sharded
        self.backend = backend
        self.metric_prefix = metric_prefix
        self.route = route
        self._router = (
            ShardRouter(sharded.routing)
            if route != "full" and sharded.routing is not None else None
        )
        #: False when ``route`` asked for routing but the manifest has
        #: no summaries (``routing=False`` builds) -- execution falls back to full
        #: fan-out and ``exec_stats["route"]["active"]`` says so.
        self.route_active = self._router is not None
        self._closed = False
        self._live = sharded.live_shards
        #: Each live shard's views: the primary, then its replicas.
        self._views = {
            i: [sharded.shards[i], *sharded.replicas.get(i, ())]
            for i in self._live
        }
        self._dispatches = {
            i: [0] * len(views) for i, views in self._views.items()
        }
        self._sched = WorkerPool(workers, backend, paths=[
            view.path for views in self._views.values() for view in views
        ])
        self.workers = self._sched.workers
        self._m_batches = metrics.counter(f"{metric_prefix}.batches")
        self._m_routed = metrics.counter(f"{metric_prefix}.routed_subqueries")
        self._m_skew = metrics.gauge(f"{metric_prefix}.wall_skew")
        self._m_pruned = metrics.counter(
            f"{metric_prefix}.route.subqueries_pruned"
        )
        self._m_skipped = metrics.counter(
            f"{metric_prefix}.route.shards_skipped"
        )
        self._m_replica_dispatches = metrics.counter(
            f"{metric_prefix}.route.replica_dispatches"
        )
        self._m_latency = {
            i: metrics.hdr(f"{metric_prefix}.{i:02d}.batch_ms")
            for i in self._live
        }
        self._m_candidates = {
            i: metrics.counter(f"{metric_prefix}.{i:02d}.candidates")
            for i in self._live
        }

    def close(self) -> None:
        self._closed = True
        self._sched.close()

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- public API --------------------------------------------------------

    def query_batch(self, queries, sigma_low: float, sigma_high: float,
                    strategy: str = "index",
                    explain: bool = False) -> BatchQueryResult:
        """Scatter one batch to every live shard and merge.

        Parameters and result semantics match
        :meth:`~repro.exec.parallel.ParallelExecutor.query_batch`;
        ``strategy="auto"`` is resolved per shard (each shard weighs
        its own scan cost).
        """
        return self._run_batch(
            "sharded_query_batch", queries, sigma_low, sigma_high,
            strategy, explain,
        )

    def query(self, query, sigma_low: float, sigma_high: float,
              strategy: str = "index", explain: bool = False) -> QueryResult:
        """The one-row batch, recorded as a single ``"query"`` like
        :meth:`repro.core.index.SetSimilarityIndex.query`."""
        return self._run_batch(
            "query", [query], sigma_low, sigma_high, strategy, explain
        ).only()

    # -- internals ---------------------------------------------------------

    def _run_batch(self, kind, queries, sigma_low, sigma_high, strategy,
                   explain) -> BatchQueryResult:
        """Route, scatter, merge and record one batch; ``kind`` names
        its telemetry event."""
        if self._closed:
            raise ShardError("sharded executor is closed")
        if not 0.0 <= sigma_low <= sigma_high <= 1.0:
            raise ValueError(
                f"invalid similarity range [{sigma_low}, {sigma_high}]"
            )
        if strategy not in ("index", "scan", "auto"):
            raise ValueError(f"unknown strategy: {strategy!r}")
        query_sets = [frozenset(q) for q in queries]
        n = len(query_sets)
        wall0 = time.perf_counter()
        prepared = self._prepare(query_sets, sigma_low, sigma_high, strategy)
        prepare_seconds = time.perf_counter() - wall0
        # Routing applies to the index path only: "scan" reads every
        # heap page regardless, and "auto" may resolve to scan per
        # shard, so both fan out in full.
        decision = None
        route_seconds = 0.0
        if self._router is not None and strategy == "index" and self._live:
            route0 = time.perf_counter()
            decision = self._router.route(
                query_sets, sigma_low, self._live,
                sketch=(self.route == "sketch"), hashes=prepared.hashes,
            )
            route_seconds = time.perf_counter() - route0
        with trace.capture(
            "sharded_query_batch",
            io=self.sharded.cost,
            force=explain,
            n_shards=self.sharded.n_shards,
            live_shards=len(self._live),
            workers=self.workers,
            backend=self.backend,
            strategy=strategy,
            route=self.route,
            sigma_low=sigma_low,
            sigma_high=sigma_high,
            n_queries=n,
        ) as root:
            shard_batches = self._scatter(
                query_sets, sigma_low, sigma_high, strategy, explain,
                decision, prepared,
            )
            merge0 = time.perf_counter()
            batch = self._merge(shard_batches, n)
            merge_seconds = time.perf_counter() - merge0
            batch.trace = root
            batch.exec_stats = self._exec_stats(
                shard_batches, strategy, wall0, merge_seconds,
                decision, route_seconds, prepare_seconds,
            )
            if batch.timings is not None and "embed" in batch.timings:
                batch.timings["embed"] += prepare_seconds * 1e3
            if decision is not None:
                batch.timings["route"] = route_seconds * 1e3
            if root is not None:
                root.set(
                    n_candidates=batch.n_candidates,
                    n_verified=batch.n_verified,
                    pages_saved=batch.pages_saved,
                    fetches_saved=batch.fetches_saved,
                    merge_ms=round(merge_seconds * 1e3, 3),
                )
                if decision is not None:
                    root.set(
                        route_mode=decision.mode,
                        route_pruned_subqueries=decision.pruned_pairs,
                        route_skipped_shards=len(decision.skipped_shards()),
                    )
        self._record(kind, batch, shard_batches, n, wall0,
                     sigma_low, sigma_high, strategy, decision)
        return batch

    def _prepare(self, query_sets, sigma_low, sigma_high, strategy):
        """The batch hashed once and, when some shard will probe,
        embedded once (:func:`~repro.exec.pipeline.prepare_batch`):
        every shard shares ``k``, ``b``, seed and codec, so one
        embedding serves the whole fleet."""
        views = [self._views[i][0] for i in self._live]
        embed = strategy != "scan" and any(
            view.plan_probes(sigma_low, sigma_high)[1] for view in views
        )
        embedder = views[0].embedder if views else None
        return prepare_batch(embedder, query_sets, embed=embed)

    def _scatter(self, query_sets, sigma_low, sigma_high, strategy, explain,
                 decision, prepared):
        """Run the batch on every dispatched shard, in shard order, each
        from the one ``prepared`` batch (sliced by rows under sketch
        routing); returns ``{shard: (batch, seconds, rows)}`` where
        ``rows`` lists the global query rows a sub-batch covers (None =
        the whole batch, in order).  Each shard's root span nests under
        the caller's trace, tagged ``shard=``."""
        n = len(query_sets)
        shard_batches = {}
        for i in self._live:
            queries, rows, vrows, shard_prepared = (
                query_sets, None, None, prepared
            )
            if decision is not None:
                kept = decision.kept.get(i, [])
                if decision.mode != "sketch":
                    # safe: dispatch everything, mask pruned verifies
                    vrows = None if len(kept) == n else kept
                elif not kept:
                    continue  # shard not contacted at all
                elif len(kept) < n:
                    queries, rows = [query_sets[r] for r in kept], kept
                    shard_prepared = prepared.take(kept)
            view = self._pick(i)
            t0 = time.perf_counter()
            try:
                sbatch = run_batch(
                    view, self._sched, "query_batch", queries, sigma_low,
                    sigma_high, strategy, explain, vrows, record=False,
                    prepared=shard_prepared,
                )
            except Exception as exc:
                raise ShardError(f"shard {i} failed: {exc}") from exc
            if sbatch.trace is not None:
                sbatch.trace.set(shard=i)
            shard_batches[i] = (sbatch, time.perf_counter() - t0, rows)
        return shard_batches

    def _pick(self, i: int):
        """The view serving this dispatch of shard ``i``: of its
        identical copies, the one with the fewest dispatches so far."""
        counts = self._dispatches[i]
        slot = counts.index(min(counts))
        counts[slot] += 1
        if len(counts) > 1:
            self._m_replica_dispatches.inc()
        return self._views[i][slot]

    def replica_dispatch_counts(self) -> dict:
        """Per-replica dispatch counts of replicated shards (slot 0 is
        the primary) -- the load-balance evidence."""
        return {
            i: list(counts)
            for i, counts in self._dispatches.items() if len(counts) > 1
        }

    def _merge(self, shard_batches, n: int) -> BatchQueryResult:
        """Deterministic merge; see the class docstring for semantics."""
        merged_answers: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        cand_rows: list[np.ndarray] = []
        cand_sids: list[np.ndarray] = []
        io = IOStats()
        pages_saved = 0
        fetches_saved = 0
        timings: dict[str, float] = {}
        for i, (sbatch, _, rows) in sorted(shard_batches.items()):
            gsids = self.sharded.global_sids[i]
            indptr, sids = sbatch.candidate_csr
            local_rows = csr_rows(indptr)
            cand_rows.append(
                local_rows if rows is None
                else np.asarray(rows, dtype=np.int64)[local_rows]
            )
            cand_sids.append(gsids[sids])
            row_of = rows if rows is not None else range(len(sbatch.results))
            for q, result in zip(row_of, sbatch.results):
                if result.answers:
                    merged_answers[q].extend(
                        (int(gsids[sid]), sim) for sid, sim in result.answers
                    )
            io = io + sbatch.io
            pages_saved += sbatch.pages_saved
            fetches_saved += sbatch.fetches_saved
            for phase, ms in (sbatch.timings or {}).items():
                timings[phase] = timings.get(phase, 0.0) + ms
        for answers in merged_answers:
            # The engine-wide answer order (``in_range_answers``):
            # best-first, sid ties ascending.  Shard-local sims of a
            # pair equal the global path's (same IEEE jaccard), so
            # re-sorting the mapped union reproduces the unsharded
            # ordering exactly.
            answers.sort(key=lambda pair: (-pair[1], pair[0]))
        empty = [np.empty(0, dtype=np.int64)]
        candidates = pairs_csr(
            np.concatenate(empty + cand_rows),
            np.concatenate(empty + cand_sids),
            n,
        )
        return assemble_batch(
            None, self.sharded.cost, io, merged_answers, candidates,
            pages_saved, fetches_saved, timings,
        )

    def _exec_stats(self, shard_batches, strategy, wall0, merge_seconds,
                    decision, route_seconds, prepare_seconds):
        # Live shards routing skipped entirely report a 0.0 wall: the
        # fleet did no work for them this batch.
        shard_walls = {i: 0.0 for i in self._live}
        shard_walls.update({
            i: seconds for i, (_, seconds, _) in sorted(shard_batches.items())
        })
        # The batch was hashed and embedded once, before the scatter.
        stage_seconds: dict[str, float] = {"embed": prepare_seconds}
        for _, (sbatch, _, _) in sorted(shard_batches.items()):
            for stage, seconds in (
                (sbatch.exec_stats or {}).get("stage_seconds", {}).items()
            ):
                stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
        stats = {
            "sharded": True,
            "n_shards": self.sharded.n_shards,
            "live_shards": len(self._live),
            "workers": self.workers,
            "backend": self.backend,
            "strategy": strategy,
            "wall_seconds": time.perf_counter() - wall0,
            "merge_seconds": merge_seconds,
            "shard_wall_seconds": dict(sorted(shard_walls.items())),
            "stage_seconds": stage_seconds,
            "tasks": [
                dict(task, shard=i)
                for i, (sbatch, _, _) in sorted(shard_batches.items())
                for task in sbatch.exec_stats["tasks"]
            ],
            "shards": {
                i: {
                    "wall_seconds": sbatch.exec_stats["wall_seconds"],
                    "n_candidates": sbatch.n_candidates,
                    "n_verified": sbatch.n_verified,
                }
                for i, (sbatch, _, _) in sorted(shard_batches.items())
            },
        }
        # The fleet's verify counts, under the names every path uses
        # (shards hold disjoint sets, so their distinct counts add).
        verify_infos = [
            sbatch.exec_stats for sbatch, _, _ in shard_batches.values()
            if "verify_kernel" in (sbatch.exec_stats or {})
        ]
        if verify_infos:
            stats.update(merge_verify_info(verify_infos))
        stats["route"] = {
            "mode": self.route,
            "active": decision is not None,
            "route_seconds": route_seconds,
            "subqueries_pruned": decision.pruned_pairs if decision else 0,
            "shards_skipped": len(self._live) - len(shard_batches),
            "replicas": self.replica_dispatch_counts(),
        }
        return stats

    def _record(self, kind, batch, shard_batches, n, wall0,
                sigma_low, sigma_high, strategy, decision=None) -> None:
        """One merged telemetry record per sharded batch (the per-shard
        runs were ``record=False``), plus the ``metric_prefix`` fleet
        instruments."""
        walls = []
        dispatched_subqueries = 0
        for i, (sbatch, seconds, rows) in shard_batches.items():
            self._m_latency[i].observe(seconds * 1e3)
            self._m_candidates[i].inc(sbatch.n_candidates)
            walls.append(seconds)
            dispatched_subqueries += len(rows) if rows is not None else n
        self._m_batches.inc()
        self._m_routed.inc(dispatched_subqueries)
        n_skipped = len(self._live) - len(shard_batches)
        if decision is not None:
            self._m_pruned.inc(decision.pruned_pairs)
            self._m_skipped.inc(n_skipped)
        if walls:
            mean = sum(walls) / len(walls)
            self._m_skew.set(max(walls) / mean if mean > 0 else 1.0)
        _SHARD_BATCHES.inc()
        event_timings = dict(batch.timings or {})
        if decision is not None:
            # Routing decisions ride the event's free-form timings
            # payload (the schema's fixed fields stay fixed).
            event_timings["route_pruned_subqueries"] = float(
                decision.pruned_pairs
            )
            event_timings["route_skipped_shards"] = float(n_skipped)
        record_batch(
            kind,
            batch,
            wall0,
            cache_hits=0,
            backend=self.backend,
            workers=self.workers,
            strategy=strategy,
            sigma_low=sigma_low,
            sigma_high=sigma_high,
            timings=event_timings,
        )

    def __repr__(self) -> str:
        return (
            f"ShardedExecutor(shards={self.sharded.n_shards}, "
            f"workers={self.workers}, backend={self.backend!r})"
        )
