"""Sharded scatter-gather execution over independent mmap snapshots.

One snapshot per process caps throughput at a single index's
probe/verify path.  This module splits a collection into ``K`` shards
and serves it as one *fleet*, and there is one fleet shape:

* **Hash-partitioned.**  A set's shard is a stable content fingerprint
  of its elements modulo ``K`` -- independent of input order and
  ``PYTHONHASHSEED``, so rebuilds and permutations place every set
  alike.
* **Mirror-built.**  Every shard materializes the **same** global plan
  with the same build seed, through the bulk pipeline, and is persisted
  as its own :mod:`~repro.exec.snapfile` snapshot under a checksummed
  *shard manifest*.  A set's membership in a bucket is
  ``hash_key(sampled query bits) == hash_key(sampled set bits)``, which
  depends only on the plan's samplers (seeded ``seed + 7919 * (offset
  + 1)`` per filter) and never on bucket counts or which shard holds
  the set.  The union of per-shard candidates is therefore *exactly*
  the unsharded candidate set -- fingerprint-collision false positives
  included -- and with exact verification on top, a merged batch is
  bit-identical (similarities, candidates, ordering) to the unsharded
  engine's at any K, worker count and backend.
* **Safe-routed.**  Builds persist per-shard routing summaries
  (:mod:`repro.exec.route`: set-size range and an element-universe
  bitset), checked against their shards at open.  Every live shard
  runs every batch; a (query, shard) pair whose sound Jaccard upper
  bound falls below ``sigma_low`` skips fetch and exact verification,
  which provably loses no answer.

:class:`ShardedExecutor` answers a batch by running the one query
pipeline (:func:`repro.exec.pipeline.run_batch`) over each shard's view
in turn, on the caller's thread and on the fleet's one scheduler (a
:class:`~repro.exec.parallel.WorkerPool`: inline on the thread backend,
or one process pool sized by ``workers`` whatever K is), and merges the
verified answers, per-phase timings and IOStats.  The sharded path
differs from the unsharded one by a router, a sid map and a sort.
"""

from __future__ import annotations

import json
import os
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
from repro.core.minhash import hash_rows
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
    RoutingError,
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
#: v5: one fleet shape -- no ``tune`` key and no per-shard plan
#: (every shard runs ``global_plan``, which lists its filters); the
#: ``routing`` block is required and holds size ranges and bitsets
#: only.  Shard snapshots are at snapshot format 7.  The only version
#: read; rebuild older directories.
FORMAT_VERSION = 5

_SHARD_BATCHES = metrics.counter("exec.shard_batches")


class ShardError(RuntimeError):
    """Sharded-manifest problem: format, integrity or usage."""


def _only(name: str, value: str, allowed: str) -> None:
    """Reject any value but the one fleet shape's for a kept keyword."""
    if value != allowed:
        raise ValueError(
            f"unknown {name}: {value!r} (a fleet is only {allowed!r})"
        )


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


def partition_sets(sets, n_shards: int, seed: int = 0) -> np.ndarray:
    """Assign every set to exactly one shard; returns shape-(N,) int64:
    its content fingerprint modulo ``n_shards`` -- stable under input
    permutation and across rebuilds."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    sets = [s if isinstance(s, frozenset) else frozenset(s) for s in sets]
    return (set_fingerprints(sets, seed) % np.uint64(n_shards)).astype(
        np.int64
    )


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
    plan=None,
    dist=None,
    codec: str = "full64",
) -> dict:
    """Partition, build and persist a K-shard fleet under ``out``.

    One global distribution estimate and one global plan (reused via
    ``plan=``/``dist=`` when the caller already built the unsharded
    index from the same parameters -- the plan is deterministic, so
    passing it only skips recomputation).  Every shard is built through
    the bulk pipeline from that plan -- identical cut points and build
    seed, hence identical samplers, in every shard.  ``partition`` and
    ``tune`` accept only ``"hash"`` and ``"mirror"``, the one fleet
    shape.  Returns the written manifest.
    """
    from repro.core.codec import parse_codec
    from repro.core.distribution import SimilarityDistribution
    from repro.core.index import SetSimilarityIndex
    from repro.core.optimizer import plan_index
    from repro.exec.snapfile import MANIFEST_FILE, save_snapshot, write_arrays

    _only("partition method", partition, "hash")
    _only("tune mode", tune, "mirror")
    spec = parse_codec(codec)
    sets = [s if isinstance(s, frozenset) else frozenset(s) for s in sets]
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    if dist is None:
        dist = SimilarityDistribution.from_sets(
            sets, sample_pairs=sample_pairs, seed=seed
        )
    if plan is None:
        plan = plan_index(dist, budget, recall_target=recall_target, b=b)
    assignment = partition_sets(sets, n_shards, seed=seed)
    shard_sets: list[list[frozenset]] = [[] for _ in range(n_shards)]
    shard_gsids: list[list[int]] = [[] for _ in range(n_shards)]
    for gsid, (s, a) in enumerate(zip(sets, assignment)):
        shard_sets[int(a)].append(s)
        shard_gsids[int(a)].append(gsid)

    shard_entries: list[dict] = []
    for i, ss in enumerate(shard_sets):
        entry: dict = {"dir": f"shard-{i:03d}", "n_sets": len(ss)}
        shard_entries.append(entry)
        if not ss:
            # An empty shard contributes nothing to any query; there is
            # no snapshot to build and scatter-gather skips it.
            entry["empty"] = True
            continue
        index = SetSimilarityIndex.from_plan(
            ss, plan, dist, k=k, b=b, seed=seed, codec=codec,
        )
        shard_dir = out / entry["dir"]
        save_snapshot(index.freeze(), shard_dir)
        entry["manifest_crc32"] = zlib.crc32(
            (shard_dir / MANIFEST_FILE).read_bytes()
        )

    routing_meta, routing_arrays = build_routing(shard_sets)
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
            "filters": [
                {"point": f.point, "kind": f.kind, "n_tables": f.n_tables}
                for f in plan.filters
            ],
        },
        "sidmap": sidmap_specs,
        "routing": routing_meta,
        "shards": shard_entries,
        "build_seconds": round(time.perf_counter() - t0, 3),
    }
    _write_manifest(out, manifest)
    return manifest


def _write_manifest(out: Path, manifest: dict) -> None:
    """Atomic shard-manifest write: a crashed build never leaves an
    openable half-written directory (snapfile discipline)."""
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
    shard.  ``routing`` is the decoded, checked
    :class:`~repro.exec.route.RoutingInfo`.  ``cost`` is the one
    :class:`~repro.storage.iomodel.IOCostModel` the fleet was built
    under: every shard view charges it, so a sharded batch has one I/O
    bracket and its trace one counter set, whichever shard a span ran
    against."""

    def __init__(self, path, manifest: dict, shards: list,
                 global_sids: list[np.ndarray], routing):
        self.path = Path(path)
        self.manifest = manifest
        self.shards = shards
        self.global_sids = global_sids
        self.routing = routing
        views = [s for s in shards if s is not None]
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
    -manifest crc32, the sid-map structure (every global sid in
    exactly one shard) and the routing block against the shards it
    summarizes (:func:`~repro.exec.route.load_routing`);
    ``verify=True`` additionally checksums every mapped array of every
    shard (reads all bytes).
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
        routing = load_routing(
            path, manifest.get("routing"),
            [None if s is None else s.set_sizes for s in shards],
            verify=verify,
        )
    except (OSError, SnapshotError, RoutingError) as exc:
        raise ShardError(f"invalid routing summaries: {exc}") from exc
    return ShardedSnapshot(path, manifest, shards, global_sids, routing)


def verify_sharded(path) -> dict:
    """Full integrity pass: shard-manifest and routing checks plus a
    crc32 of every array and the content checks of every shard snapshot
    (one verifying open each).  Returns a summary dict; raises
    :class:`ShardError` / snapshot errors on any mismatch."""
    sharded = open_sharded(path, verify=True)
    live = [sharded.shards[i].manifest for i in sharded.live_shards]
    return {
        "n_shards": sharded.n_shards,
        "n_sets": sharded.n_sets,
        "live_shards": len(live),
        "n_arrays": sum(len(m["arrays"]) for m in live),
        "arrays_bytes": sum(m["arrays_bytes"] for m in live),
    }


# -- scatter-gather execution ----------------------------------------------


class ShardedExecutor:
    """Scatter-gather ``query``/``query_batch`` over a fleet of shards.

    A sharded batch is the one query pipeline
    (:func:`repro.exec.pipeline.run_batch`) run on every live shard, in
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

    The merged batch is bit-identical to the unsharded engine's (see
    the module docstring).

    ``workers`` sizes the fleet's one process pool, whatever the shard
    count (on the thread backend it is ignored and :attr:`workers`
    reads 1); every worker process maps every shard directory, so any
    worker serves any shard.

    Routing (:mod:`repro.exec.route`) applies when ``strategy`` is
    ``"index"``: every live shard still runs the whole batch (probes
    are unchanged, so candidates stay bit-identical), but (query,
    shard) pairs whose sound Jaccard upper bound falls below
    ``sigma_low`` skip fetch and exact verification.  ``route`` accepts
    only ``"safe"``.  Like every executor this one answers one batch at
    a time (a batch brackets the fleet's shared cost model), so
    nothing here locks.

    Telemetry lands under ``metric_prefix`` (default ``"shard"``; the
    query server uses ``"serve.shard"``): per-shard batch-latency HDRs
    and candidate counters, a skew gauge (slowest/mean shard wall per
    batch) and the ``route.subqueries_pruned`` counter.
    """

    def __init__(self, sharded: ShardedSnapshot, workers: int = 1,
                 backend: str = "thread", metric_prefix: str = "shard",
                 route: str = "safe"):
        _only("route mode", route, "safe")
        self.sharded = sharded
        self.backend = backend
        self.metric_prefix = metric_prefix
        self._router = ShardRouter(sharded.routing)
        self._closed = False
        self._live = sharded.live_shards
        self._sched = WorkerPool(workers, backend, paths=[
            sharded.shards[i].path for i in self._live
        ])
        self.workers = self._sched.workers
        self._m_batches = metrics.counter(f"{metric_prefix}.batches")
        self._m_skew = metrics.gauge(f"{metric_prefix}.wall_skew")
        self._m_pruned = metrics.counter(
            f"{metric_prefix}.route.subqueries_pruned"
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
            "query_batch", queries, sigma_low, sigma_high,
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
        # shard, so both verify in full.
        decision = None
        route_seconds = 0.0
        if strategy == "index" and self._live:
            route0 = time.perf_counter()
            decision = self._router.route(
                query_sets, sigma_low, self._live, hashes=prepared.hashes,
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
                    root.set(route_pruned_subqueries=decision.pruned_pairs)
        self._record(kind, batch, shard_batches, wall0,
                     sigma_low, sigma_high, strategy, decision)
        return batch

    def _prepare(self, query_sets, sigma_low, sigma_high, strategy):
        """The batch hashed once and, when some shard will probe,
        embedded once (:func:`~repro.exec.pipeline.prepare_batch`):
        every shard shares ``k``, ``b``, seed and codec, so one
        embedding serves the whole fleet."""
        views = [self.sharded.shards[i] for i in self._live]
        embed = strategy != "scan" and any(
            view.plan_probes(sigma_low, sigma_high)[1] for view in views
        )
        embedder = views[0].embedder if views else None
        return prepare_batch(embedder, query_sets, embed=embed)

    def _scatter(self, query_sets, sigma_low, sigma_high, strategy, explain,
                 decision, prepared):
        """Run the whole batch on every live shard, in shard order, each
        from the one ``prepared`` batch, verifying only the rows the
        router kept for it; returns ``{shard: (batch, seconds)}``.  Each
        shard's root span nests under the caller's trace, tagged
        ``shard=``."""
        shard_batches = {}
        for i in self._live:
            vrows = None
            if decision is not None and len(decision.kept[i]) < len(query_sets):
                vrows = decision.kept[i]
            t0 = time.perf_counter()
            try:
                sbatch = run_batch(
                    self.sharded.shards[i], self._sched, "query_batch",
                    query_sets, sigma_low, sigma_high, strategy, explain,
                    vrows, record=False, prepared=prepared,
                )
            except Exception as exc:
                raise ShardError(f"shard {i} failed: {exc}") from exc
            if sbatch.trace is not None:
                sbatch.trace.set(shard=i)
            shard_batches[i] = (sbatch, time.perf_counter() - t0)
        return shard_batches

    def _merge(self, shard_batches, n: int) -> BatchQueryResult:
        """Deterministic merge; see the class docstring for semantics."""
        merged_answers: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        cand_rows: list[np.ndarray] = []
        cand_sids: list[np.ndarray] = []
        io = IOStats()
        pages_saved = 0
        fetches_saved = 0
        timings: dict[str, float] = {}
        for i, (sbatch, _) in sorted(shard_batches.items()):
            gsids = self.sharded.global_sids[i]
            indptr, sids = sbatch.candidate_csr
            cand_rows.append(csr_rows(indptr))
            cand_sids.append(gsids[sids])
            for answers, result in zip(merged_answers, sbatch.results):
                answers.extend(
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
        ordered = sorted(shard_batches.items())
        # The batch was hashed and embedded once, before the scatter.
        stage_seconds: dict[str, float] = {"embed": prepare_seconds}
        for _, (sbatch, _) in ordered:
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
            "shard_wall_seconds": {i: seconds for i, (_, seconds) in ordered},
            "stage_seconds": stage_seconds,
            "tasks": [
                dict(task, shard=i)
                for i, (sbatch, _) in ordered
                for task in sbatch.exec_stats["tasks"]
            ],
            "shards": {
                i: {
                    "wall_seconds": sbatch.exec_stats["wall_seconds"],
                    "n_candidates": sbatch.n_candidates,
                    "n_verified": sbatch.n_verified,
                }
                for i, (sbatch, _) in ordered
            },
        }
        # The fleet's verify counts, under the names every path uses
        # (shards hold disjoint sets, so their distinct counts add).
        verify_infos = [
            sbatch.exec_stats for _, (sbatch, _) in ordered
            if "verify_kernel" in (sbatch.exec_stats or {})
        ]
        if verify_infos:
            stats.update(merge_verify_info(verify_infos))
        stats["route"] = {
            "route_seconds": route_seconds,
            "subqueries_pruned": decision.pruned_pairs if decision else 0,
        }
        return stats

    def _record(self, kind, batch, shard_batches, wall0,
                sigma_low, sigma_high, strategy, decision) -> None:
        """One merged telemetry record per sharded batch (the per-shard
        runs were ``record=False``), plus the ``metric_prefix`` fleet
        instruments."""
        walls = []
        for i, (sbatch, seconds) in shard_batches.items():
            self._m_latency[i].observe(seconds * 1e3)
            self._m_candidates[i].inc(sbatch.n_candidates)
            walls.append(seconds)
        self._m_batches.inc()
        if walls:
            mean = sum(walls) / len(walls)
            self._m_skew.set(max(walls) / mean if mean > 0 else 1.0)
        _SHARD_BATCHES.inc()
        event_timings = dict(batch.timings or {})
        if decision is not None:
            # The routing decision rides the event's free-form timings
            # payload (the schema's fixed fields stay fixed).
            self._m_pruned.inc(decision.pruned_pairs)
            event_timings["route_pruned_subqueries"] = float(
                decision.pruned_pairs
            )
        record_batch(
            kind,
            batch,
            wall0,
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
