"""Command-line interface: build, query, explain and evaluate set indexes.

Usage (after ``pip install -e .``)::

    python -m repro.cli [-v] build   --input sets.txt --output index.d [options]
    python -m repro.cli query   --index index.d --set "a b c" --low 0.4 --high 0.9 [--explain]
    python -m repro.cli explain --index index.d --set "a b c" --low 0.4 --high 0.9 [--json]
    python -m repro.cli stats   --index index.d
    python -m repro.cli demo    [--n-sets 500]
    python -m repro.cli snapshot info   --path index.d
    python -m repro.cli snapshot verify --path index.d
    python -m repro.cli shard build  --input sets.txt --out fleet.d --shards 4
    python -m repro.cli shard info   --path fleet.d
    python -m repro.cli shard verify --path fleet.d
    python -m repro.cli stats   --shards fleet.d
    python -m repro.cli serve   --snapshot index.d [--port 7407 --workers N --backend process --max-batch 64]
    python -m repro.cli serve   --shards fleet.d [--port 7407 ...]
    python -m repro.cli loadgen --port 7407 --sets-file queries.txt --connections 16 --total 2000
    python -m repro.cli top     --events events.jsonl [--follow] [--window 60]

The input format for ``build`` is one set per line, elements separated
by whitespace (elements are treated as opaque strings); ``build
--explain`` prints the traced build phases.  ``query``
prints one ``sid<TAB>similarity`` line per answer; with ``--explain``
it appends the traced plan tree.  Repeating ``--set`` (or giving
``--sets-file``) runs all query sets as one *batch* through
``query_batch`` -- shared bucket reads, one fetch per distinct
candidate -- printing ``query_index<TAB>sid<TAB>similarity`` lines.
``explain`` runs the query purely
for its plan tree (or structured JSON with ``--json``).  ``-v``/``-vv``
raise log verbosity (INFO/DEBUG) on the ``repro`` logger hierarchy.

``build --output DIR`` saves the index as a snapshot directory
(:mod:`repro.exec.snapfile`), the one on-disk format: ``query --index``
/ ``explain`` / ``stats`` thaw it into a live index, while ``serve`` /
``query --snapshot DIR`` map it in O(ms) without reading it whole.
Query work runs on the calling thread unless ``--backend process``
serves the batch from ``--workers N`` worker *processes* that each map
the same snapshot (spawn start method, genuine multi-core); answers
and accounting stay bit-identical to the in-process path at any worker
count and backend.

``serve`` runs the always-on coalescing query service over a mapped
snapshot (:mod:`repro.serve`): concurrent newline-delimited-JSON
clients, micro-batched ``query_batch`` dispatch under a tunable
window, admission control with typed ``overloaded`` responses, and a
graceful drain on SIGTERM.  ``loadgen`` is its closed-loop benchmark
client (QPS + latency percentiles + observed batch sizes).  ``shard
build`` hash-partitions a collection into K per-shard snapshots of one
global plan under a checksummed manifest (:mod:`repro.exec.shard`);
``serve --shards`` / ``query`` over a shard directory answer by
scatter-gather with safe routing, bit-identically to the unsharded
index.

Telemetry: ``query`` accepts ``--prom-out`` (Prometheus text
exposition of the full metrics registry), ``--events-out`` (the
query-event ring as JSON Lines) and ``--trace-out`` (the traced span
tree in Chrome trace-event format, loadable in ``chrome://tracing`` /
Perfetto; implies tracing).  ``top`` renders a saved or growing event
log as a live dashboard: QPS, p50/p90/p99/p999 latency, phase
breakdown, candidate funnel, pages read and the slow-query log.  ``stats`` appends quantile tables for every registered
histogram.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from repro.core.index import SetSimilarityIndex
from repro.obs import configure_logging, explain_json, render_trace


def read_sets(path: Path) -> list[frozenset[str]]:
    """Parse a one-set-per-line whitespace-separated file."""
    sets = []
    with open(path) as f:
        for line in f:
            elements = frozenset(line.split())
            if not elements:
                continue  # blank lines are allowed and skipped
            sets.append(elements)
    if not sets:
        raise ValueError(f"{path} contains no sets")
    return sets


def _opening_saved(command):
    """A command that opens a saved index or snapshot: one it cannot
    open (missing, garbled or edited files) is reported as one
    ``error: <reason>`` line on stderr and exit status 1."""

    @functools.wraps(command)
    def run(args: argparse.Namespace) -> int:
        from repro.exec.shard import ShardError
        from repro.exec.snapfile import SnapshotError

        try:
            return command(args)
        except (SnapshotError, ShardError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    return run


def cmd_build(args: argparse.Namespace) -> int:
    """``build``: index a one-set-per-line file and save it.

    The filter tables are bulk-loaded through the vectorized pipeline.
    ``--explain`` traces the build and appends its phase tree plus the
    build report.
    """
    sets = read_sets(Path(args.input))
    index = SetSimilarityIndex.build(
        sets,
        budget=args.budget,
        recall_target=args.recall,
        k=args.k,
        b=args.bits,
        seed=args.seed,
        sample_pairs=args.sample_pairs,
        explain=args.explain,
        codec=args.codec,
    )
    index.save(args.output)
    plan = index.plan
    print(
        f"indexed {index.n_sets} sets -> {args.output}\n"
        f"codec: {index.embedder.codec} (D={index.embedder.dimension} bits)\n"
        f"plan: {plan.n_intervals} intervals, {plan.tables_used} hash tables, "
        f"expected recall {plan.expected_recall:.3f} "
        f"(target {'met' if plan.met_target else 'NOT met'})"
    )
    report = index.build_report
    if report is not None and report.get("filters") is not None:
        f = report["filters"]
        print(
            f"build: {f['entries']} entries ({f['new_pages']} pages) "
            f"in {f['wall_seconds']:.3f}s"
        )
    if args.explain:
        print(render_trace(index.build_trace))
    return 0


def _print_batch(batch) -> None:
    """Batch output: one ``query_index<TAB>sid<TAB>similarity`` line
    per answer, plus the batch summary on stderr."""
    for i, result in enumerate(batch.results):
        for sid, similarity in result.answers:
            print(f"{i}\t{sid}\t{similarity:.4f}")
    print(
        f"# batch of {batch.n_queries} queries: {batch.n_verified} answers "
        f"from {batch.n_candidates} candidates, "
        f"{batch.pages_saved} bucket pages + {batch.fetches_saved} fetches "
        f"saved vs looping, simulated time {batch.total_time:.0f}",
        file=sys.stderr,
    )


def _snapshot_batch(path, query_sets, args, explain: bool):
    """Open a mapped snapshot (or shard fleet) and serve one batch on
    the chosen backend.  Sharded directories are auto-detected and
    scatter-gathered."""
    from repro.exec import ParallelExecutor, open_snapshot
    from repro.exec.shard import ShardedExecutor, is_sharded, open_sharded

    t0 = time.perf_counter()
    if is_sharded(path):
        sharded = open_sharded(path)
        open_ms = (time.perf_counter() - t0) * 1e3
        with ShardedExecutor(
            sharded, workers=args.workers, backend=args.backend
        ) as executor:
            print(
                f"# sharded index {path}: opened in {open_ms:.1f} ms "
                f"({sharded.n_sets} sets over {sharded.n_shards} shards), "
                f"backend={args.backend}, workers={executor.workers}",
                file=sys.stderr,
            )
            batch = executor.query_batch(
                query_sets, args.low, args.high,
                strategy=args.strategy, explain=explain,
            )
            print(
                f"# routing: {batch.exec_stats['route']['subqueries_pruned']}"
                " (query, shard) verifies pruned",
                file=sys.stderr,
            )
            return batch
    snapshot = open_snapshot(path)
    open_ms = (time.perf_counter() - t0) * 1e3
    with ParallelExecutor(
        snapshot, workers=args.workers, backend=args.backend
    ) as executor:
        print(
            f"# snapshot {path}: opened in {open_ms:.1f} ms "
            f"({snapshot.n_sets} sets), backend={args.backend}, "
            f"workers={executor.workers}",
            file=sys.stderr,
        )
        return executor.query_batch(
            query_sets, args.low, args.high,
            strategy=args.strategy, explain=explain,
        )


def _write_telemetry(args: argparse.Namespace, trace_root) -> None:
    """Honor ``--prom-out`` / ``--events-out`` / ``--trace-out``."""
    if getattr(args, "prom_out", None):
        from repro.obs import export

        Path(args.prom_out).write_text(export.prometheus_text())
        print(f"# wrote Prometheus exposition to {args.prom_out}",
              file=sys.stderr)
    if getattr(args, "events_out", None):
        from repro.obs import events

        n = events.log.export_jsonl(args.events_out, which="all")
        print(f"# wrote {n} query events to {args.events_out}",
              file=sys.stderr)
    if getattr(args, "trace_out", None):
        from repro.obs import export

        if trace_root is None:
            print("# --trace-out: no trace captured", file=sys.stderr)
        else:
            export.write_chrome_trace(trace_root, args.trace_out)
            print(f"# wrote Chrome trace to {args.trace_out}",
                  file=sys.stderr)


@_opening_saved
def cmd_query(args: argparse.Namespace) -> int:
    """``query``: run similarity range queries against a saved index.

    One query set (a single ``--set``) runs as ``index.query`` (the
    one-row batch, printed without a position prefix);
    several (repeated ``--set`` and/or ``--sets-file``) run as one
    batched execution sharing bucket reads and candidate fetches, with
    per-query answer blocks prefixed by the query's position.  With
    ``--snapshot DIR`` the queries are served from a mapped snapshot
    (always as a batch) on the calling thread or -- with ``--backend
    process`` -- on ``--workers`` worker processes.
    """
    query_sets = [frozenset(s.split()) for s in (args.set or [])]
    if args.sets_file:
        query_sets.extend(read_sets(Path(args.sets_file)))
    if not query_sets:
        print("error: no query sets given (use --set and/or --sets-file)",
              file=sys.stderr)
        return 2
    if bool(args.index) == bool(args.snapshot):
        print("error: give exactly one of --index or --snapshot",
              file=sys.stderr)
        return 2
    explain = args.explain or args.explain_json or bool(args.trace_out)
    if args.backend == "process" and not args.snapshot:
        print("error: --backend process requires --snapshot "
              "(worker processes map a saved snapshot directory)",
              file=sys.stderr)
        return 2
    if args.snapshot:
        batch = _snapshot_batch(args.snapshot, query_sets, args, explain)
        _print_batch(batch)
        trace_root = batch.trace
    elif len(query_sets) == 1:
        index = SetSimilarityIndex.load(args.index)
        result = index.query(
            query_sets[0], args.low, args.high,
            strategy=args.strategy, explain=explain,
        )
        for sid, similarity in result.answers:
            print(f"{sid}\t{similarity:.4f}")
        print(
            f"# {result.n_verified} answers from {result.n_candidates} candidates, "
            f"simulated time {result.total_time:.0f}",
            file=sys.stderr,
        )
        trace_root = result.trace
    else:
        batch = SetSimilarityIndex.load(args.index).query_batch(
            query_sets, args.low, args.high,
            strategy=args.strategy, explain=explain,
        )
        _print_batch(batch)
        trace_root = batch.trace
    if args.explain:
        print(render_trace(trace_root))
    if args.explain_json:
        print(json.dumps(explain_json(trace_root), indent=2))
    _write_telemetry(args, trace_root)
    return 0


@_opening_saved
def cmd_explain(args: argparse.Namespace) -> int:
    """``explain``: trace one query and print its plan tree (or JSON).

    The query is executed for real (the plan tree reports observed,
    not estimated, bucket reads and candidate counts); only the
    answers are withheld.
    """
    index = SetSimilarityIndex.load(args.index)
    query_set = frozenset(args.set.split())
    result = index.query(
        query_set, args.low, args.high, strategy=args.strategy, explain=True
    )
    if args.json:
        print(json.dumps(explain_json(result.trace), indent=2))
    else:
        print(render_trace(result.trace))
    return 0


@_opening_saved
def cmd_stats(args: argparse.Namespace) -> int:
    """``stats``: describe a saved index's plan, parameters and tables.

    With ``--shards DIR`` it instead describes a shard manifest:
    per-shard occupancy and the global plan's filter table, which every
    shard runs.
    """
    if getattr(args, "shards", None):
        if args.index:
            print("error: pass --index or --shards, not both", file=sys.stderr)
            return 2
        return _shard_stats(args.shards)
    if not args.index:
        print("error: one of --index or --shards is required", file=sys.stderr)
        return 2
    index = SetSimilarityIndex.load(args.index)
    plan = index.plan
    print(f"sets indexed:      {index.n_sets}")
    print(f"embedding:         k={index.embedder.k}, b={index.embedder.b}, "
          f"codec={index.embedder.codec}, "
          f"D={index.embedder.dimension} bits")
    sig_bytes = sum(codes.nbytes for codes in index._codes.values())
    arena = index._hashes
    verify_bytes = arena.data.itemsize * int(
        arena.lens[list(index._codes)].sum()
    )
    n_live = max(1, index.n_sets)
    print(f"bytes:             signatures {sig_bytes:,} "
          f"({sig_bytes / n_live:.1f}/set), "
          f"verify arrays {verify_bytes:,} ({verify_bytes / n_live:.1f}/set)")
    print(f"similarity cuts:   {[round(c, 3) for c in plan.cut_points]}")
    print(f"hash tables used:  {plan.tables_used}")
    print(f"expected recall:   {plan.expected_recall:.3f}")
    print(f"expected precision:{plan.expected_precision:.3f}")
    for f in plan.filters:
        print(f"  {f.kind.upper()} @ {f.point:.3f}: {f.n_tables} tables")
    print("per-filter occupancy:")
    for fs in index.filter_stats():
        print(
            f"  {fs['kind'].upper()} @ {fs['point']:.3f} "
            f"(s*={fs['s_star']:.3f}, r={fs['r']}, l={fs['n_tables']}): "
            f"{fs['entries_per_table']} entries/table over {fs['pages']} pages, "
            f"load factor {fs['load_factor']:.3f}, "
            f"occupancy avg/max {fs['avg_occupancy']:.2f}/{fs['max_occupancy']}, "
            f"longest chain {fs['max_chain_pages']} page(s)"
        )
    _print_histogram_tables()
    return 0


def _shard_stats(path: str) -> int:
    """Per-shard occupancy and the global filter table for ``stats``."""
    from repro.exec.shard import open_sharded

    print(f"sharded index:     {path}")
    _print_fleet(open_sharded(path))
    return 0


def _print_fleet(sharded) -> None:
    """What ``stats --shards`` and ``shard info`` print about a fleet:
    occupancy, per-shard sizes and bytes, and the global plan's filter
    table, which every shard runs."""
    from repro.exec.snapfile import MANIFEST_FILE

    m = sharded.manifest
    gp = m["global_plan"]
    print(f"sets:              {m['n_sets']} over {m['n_shards']} shards "
          f"({len(sharded.live_shards)} live)")
    print(f"partition:         hash (seed {m['partition']['seed']})")
    print(f"codec:             {m['build']['codec']}")
    print(f"global plan:       {gp['tables_used']} of {m['build']['budget']} "
          f"budgeted tables, expected recall {gp['expected_recall']:.3f}, "
          f"cuts {[round(c, 3) for c in gp['cut_points']]}")
    print(f"routing:           {m['routing']['m_bits']}-bit universe bitsets")
    print("per-shard occupancy:")
    print(f"  {'shard':<12}{'sets':>8}{'arrays':>12}{'sizes':>12}")
    for entry, summary in zip(m["shards"], sharded.routing.summaries):
        nbytes, sizes = 0, "-"
        if summary is not None:
            nbytes = json.loads(
                (sharded.path / entry["dir"] / MANIFEST_FILE).read_text()
            )["arrays_bytes"]
            sizes = f"{summary.size_min}-{summary.size_max}"
        print(
            f"  {entry['dir']:<12}{entry['n_sets']:>8}{nbytes:>12,}"
            f"{sizes:>12}" + ("  (empty)" if summary is None else "")
        )
    print("budget allocation (tables per filter, every shard):")
    for f in gp["filters"]:
        print(f"  {f['kind'].upper()} @ {f['point']:.3f}: "
              f"{f['n_tables']} tables")


def _print_histogram_tables() -> None:
    """Quantile tables for every registered histogram.

    Part of ``repro stats``: all distribution instruments that have
    recorded observations this process -- candidates per query, batch
    sizes, per-table probe candidates, query latencies -- render as one
    p50/p90/p99/p999 table, so ``stats`` after a workload shows tails,
    not just point totals.
    """
    from repro.obs import metrics

    instruments = [
        hist for hist in metrics.registry.hdr_histograms().values()
        if hist.count
    ]
    if not instruments:
        return
    print("histograms:")
    header = (
        f"  {'name':<32}{'count':>9}{'mean':>11}"
        f"{'p50':>11}{'p90':>11}{'p99':>11}{'p999':>11}"
    )
    print(header)
    for hist in instruments:
        print(
            f"  {hist.name:<32}{hist.count:>9}{hist.mean:>11.3f}"
            + "".join(
                f"{hist.quantile(q):>11.3f}"
                for q in (0.50, 0.90, 0.99, 0.999)
            )
        )


def cmd_snapshot(args: argparse.Namespace) -> int:
    """``snapshot``: inspect/verify a saved index's snapshot directory.

    ``info`` prints the manifest summary (O(ms) open); ``verify``
    checksums every array.
    """
    if args.snapshot_command == "info":
        from repro.exec import open_snapshot

        t0 = time.perf_counter()
        snapshot = open_snapshot(args.path)
        open_ms = (time.perf_counter() - t0) * 1e3
        m = snapshot.manifest
        cost = m["cost"]
        print(f"snapshot:          {args.path} (opened in {open_ms:.1f} ms)")
        print(f"format:            {m['format']} v{m['version']}")
        print(f"sets:              {m['n_sets']} (elements as {m['sets_encoding']})")
        print(f"arrays:            {len(m['arrays'])} mapped, {m['arrays_bytes']:,} bytes")
        print(f"codec:             {m['codec']}")
        print(f"embedding bits:    D={m['n_bits']}")
        from repro.exec.snapfile import byte_breakdown

        bb = byte_breakdown(m)
        g = bb["groups"]
        print(f"byte breakdown:    signatures {g['signatures']:,} | "
              f"verify CSR {g['verify_csr']:,} | "
              f"buckets {g['buckets']:,} | other {g['other']:,}")
        print(f"bytes per set:     {bb['bytes_per_set']:.1f} total, "
              f"{bb['signature_bytes_per_set']:.1f} signatures")
        print(f"scan pages:        {m['scan_pages']}")
        print(f"cost model:        seq={cost['seq_cost']}, "
              f"random={cost['random_cost']}, cpu={cost['cpu_cost']}")
        for f in m["filters"]:
            print(f"  {f['kind'].upper()} @ {f['point']:.3f}: "
                  f"l={f['l']}, r={f['r']}, s*={f['threshold']:.3f}")
        return 0
    from repro.exec import SnapshotError, verify_snapshot

    try:
        summary = verify_snapshot(args.path)
    except SnapshotError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print(
        f"OK: {summary['n_arrays']} arrays "
        f"({summary['arrays_bytes']:,} bytes), {summary['n_sets']} sets, "
        f"{summary['filters']} filters -- all checksums pass"
    )
    return 0


def cmd_shard(args: argparse.Namespace) -> int:
    """``shard``: build/inspect/verify sharded indexes.

    ``build`` hash-partitions a set file into K shards and persists
    each as its own mmap snapshot of the one global plan under a
    checksummed shard manifest (with per-shard routing summaries);
    ``info`` prints the manifest summary; ``verify`` checks the routing
    summaries and checksums every array of every shard.  Serve the
    result with ``repro serve --snapshot DIR`` (sharded directories are
    auto-detected).
    """
    if args.shard_command == "build":
        from repro.exec.shard import build_sharded

        manifest = build_sharded(
            read_sets(Path(args.input)), args.out,
            n_shards=args.shards,
            budget=args.budget,
            recall_target=args.recall,
            k=args.k, b=args.bits, seed=args.seed,
            sample_pairs=args.sample_pairs,
            codec=args.codec,
        )
        live = sum(1 for e in manifest["shards"] if not e.get("empty"))
        gp = manifest["global_plan"]
        print(
            f"sharded index {args.out}: {manifest['n_sets']} sets over "
            f"{manifest['n_shards']} shards ({live} live), "
            f"{gp['tables_used']} tables per shard, expected recall "
            f"{gp['expected_recall']:.3f}, built in "
            f"{manifest['build_seconds']:.2f}s"
        )
        for entry in manifest["shards"]:
            print(
                f"  {entry['dir']}: {entry['n_sets']} sets"
                + (" (empty)" if entry.get("empty") else "")
            )
        print(f"  routing: {manifest['routing']['m_bits']}-bit universe "
              "bitsets per shard")
        return 0
    if args.shard_command == "info":
        from repro.exec.shard import open_sharded

        t0 = time.perf_counter()
        sharded = open_sharded(args.path)
        open_ms = (time.perf_counter() - t0) * 1e3
        m = sharded.manifest
        print(f"sharded index:     {args.path} (opened in {open_ms:.1f} ms)")
        print(f"format:            {m['format']} v{m['version']}")
        _print_fleet(sharded)
        return 0
    # verify
    from repro.exec.shard import ShardError, verify_sharded
    from repro.exec.snapfile import SnapshotError

    try:
        summary = verify_sharded(args.path)
    except (ShardError, SnapshotError) as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print(
        f"OK: {summary['live_shards']}/{summary['n_shards']} live shards, "
        f"{summary['n_sets']} sets, {summary['n_arrays']} arrays "
        f"({summary['arrays_bytes']:,} bytes) -- all checksums pass"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: the always-on coalescing query service.

    Opens the snapshot once, binds a TCP socket and serves
    newline-delimited JSON queries until SIGTERM/SIGINT, coalescing
    concurrent requests into ``query_batch`` micro-batches (see
    :mod:`repro.serve.server`).  On drain, honors ``--prom-out`` /
    ``--events-out`` so a supervised run leaves its telemetry behind.
    """
    import asyncio

    from repro.serve import QueryServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        backend=args.backend,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_pending=args.max_pending,
        adaptive=not args.no_adaptive,
    )

    async def main() -> None:
        server = QueryServer(args.snapshot, config)
        await server.start()
        print(
            f"# serving {server.snapshot.n_sets} sets on "
            f"{config.host}:{server.port} -- backend={config.backend} "
            f"workers={server.stats()['workers']} max_batch={config.max_batch} "
            f"max_wait={config.max_wait_ms}ms max_pending={config.max_pending}",
            file=sys.stderr, flush=True,
        )
        server.install_signal_handlers()
        await server.serve_forever()
        stats = server.stats()
        print(
            f"# drained: {stats['submitted']} requests in {stats['batches']} "
            f"batches (mean size {stats['mean_batch_size']:.1f}), "
            f"{stats['rejected_overload']} overload rejections",
            file=sys.stderr,
        )

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    _write_telemetry(args, None)
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """``loadgen``: closed-loop benchmark client for ``repro serve``.

    Query sets come from ``--set``/``--sets-file`` or are synthesized
    (``--synthetic N`` random integer sets, seeded).  Prints a JSON
    summary -- QPS, latency percentiles, observed micro-batch sizes,
    typed error counts -- to stdout.
    """
    import asyncio

    import numpy as np

    from repro.serve import run_loadgen

    query_sets: list[frozenset] = [
        frozenset(s.split()) for s in (args.set or [])
    ]
    if args.sets_file:
        query_sets.extend(read_sets(Path(args.sets_file)))
    if args.synthetic:
        rng = np.random.default_rng(args.seed)
        query_sets.extend(
            frozenset(int(x) for x in rng.integers(0, args.universe, size=args.set_size))
            for _ in range(args.synthetic)
        )
    if not query_sets:
        print("error: no query sets (use --set, --sets-file or --synthetic N)",
              file=sys.stderr)
        return 2

    result = asyncio.run(run_loadgen(
        args.host, args.port, query_sets, args.low, args.high,
        connections=args.connections, total=args.total,
        duration=args.duration, strategy=args.strategy,
        pipeline=args.pipeline,
    ))
    summary = result.summary()
    print(json.dumps(summary, indent=2))
    print(
        f"# {summary['n_ok']}/{summary['n_sent']} ok at {summary['qps']} qps, "
        f"p50/p99 {summary['latency_ms']['p50']}/{summary['latency_ms']['p99']} ms, "
        f"mean batch {summary['batch_size']['mean']}",
        file=sys.stderr,
    )
    return 0 if summary["n_ok"] == summary["n_sent"] else 1


def cmd_top(args: argparse.Namespace) -> int:
    """``top``: dashboard over a query-event JSONL log.

    Prints one dashboard frame and exits; with ``--follow`` the log is
    re-read every ``--interval`` seconds (a harness appending events
    with ``--events-out`` or ``EventLog.export_jsonl`` drives a live
    view; interrupt with Ctrl-C).  ``--window`` restricts statistics to
    the trailing N seconds of events.
    """
    from repro.obs import events as events_mod
    from repro.obs import top as top_mod

    path = Path(args.events)

    def show() -> int:
        try:
            records = list(events_mod.read_jsonl(path))
        except FileNotFoundError:
            print(f"error: no such event log: {path}", file=sys.stderr)
            return 1
        except json.JSONDecodeError as exc:
            print(f"error: {path} is not JSONL: {exc}", file=sys.stderr)
            return 1
        summary = top_mod.summarize(records, window_s=args.window)
        print(top_mod.render(summary, source=str(path)))
        return 0

    if not args.follow:
        return show()
    try:
        while True:
            # Clear screen + home, then redraw from the re-read log.
            print("\x1b[2J\x1b[H", end="")
            code = show()
            if code:
                return code
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_demo(args: argparse.Namespace) -> int:
    """``demo``: build and probe a synthetic index end to end."""
    from repro.data.weblog import make_weblog_collection

    sets = make_weblog_collection(n_sets=args.n_sets, seed=1)
    index = SetSimilarityIndex.build(sets, budget=200, recall_target=0.9, k=64, seed=1)
    result = index.query_above(sets[0], 0.5)
    print(
        f"built a demo index over {len(sets)} synthetic web sessions; "
        f"session 0 has {len(result.answers) - 1} >= 0.5-similar peers "
        f"({len(result.candidates)} candidates fetched)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Tunable similar-set retrieval (SIGMOD 2001 reproduction)"
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log more (-v: INFO, -vv: DEBUG) on the 'repro' loggers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build an index from a set file")
    p_build.add_argument("--input", required=True, help="one set per line")
    p_build.add_argument(
        "--output", required=True, help="index (snapshot) directory to write"
    )
    p_build.add_argument("--budget", type=int, default=500, help="hash-table budget")
    p_build.add_argument("--recall", type=float, default=0.9, help="recall target")
    p_build.add_argument("--k", type=int, default=100, help="min-hash signature length")
    p_build.add_argument("--bits", type=int, default=6, help="bits per min-hash value")
    p_build.add_argument(
        "--codec", default="full64",
        help="signature generator: full64 (MinHash, the default) or "
             "superminhash (Ertl's lower-variance MinHash)",
    )
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--sample-pairs", type=int, default=100_000)
    p_build.add_argument(
        "--explain", action="store_true",
        help="trace the build and append its phase tree",
    )
    p_build.set_defaults(func=cmd_build)

    p_query = sub.add_parser("query", help="run similarity range queries")
    p_query.add_argument(
        "--index", help="a saved index directory, thawed into a live index"
    )
    p_query.add_argument(
        "--snapshot",
        help="a saved index directory, mapped zero-copy instead: "
             "opened in O(ms) and always served as a batch",
    )
    p_query.add_argument(
        "--set", action="append",
        help="query elements, space separated (repeat for a batch)",
    )
    p_query.add_argument(
        "--sets-file",
        help="one query set per line; combined with --set into one batch",
    )
    p_query.add_argument("--low", type=float, default=0.5)
    p_query.add_argument("--high", type=float, default=1.0)
    p_query.add_argument(
        "--strategy", choices=("index", "scan", "auto"), default="index"
    )
    p_query.add_argument(
        "--explain", action="store_true",
        help="trace the query and append its plan tree",
    )
    p_query.add_argument(
        "--explain-json", action="store_true",
        help="trace the query and append the EXPLAIN JSON",
    )
    p_query.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for --backend process (results and "
             "accounting are identical at any count); for a sharded "
             "--snapshot this sizes the fleet's one pool.  The thread "
             "backend runs on the calling thread and ignores it",
    )
    p_query.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help="'thread' runs query work on the calling thread; 'process' "
             "maps a saved --snapshot from each worker process (genuine "
             "multi-core)",
    )
    p_query.add_argument(
        "--prom-out", metavar="FILE",
        help="write the metrics registry as Prometheus text exposition",
    )
    p_query.add_argument(
        "--events-out", metavar="FILE",
        help="write the captured query events as JSON Lines (repro top input)",
    )
    p_query.add_argument(
        "--trace-out", metavar="FILE",
        help="write the traced span tree as Chrome trace-event JSON "
             "(chrome://tracing / Perfetto); implies tracing",
    )
    p_query.set_defaults(func=cmd_query)

    p_explain = sub.add_parser(
        "explain", help="trace one query and print its plan tree"
    )
    p_explain.add_argument("--index", required=True)
    p_explain.add_argument(
        "--set", required=True, help="query elements, space separated"
    )
    p_explain.add_argument("--low", type=float, default=0.5)
    p_explain.add_argument("--high", type=float, default=1.0)
    p_explain.add_argument(
        "--strategy", choices=("index", "scan", "auto"), default="index"
    )
    p_explain.add_argument(
        "--json", action="store_true", help="emit structured JSON instead"
    )
    p_explain.set_defaults(func=cmd_explain)

    p_stats = sub.add_parser(
        "stats", help="describe a built index or a shard manifest"
    )
    p_stats.add_argument("--index", help="a saved index directory")
    p_stats.add_argument(
        "--shards", metavar="DIR",
        help="a sharded-index directory: print per-shard occupancy and "
             "the global plan's filter table instead",
    )
    p_stats.set_defaults(func=cmd_stats)

    p_demo = sub.add_parser("demo", help="build and query a synthetic demo index")
    p_demo.add_argument("--n-sets", type=int, default=500)
    p_demo.set_defaults(func=cmd_demo)

    p_snap = sub.add_parser(
        "snapshot", help="inspect and verify a saved index directory"
    )
    snap_sub = p_snap.add_subparsers(dest="snapshot_command", required=True)

    p_snap_info = snap_sub.add_parser(
        "info", help="print a snapshot's manifest summary"
    )
    p_snap_info.add_argument("--path", required=True, help="snapshot directory")
    p_snap_info.set_defaults(func=cmd_snapshot)

    p_snap_verify = snap_sub.add_parser(
        "verify", help="checksum every array in a snapshot"
    )
    p_snap_verify.add_argument("--path", required=True, help="snapshot directory")
    p_snap_verify.set_defaults(func=cmd_snapshot)

    p_shard = sub.add_parser(
        "shard",
        help="sharded scatter-gather indexes: build, inspect, verify",
    )
    shard_sub = p_shard.add_subparsers(dest="shard_command", required=True)

    p_shard_build = shard_sub.add_parser(
        "build", help="hash-partition a set file into K per-shard snapshots"
    )
    p_shard_build.add_argument("--input", required=True, help="one set per line")
    p_shard_build.add_argument(
        "--out", required=True, help="sharded-index directory to write"
    )
    p_shard_build.add_argument(
        "--shards", type=int, default=4, help="number of shards (K)"
    )
    p_shard_build.add_argument("--budget", type=int, default=500,
                               help="global hash-table budget")
    p_shard_build.add_argument("--recall", type=float, default=0.9)
    p_shard_build.add_argument("--k", type=int, default=100)
    p_shard_build.add_argument("--bits", type=int, default=6)
    p_shard_build.add_argument(
        "--codec", default="full64",
        help="signature generator (see `build --codec`); applied to every shard",
    )
    p_shard_build.add_argument("--seed", type=int, default=0)
    p_shard_build.add_argument("--sample-pairs", type=int, default=100_000)
    p_shard_build.set_defaults(func=cmd_shard)

    p_shard_info = shard_sub.add_parser(
        "info", help="print a shard manifest summary"
    )
    p_shard_info.add_argument("--path", required=True,
                              help="sharded-index directory")
    p_shard_info.set_defaults(func=cmd_shard)

    p_shard_verify = shard_sub.add_parser(
        "verify", help="checksum every array in every shard"
    )
    p_shard_verify.add_argument("--path", required=True,
                                help="sharded-index directory")
    p_shard_verify.set_defaults(func=cmd_shard)

    p_serve = sub.add_parser(
        "serve",
        help="always-on coalescing query service over a mapped snapshot "
             "or shard fleet",
    )
    p_serve.add_argument(
        "--snapshot", "--shards", dest="snapshot", required=True,
        help="saved index directory (build --output) or sharded-index "
             "directory (shard build) -- sharded layouts are "
             "auto-detected and served scatter-gather",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7407,
        help="TCP port (0 picks an ephemeral port, printed on stderr)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for --backend process; for a sharded "
             "directory this sizes the fleet's one pool, whatever the "
             "shard count.  The thread backend runs every "
             "batch on the dispatch thread and ignores it",
    )
    p_serve.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help="'thread' runs batches on the dispatch thread; 'process' "
             "serves them from spawn workers mapping the same snapshot",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=64,
        help="micro-batch size cap; reaching it dispatches immediately",
    )
    p_serve.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="coalescing window upper bound per request (ms)",
    )
    p_serve.add_argument(
        "--max-pending", type=int, default=1024,
        help="admission bound; beyond it requests get a typed "
             "'overloaded' response",
    )
    p_serve.add_argument(
        "--no-adaptive", action="store_true",
        help="pin the window at --max-wait-ms instead of adapting it "
             "to the measured arrival rate",
    )
    p_serve.add_argument(
        "--prom-out", metavar="FILE",
        help="on drain, write the metrics registry as Prometheus text",
    )
    p_serve.add_argument(
        "--events-out", metavar="FILE",
        help="on drain, write captured query events as JSON Lines",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_loadgen = sub.add_parser(
        "loadgen", help="closed-loop load generator for `repro serve`"
    )
    p_loadgen.add_argument("--host", default="127.0.0.1")
    p_loadgen.add_argument("--port", type=int, default=7407)
    p_loadgen.add_argument(
        "--set", action="append",
        help="query elements, space separated (repeatable)",
    )
    p_loadgen.add_argument(
        "--sets-file", help="one query set per line",
    )
    p_loadgen.add_argument(
        "--synthetic", type=int, default=0, metavar="N",
        help="add N random integer query sets (seeded)",
    )
    p_loadgen.add_argument("--seed", type=int, default=0)
    p_loadgen.add_argument(
        "--universe", type=int, default=2000,
        help="element universe for --synthetic",
    )
    p_loadgen.add_argument(
        "--set-size", type=int, default=20,
        help="elements per synthetic query set",
    )
    p_loadgen.add_argument("--low", type=float, default=0.5)
    p_loadgen.add_argument("--high", type=float, default=1.0)
    p_loadgen.add_argument(
        "--strategy", choices=("index", "scan", "auto"), default="index"
    )
    p_loadgen.add_argument(
        "--connections", type=int, default=4,
        help="concurrent client connections",
    )
    p_loadgen.add_argument(
        "--pipeline", type=int, default=1,
        help="requests each connection keeps in flight",
    )
    p_loadgen.add_argument(
        "--total", "--requests", dest="total", type=int, default=None,
        help="total requests (default: one pass over the query pool)",
    )
    p_loadgen.add_argument(
        "--duration", type=float, default=None,
        help="run for this many seconds instead of a fixed total",
    )
    p_loadgen.set_defaults(func=cmd_loadgen)

    p_top = sub.add_parser(
        "top", help="terminal dashboard over a query-event JSONL log"
    )
    p_top.add_argument(
        "--events", required=True,
        help="JSON Lines event log (query --events-out / EventLog.export_jsonl)",
    )
    p_top.add_argument(
        "--follow", action="store_true",
        help="re-read the log every --interval seconds (live view)",
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh interval in seconds for --follow (default 2)",
    )
    p_top.add_argument(
        "--window", type=float, default=None,
        help="only aggregate events within this many seconds of the newest",
    )
    p_top.set_defaults(func=cmd_top)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
