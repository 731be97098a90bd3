"""The traced pass: where the time goes, layer by layer, from outside.

Each section runs batches twice -- once through the program's entry
point (the *program wall*) and once stage by stage through the public
functions the entry point is made of, every call inside a span.  The
rows of a ledger are the stages' self times plus one *named* residual
(program wall minus stages), so they sum to the program wall by
construction; the staged replay must return the entry point's answers
or the run fails.  The section a workload's own path runs through gets
the run's ``--seconds``; the other sections run at a small fixed size,
so every traced run reports every per-layer metric.

Every time is carried as a pair ``[normalised, raw]`` (a 2-vector, so
sums, differences and ratios of times give both at once): normalised is
raw divided by the reference clock's slowness around that instant.

Nothing here reads the program's own ``timings``; counts come from
public result fields (``n_candidates``, ``io``, ``exec_stats``, reply
``batch_size`` / ``queue_ms``, ``byte_breakdown``).
"""

from __future__ import annotations

import os

import numpy as np

import client
import workloads as wl
from measure import LATENCY_WINDOW_S, RESULTS_DIR, SRC_DIR, Context, clock, percentile
from phases import BuildChurn, Runner, serve_requests
from tracing import Tracer

# run.py imports this module only after ``measure.import_repro()``.
from repro.core.similarity import jaccard
from repro.exec.columnar import (
    SMALL_VERIFY_CUTOFF, build_csr, hash_set, in_range_answers, intersect_counts,
    jaccard_values,
)
from repro.hamming.bitvector import complement
from repro.storage.iomodel import IOStats

#: Batches every section replays when it is not the workload's own, and
#: the batches the count metrics are taken over (so they repeat exactly
#: for a seed however long the run is).
FIXED_ROUNDS = 2
RATES = (30, 60, 90, 120)
P95_LIMIT_MS = 100.0


def _add_into(into: dict, more: dict) -> None:
    for name, value in more.items():
        into[name] = into.get(name, 0.0) + value


class ReplayMismatch(AssertionError):
    """A staged replay disagreed with the entry point."""


def staged_batch(tr: Tracer, view, queries, low, high, batch_id: int,
                 probe_layer: str, live=None, verify_rows=None):
    """One batch, stage by stage, over an ``IndexSnapshot`` view.

    With ``live=(index, chash, fallback)`` candidates are fetched from
    the live index's set store and verified with the columnar kernels
    the live index uses (per-candidate hash arrays concatenated per
    query); otherwise through the view's own ``charge_fetches`` /
    ``verify_one``.  Returns ``(answers, candidates, distinct fetched)``.
    """
    io = IOStats()
    query_sets = [frozenset(q) for q in queries]
    n = len(query_sets)
    with tr.span("bench:staged_glue", batch_id):
        plan, probes, _ = view.plan_probes(low, high)
        rows = [] if plan == "full_collection" else [
            i for i, q in enumerate(query_sets) if q
        ]
        if plan != "full_collection" and not rows:
            plan, probes = "empty_queries", []
        probed = {}
        if probes:
            embedder = view.embedder
            with tr.span("core.embedding:encode_many"):
                with tr.span("core.minhash:signature_matrix"):
                    signatures = embedder.signature_matrix([query_sets[i] for i in rows])
                matrix = embedder.code.encode_many(signatures)
            cmatrix = None
            for key in probes:
                fp = view.filter_probe(*key)
                if fp.complement_query and cmatrix is None:
                    cmatrix = complement(matrix, view.n_bits)
                probe_matrix = cmatrix if fp.complement_query else matrix
                sids = [set() for _ in rows]
                with tr.span(f"{probe_layer}:probe_tables"):
                    for t in range(fp.n_tables):
                        for j, got in enumerate(fp.probe_table(t, probe_matrix, io)):
                            sids[j].update(got)
                probed[key] = sids
        candidates = view.combine_candidates(plan, probed, probes, n, rows)
        if verify_rows is None:
            to_verify = candidates
        else:
            keep = set(verify_rows)
            to_verify = [c if i in keep else set() for i, c in enumerate(candidates)]
        distinct = sorted(set().union(*to_verify)) if to_verify else []
        if live is None:
            with tr.span("exec.snapshot:charge_fetches"):
                view.charge_fetches(distinct, io)
            with tr.span("exec.columnar:verify"):
                answers = [
                    view.verify_one(q, c, low, high, io)
                    for q, c in zip(query_sets, to_verify)
                ]
        else:
            index, chash, fallback = live
            with tr.span("storage.setstore:get"):
                fetched = {sid: index.store.get(sid) for sid in distinct}
            with tr.span("exec.columnar:verify"):
                answers = [
                    _columnar_answers(tr, q, c, low, high, fetched, chash, fallback)
                    for q, c in zip(query_sets, to_verify)
                ]
    return answers, candidates, len(distinct)


def _columnar_answers(tr, query_set, candidates, low, high, fetched, chash, fallback):
    """One query's exact in-range answers from the public columnar
    kernels, the way the live index composes them."""
    cand_list = sorted(candidates)
    if not cand_list:
        return []
    if len(cand_list) <= SMALL_VERIFY_CUTOFF:
        values = [jaccard(fetched[sid], query_set) for sid in cand_list]
        return in_range_answers(cand_list, values, low, high)
    with tr.span("exec.columnar:hash_build"):
        query_arr, collided = hash_set(query_set)
        indptr, data = build_csr([chash[sid] for sid in cand_list])
    if collided:
        values = [jaccard(fetched[sid], query_set) for sid in cand_list]
        return in_range_answers(cand_list, values, low, high)
    with tr.span("exec.columnar:intersect_counts"):
        inter = intersect_counts(query_arr, indptr, data)
    sizes = np.fromiter(
        (len(fetched[sid]) for sid in cand_list), dtype=np.int64, count=len(cand_list)
    )
    values = jaccard_values(len(query_set), sizes, inter)
    if fallback:
        for j, sid in enumerate(cand_list):
            if sid in fallback:
                values[j] = jaccard(fetched[sid], query_set)
    return in_range_answers(cand_list, values, low, high)


class Lab(Runner):
    """One traced run: all sections, the metrics, the ledger, the trace."""

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.tr = Tracer()
        self.m: dict[str, object] = {}
        self.ledgers: dict[str, list[tuple[str, np.ndarray]]] = {}
        self.own = ctx.workload.name
        self.full = [b for b in self.batches if len(b) == len(self.batches[0])]
        self.smoke = ctx.sizes.is_smoke
        self._next_batch = 0
        self.driver = sorted(ctx.driver_cpus)

    # -- time as [normalised, raw] -----------------------------------------

    def t(self, t0: float, t1: float, cpus=None) -> np.ndarray:
        """The interval as ``[normalised, raw]`` seconds."""
        raw = t1 - t0
        pad = LATENCY_WINDOW_S if raw < 2 * LATENCY_WINDOW_S else 0.0
        slow = self.ctx.rc.snapshot().slowness(t0 - pad, t1 + pad, cpus or self.driver)
        return np.array([raw / slow, raw])

    def timed(self, fn, cpus=None):
        """``(result, [normalised, raw] seconds)`` of calling ``fn``."""
        t0 = clock()
        out = fn()
        return out, self.t(t0, clock(), cpus)

    def span_times(self, since: int, until: int | None = None):
        """``(self, inclusive)`` time per span name over the spans
        recorded in ``[since, until)``, each a ``[normalised, raw]`` pair."""
        spans = self.tr.spans[:until]
        if since >= len(spans):
            return {}, {}
        readings = self.ctx.rc.snapshot()
        dur = np.zeros((len(spans), 2))
        for i in range(since, len(spans)):
            _, start, end, _, _ = spans[i]
            raw = end - start
            slow = readings.slowness(
                start - LATENCY_WINDOW_S, end + LATENCY_WINDOW_S, self.driver
            )
            dur[i] = (raw / slow, raw)
        own = dur.copy()
        for i in range(since, len(spans)):
            parent = spans[i][3]
            if parent >= since:
                own[parent] -= dur[i]
        selfs: dict[str, np.ndarray] = {}
        totals: dict[str, np.ndarray] = {}
        for i in range(since, len(spans)):
            _add_into(selfs, {spans[i][0]: own[i]})
            _add_into(totals, {spans[i][0]: dur[i]})
        return selfs, totals

    def budget(self, section: str) -> float:
        """Seconds a section may spend on its replay loop: the run's
        ``--seconds`` if the workload's own path runs through it (split
        when it runs through two), else 0 (fixed small size)."""
        owners = {
            "batch_planted": ("live",), "serve_weblog": ("snapshot", "serve"),
            "shard_planted": ("shard",), "build_churn": ("mutate",),
        }[self.own]
        return self.ctx.seconds / len(owners) if section in owners else 0.0

    def sized(self, own, other, smoke, section: str = ""):
        """A count for the workload's own section, for another
        workload's, or for the test suite's smoke run."""
        if self.smoke:
            return smoke
        return own if section and self.budget(section) else other

    def rounds(self, budget: float):
        """Pool batches ``(batch id, positions, queries)``: the fixed
        rounds first, then more until ``budget`` seconds have passed."""
        t_end = clock() + budget
        i = 0
        while i < FIXED_ROUNDS or clock() < t_end:
            positions = self.full[i % len(self.full)]
            self._next_batch += 1
            yield self._next_batch, positions, [self.pool[p] for p in positions]
            i += 1

    def same(self, what: str, staged, entry) -> None:
        if staged != entry:
            raise ReplayMismatch(f"{what}: staged replay disagrees with the entry point")

    # -- sections ------------------------------------------------------------

    def run(self):
        self.build_section()
        self.persist_section()
        self.live_section()
        self.snapshot_section()
        self.shard_section()
        self.serve_section()
        self.mutate_section()
        self.run_checks()
        return self.finish()

    def build_section(self) -> None:
        """Set-up, staged: distribution, plan, materialise -- and the
        corpus embedding and hashing again on their own, to split the
        materialise step."""
        from repro.core.codec import parse_codec
        from repro.core.distribution import SimilarityDistribution
        from repro.core.index import SetSimilarityIndex
        from repro.core.optimizer import plan_index

        b, tr, sets = wl.BUILD, self.tr, self.sets
        mark = tr.mark()
        with tr.span("core.distribution:from_sets"):
            self.dist = SimilarityDistribution.from_sets(
                sets, sample_pairs=b["sample_pairs"], seed=wl.BUILD_SEED
            )
        with tr.span("core.optimizer:plan_index"):
            self.plan = plan_index(
                self.dist, b["budget"], recall_target=b["recall_target"],
                b=parse_codec(b["codec"]).bias_bits(b["b"]),
            )
        with tr.span("core.index:from_plan"):
            self.index = SetSimilarityIndex.from_plan(
                sets, self.plan, self.dist, k=b["k"], b=b["b"],
                seed=wl.BUILD_SEED, codec=b["codec"],
            )
        with tr.span("core.embedding:embed_corpus"):
            self.index.embedder.embed_many(sets)
        self.chash, self.fallback = {}, set()
        with tr.span("exec.columnar:hash_corpus"):
            for sid, s in enumerate(sets):
                self.chash[sid], collided = hash_set(s)
                if collided:
                    self.fallback.add(sid)
        _, total = self.span_times(mark)
        dist_s = total["core.distribution:from_sets"]
        plan_s = total["core.optimizer:plan_index"]
        from_plan = total["core.index:from_plan"]
        embed = total["core.embedding:embed_corpus"]
        n = len(sets)
        self.m.update({
            "core.distribution.estimate_s": dist_s,
            "core.optimizer.plan_s": plan_s,
            "exec.build.bulk_load_s": from_plan - embed - total["exec.columnar:hash_corpus"],
            "core.embedding.corpus_sets_per_s": n / embed,
            "core.index.build_sets_per_s": n / (dist_s + plan_s + from_plan),
            "core.optimizer.tables_used": float(self.plan.tables_used),
            "core.optimizer.n_intervals": float(self.plan.n_intervals),
            "core.optimizer.expected_recall": float(self.plan.expected_recall),
        })

    def persist_section(self) -> None:
        from repro.core.index import SetSimilarityIndex
        from repro.exec.snapfile import byte_breakdown, open_snapshot, save_snapshot

        path = self.ctx.workdir / "lab.ssi"
        _, self.m["core.persistence.save_s"] = self.timed(lambda: self.index.save(path))
        _, self.m["core.persistence.load_s"] = self.timed(
            lambda: SetSimilarityIndex.load(path)
        )
        path.unlink()
        self.frozen, freeze = self.timed(self.index.freeze)
        self.m["core.index.freeze_ms"] = freeze * 1e3
        self.snap_dir = self.ctx.workdir / "lab.snap"
        _, self.m["exec.snapfile.save_s"] = self.timed(
            lambda: save_snapshot(self.frozen, self.snap_dir)
        )
        opens = []
        for _ in range(5):
            self.mapped, took = self.timed(lambda: open_snapshot(self.snap_dir))
            opens.append(took)
        self.m["exec.snapfile.open_ms"] = np.median(opens, axis=0) * 1e3
        groups = byte_breakdown(self.mapped.manifest)
        total = float(groups["total_bytes"])
        self.m["exec.snapfile.signature_bytes_share"] = groups["groups"]["signatures"] / total
        self.m["exec.snapfile.table_bytes_share"] = groups["groups"]["buckets"] / total

    def replay_loop(self, budget, entry, entry_span, stage):
        """Run ``entry(queries)`` and ``stage(batch id, queries)`` on
        each round; returns the per-round records.  When the section is
        the workload's own, a quarter of the budget first runs the entry
        point alone -- the untraced program wall ``bench.tracing.
        overhead_share`` compares with."""
        alone = []
        if budget:
            t_end = clock() + budget / 4
            for i in range(len(self.full)):
                queries = [self.pool[p] for p in self.full[i]]
                _, took = self.timed(lambda: entry(queries))
                alone.append(took)
                if clock() >= t_end:
                    break
            budget *= 0.75
        records = []
        for batch_id, positions, queries in self.rounds(budget):
            with self.tr.span(entry_span, batch_id) as span:
                batch = entry(queries)
            wall = self.t(span[1], span[2])
            mark = self.tr.mark()
            staged = stage(batch_id, queries)
            self.same(entry_span, staged[0], [r.answers for r in batch.results])
            self.same(entry_span + " candidates", staged[1],
                      [r.candidates for r in batch.results])
            self.queue_batch(positions, batch)
            records.append({
                "n": len(queries), "wall": wall, "mark": mark, "end": self.tr.mark(),
                "pairs": batch.n_candidates, "distinct": staged[2], "queries": queries,
                # Only the fixed rounds keep their (large) results.
                "batch": batch if len(records) < FIXED_ROUNDS else None,
            })
        if alone:
            walls = np.array([r["wall"] for r in records])
            self.m["bench.tracing.overhead_share"] = (
                np.median(walls, axis=0) / np.median(alone, axis=0) - 1.0
            )
        return records

    def stage_sums(self, records):
        """Self and inclusive span times summed over the records' staged
        replays (``records`` are consecutive)."""
        selfs: dict[str, np.ndarray] = {}
        totals: dict[str, np.ndarray] = {}
        for r in records:
            s, t = self.span_times(r["mark"], r["end"])
            _add_into(selfs, s)
            _add_into(totals, t)
        return selfs, totals

    def live_section(self) -> None:
        """The live index: ``query_batch`` against embed / probe (on the
        frozen view of the same tables) / fetch / columnar verify."""
        from repro.hamming.distance import hamming_distance_pairs
        from repro.obs import events

        index, low, high = self.index, self.low, self.high
        live = (index, self.chash, self.fallback)
        records = self.replay_loop(
            self.budget("live"),
            lambda qs: index.query_batch(qs, low, high),
            "core.index:query_batch",
            lambda bid, qs: staged_batch(
                self.tr, self.frozen, qs, low, high, bid, "core.filter_index", live
            ),
        )
        selfs, totals = self.stage_sums(records)
        n = sum(r["n"] for r in records)
        wall = sum(r["wall"] for r in records)
        per_q = lambda v: v / n * 1e3  # noqa: E731 -- seconds summed -> ms a query
        embed = totals["core.embedding:encode_many"]
        probe = totals["core.filter_index:probe_tables"]
        fetch = totals["storage.setstore:get"]
        verify = totals["exec.columnar:verify"]
        zero = np.zeros(2)
        hash_build = totals.get("exec.columnar:hash_build", zero)
        intersect = totals.get("exec.columnar:intersect_counts", zero)
        fixed = records[:FIXED_ROUNDS]
        n_fixed = sum(r["n"] for r in fixed)
        pairs_fixed = sum(r["pairs"] for r in fixed)
        pairs = sum(r["pairs"] for r in records)
        plan_probes = self.frozen.plan_probes(low, high)[1]
        self.m.update({
            "core.minhash.signature_us_per_query":
                per_q(totals["core.minhash:signature_matrix"]) * 1e3,
            "core.embedding.embed_us_per_query": per_q(embed) * 1e3,
            "core.filter_index.probe_ms_per_query": per_q(probe),
            "core.filter_index.tables_probed_per_query": float(sum(
                self.frozen.filter_probe(*key).n_tables for key in plan_probes
            )),
            "core.filter_index.candidates_per_query": pairs_fixed / n_fixed,
            "storage.pager.pages_read_per_query": sum(
                r["batch"].io.random_reads + r["batch"].io.sequential_reads for r in fixed
            ) / n_fixed,
            "core.index.sim_time_per_query":
                sum(r["batch"].total_time for r in fixed) / n_fixed,
            "storage.setstore.fetch_ms_per_query": per_q(fetch),
            "storage.setstore.distinct_fetched_per_query":
                sum(r["distinct"] for r in fixed) / n_fixed,
            "exec.columnar.verify_ms_per_query": per_q(verify),
            "exec.columnar.hash_build_ms_per_query": per_q(hash_build),
            "exec.columnar.intersect_ms_per_query": per_q(intersect),
            "exec.columnar.pairs_per_query": pairs_fixed / n_fixed,
            "exec.columnar.ns_per_pair": verify / max(1, pairs) * 1e9,
            "exec.columnar.candidate_precision":
                sum(r["batch"].n_verified for r in fixed) / max(1, pairs_fixed),
            "core.index.batch_ms_per_query": per_q(wall),
            "core.index.unattributed_ms_per_query": per_q(wall - embed - probe - fetch - verify),
        })
        self.ledgers["live"] = [
            ("core.minhash (signatures)", per_q(selfs["core.minhash:signature_matrix"])),
            ("core.embedding (ECC + pack)", per_q(selfs["core.embedding:encode_many"])),
            ("core.filter_index (probe, frozen view)", per_q(probe)),
            ("storage.setstore (fetch)", per_q(fetch)),
            ("exec.columnar hash_set + build_csr", per_q(hash_build)),
            ("exec.columnar intersect_counts", per_q(intersect)),
            ("exec.columnar rest of verify", per_q(verify - hash_build - intersect)),
            ("core.index.unattributed (residual)",
             self.m["core.index.unattributed_ms_per_query"]),
            ("= core.index.query_batch wall", per_q(wall)),
        ]
        # Single queries.
        singles = []
        for i in range(self.sized(200, 48, 12, "live")):
            pos = i % len(self.pool)
            result, took = self.timed(lambda: index.query(self.pool[pos], low, high))
            self.queue_check(pos, result.answers)
            singles.append(took)
        self.m["core.index.single_query_ms"] = np.median(singles, axis=0) * 1e3
        # What a signature prescreen would pay per candidate pair: the
        # packed-matrix Hamming kernel on the first batch's own pairs.
        first = records[0]
        nonempty = [i for i, q in enumerate(first["queries"]) if q]
        matrix = self.frozen.embedder.embed_many([first["queries"][i] for i in nonempty])
        q_rows, c_rows = [], []
        for row, i in enumerate(nonempty):
            cands = first["batch"].results[i].candidates
            q_rows.extend([row] * len(cands))
            c_rows.extend(self.frozen.row_of[sid] for sid in cands)
        q_rows, c_rows = np.asarray(q_rows), np.asarray(c_rows)
        vectors = self.frozen.vector_matrix
        _, took = self.timed(lambda: hamming_distance_pairs(matrix[q_rows], vectors[c_rows]))
        self.m["hamming.distance.pairs_ns_per_pair"] = took / max(1, len(q_rows)) * 1e9
        # Telemetry on against off, paired and interleaved.
        was = events.is_enabled()
        on, off = np.zeros(2), np.zeros(2)
        queries = first["queries"]
        try:
            for i in range(self.sized(8, 4, 2, "live")):
                for flag in ((True, False) if i % 2 == 0 else (False, True)):
                    events.set_enabled(flag)
                    _, took = self.timed(lambda: index.query_batch(queries, low, high))
                    if flag:
                        on += took
                    else:
                        off += took
        finally:
            events.set_enabled(was)
        self.m["obs.events.overhead_share"] = on / off - 1.0

    def snapshot_section(self) -> None:
        """``ParallelExecutor`` over the mapped snapshot against the
        same batch replayed through ``IndexSnapshot``'s stages."""
        from repro.exec import ParallelExecutor

        low, high = self.low, self.high
        self.unsharded = ex1 = ParallelExecutor(self.mapped, workers=1)
        records = self.replay_loop(
            self.budget("snapshot"),
            lambda qs: ex1.query_batch(qs, low, high),
            "exec.parallel:query_batch",
            lambda bid, qs: staged_batch(
                self.tr, self.mapped, qs, low, high, bid, "exec.snapfile"
            ),
        )
        selfs, totals = self.stage_sums(records)
        n = sum(r["n"] for r in records)
        wall = sum(r["wall"] for r in records)
        staged = totals["bench:staged_glue"]
        self.m.update({
            "exec.parallel.batch_ms_per_query": wall / n * 1e3,
            "exec.parallel.dispatch_overhead_ms_per_batch":
                (wall - staged) / len(records) * 1e3,
            "exec.snapfile.probe_ms_per_query":
                totals["exec.snapfile:probe_tables"] / n * 1e3,
        })
        self.ledgers["snapshot"] = self.executor_rows(selfs, totals, wall, n) + [
            ("= ParallelExecutor.query_batch wall (batches of 64)", wall / n * 1e3)
        ]
        singles = []
        for i in range(self.sized(100, 32, 8, "snapshot")):
            pos = i % len(self.pool)
            batch, took = self.timed(lambda: ex1.query_batch([self.pool[pos]], low, high))
            self.queue_check(pos, batch.results[0].answers)
            singles.append(took)
        self.m["exec.parallel.single_query_ms"] = np.median(singles, axis=0) * 1e3
        # workers=2 over workers=1, then process over thread at workers=2:
        # which backend ROADMAP item 3 may delete.
        both = list(self.ctx.rc.cpus)  # the traced pass clocks every CPU
        some = [[self.pool[p] for p in self.full[i % len(self.full)]] for i in range(FIXED_ROUNDS)]

        def race(a, b):
            ta, tb = np.zeros(2), np.zeros(2)
            for queries in some:
                ta += self.timed(lambda: a.query_batch(queries, low, high), both)[1]
                tb += self.timed(lambda: b.query_batch(queries, low, high), both)[1]
            return ta / tb

        affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, both)
        try:
            with ParallelExecutor(self.mapped, workers=2) as ex2:
                self.m["exec.parallel.workers2_qps_ratio"] = race(ex1, ex2)
                with ParallelExecutor(self.mapped, workers=2, backend="process") as exp:
                    exp.query_batch(some[0], low, high)  # spawn + map, not timed
                    self.m["exec.procpool.process_qps_ratio"] = race(ex2, exp)
        finally:
            os.sched_setaffinity(0, affinity)

    def executor_rows(self, selfs, totals, wall, n):
        """Ledger rows of one executor path, ms a query."""
        zero = np.zeros(2)
        per_q = lambda v: v / n * 1e3  # noqa: E731
        staged = totals["bench:staged_glue"]
        return [
            ("core.minhash (signatures)", per_q(selfs.get("core.minhash:signature_matrix", zero))),
            ("core.embedding (ECC + pack)", per_q(selfs.get("core.embedding:encode_many", zero))),
            ("exec.snapfile (probe mapped tables)",
             per_q(totals.get("exec.snapfile:probe_tables", zero))),
            ("exec.snapshot (fetch accounting)",
             per_q(totals.get("exec.snapshot:charge_fetches", zero))),
            ("exec.columnar (verify_one)", per_q(totals.get("exec.columnar:verify", zero))),
            ("exec.snapshot (plan, set algebra)", per_q(selfs["bench:staged_glue"])),
            ("exec.parallel.dispatch_overhead (residual)", per_q(wall - staged)),
        ]

    def shard_section(self) -> None:
        """``ShardedExecutor`` K=2 against each shard run alone, the
        router on its own, and the unsharded executor on the same
        batches."""
        from repro.exec import ParallelExecutor
        from repro.exec.route import ShardRouter
        from repro.exec.shard import ShardedExecutor, build_sharded, open_sharded

        low, high = self.low, self.high
        path = self.ctx.workdir / "lab.shards"
        build_sharded(
            self.sets, path, n_shards=2, partition="hash", tune="mirror",
            seed=wl.BUILD_SEED, plan=self.plan, dist=self.dist, **wl.BUILD,
        )
        sharded = open_sharded(path)
        live = sharded.live_shards
        router = ShardRouter(sharded.routing)
        alone = {i: ParallelExecutor(sharded.shards[i], workers=1) for i in live}
        both = list(self.ctx.rc.cpus)  # the traced pass clocks every CPU
        affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, both)
        acc = {k: np.zeros(2) for k in
               ("wall", "slowest", "merge", "slowest_alone", "unsharded", "route")}
        skews, pruned, pairs, n, n_rounds = [], 0, 0, 0, 0
        selfs_sum: dict[str, np.ndarray] = {}
        totals_sum: dict[str, np.ndarray] = {}
        try:
            with ShardedExecutor(sharded, workers=1, backend="thread", route="safe") as ex:
                ex.query_batch([self.pool[p] for p in self.full[0]], low, high)
                budget = self.budget("shard")
                plain = []
                if budget:
                    t_end = clock() + budget / 4
                    for positions in self.full:
                        queries = [self.pool[p] for p in positions]
                        plain.append(self.timed(lambda: ex.query_batch(queries, low, high), both)[1])
                        if clock() >= t_end:
                            break
                    budget *= 0.75
                walls = []
                for batch_id, positions, queries in self.rounds(budget):
                    with self.tr.span("exec.shard:query_batch", batch_id) as span:
                        batch = ex.query_batch(queries, low, high)
                    wall = self.t(span[1], span[2], both)
                    walls.append(wall)
                    self.queue_batch(positions, batch)
                    stats = batch.exec_stats
                    shard_walls = list(stats["shard_wall_seconds"].values())
                    skews.append(max(shard_walls) / (sum(shard_walls) / len(shard_walls)))
                    scale = wall / wall[1]  # exec_stats seconds are raw; scale alike
                    acc["wall"] += wall
                    acc["slowest"] += max(shard_walls) * scale
                    acc["merge"] += stats["merge_seconds"] * scale
                    query_sets = [frozenset(q) for q in queries]
                    with self.tr.span("exec.route:route", batch_id) as span:
                        decision = router.route(query_sets, low, live)
                    acc["route"] += self.t(span[1], span[2], both)
                    pruned += decision.pruned_pairs
                    pairs += decision.n_pairs
                    times = {}
                    for i in live:
                        kept = decision.kept[i]
                        vrows = None if len(kept) == len(queries) else kept
                        with self.tr.span(f"exec.parallel:shard{i}_alone", batch_id) as span:
                            sbatch = alone[i].query_batch(queries, low, high, verify_rows=vrows)
                        times[i] = (self.t(span[1], span[2], both), sbatch, vrows)
                    slow = max(times, key=lambda i: times[i][0][1])
                    acc["slowest_alone"] += times[slow][0]
                    mark = self.tr.mark()
                    staged = staged_batch(
                        self.tr, sharded.shards[slow], queries, low, high, batch_id,
                        "exec.snapfile", verify_rows=times[slow][2],
                    )
                    self.same("shard alone", staged[0],
                              [r.answers for r in times[slow][1].results])
                    s, t = self.span_times(mark)
                    _add_into(selfs_sum, s)
                    _add_into(totals_sum, t)
                    with self.tr.span("exec.parallel:unsharded", batch_id) as span:
                        ubatch = self.unsharded.query_batch(queries, low, high)
                    acc["unsharded"] += self.t(span[1], span[2], both)
                    self.same("sharded vs unsharded answers",
                              [r.answers for r in batch.results],
                              [r.answers for r in ubatch.results])
                    n += len(queries)
                    n_rounds += 1
                if plain:
                    self.m["bench.tracing.overhead_share"] = (
                        np.median(walls, axis=0) / np.median(plain, axis=0) - 1.0
                    )
        finally:
            os.sched_setaffinity(0, affinity)
            for executor in alone.values():
                executor.close()
            self.unsharded.close()
        per_batch = lambda v: v / n_rounds * 1e3  # noqa: E731
        self.m.update({
            "exec.shard.batch_ms_per_query": acc["wall"] / n * 1e3,
            "exec.shard.slowest_shard_ms_per_batch": per_batch(acc["slowest"]),
            "exec.shard.skew": float(np.mean(skews)),
            "exec.shard.merge_ms_per_batch": per_batch(acc["merge"]),
            "exec.shard.overhead_ms_per_batch": per_batch(acc["wall"] - acc["slowest_alone"]),
            "exec.shard.qps_vs_unsharded": acc["unsharded"] / acc["wall"],
            "exec.route.route_ms_per_batch": per_batch(acc["route"]),
            "exec.route.pruned_share": pruned / max(1, pairs),
        })
        rows = self.executor_rows(selfs_sum, totals_sum, acc["slowest_alone"], n)
        self.ledgers["shard"] = (
            [("slowest shard alone: " + name, v) for name, v in rows]
            + [("exec.shard.overhead (residual: route, scatter, merge, GIL)",
                (acc["wall"] - acc["slowest_alone"]) / n * 1e3),
               ("= ShardedExecutor.query_batch wall", acc["wall"] / n * 1e3)]
        )

    def serve_section(self) -> None:
        """``repro serve`` under closed-loop saturation and four
        open-loop rates, against the executor alone at the batch size
        the coalescer reached."""
        from repro.exec import ParallelExecutor
        from repro.serve import protocol

        ctx = self.ctx
        others = [c for c in ctx.rc.cpus if c not in ctx.driver_cpus]
        server_cpu = (others or ctx.program_cpus)[0]
        on_server = [server_cpu]
        budget = self.budget("serve")
        requests = serve_requests(self.pool)

        def take(replies):
            for reply in replies:
                if reply.ok:
                    self.queue_check(reply.tag[0], reply.answers, reply.tag[1])
                else:
                    ctx.checker.op(False, f"request failed: {reply.error}")
            return [r for r in replies if r.ok]

        late, p95s, held = [], {}, []
        n_rate = self.sized(150, 60, 8, "serve")  # open-loop requests per rate
        with client.Server(self.snap_dir, SRC_DIR, ctx.workdir / "lab-serve.log",
                           server_cpu) as server:
            self.m["serve.server.spawn_to_ready_ms"] = self.t(
                server.spawned_at, server.ready_at, on_server
            ) * 1e3
            with client.Client(server.port, 2) as c:
                take(c.closed_loop(requests, 16, count=wl.BATCH))
                halves = []
                for _ in range(2):
                    cpu0 = server.cpu_seconds()
                    replies = take(c.closed_loop(requests, 16, (budget or self.sized(0, 2.0, 0.4)) / 2))
                    cpu_s = server.cpu_seconds() - cpu0
                    wall = self.t(min(r.sent for r in replies),
                                  max(r.done for r in replies), on_server)
                    halves.append((replies, wall, cpu_s))
                # The second half is the one whose requests become spans.
                replies, wall, cpu_s = halves[1]
                for reply in replies:
                    self.tr.spans.append(
                        ["serve.server:request", reply.sent, reply.done, -1, reply.tag[0]]
                    )
                served_ms = wall / len(replies) * 1e3
                if budget:
                    self.m["bench.tracing.overhead_share"] = (
                        served_ms / (halves[0][1] / len(halves[0][0]) * 1e3) - 1.0
                    )
                batches = sum(1.0 / r.batch_size for r in replies)
                mean_batch = len(replies) / batches
                self.m.update({
                    "serve.coalescer.queue_wait_ms_p50":
                        float(np.median([r.queue_ms for r in replies])),
                    "serve.coalescer.batch_size_mean": mean_batch,
                    "serve.server.cpu_s_per_1k_queries": cpu_s / len(replies) * 1e3,
                })
                for rate in RATES:
                    rng = np.random.default_rng([ctx.seed, rate])
                    offsets = np.cumsum(rng.exponential(1.0 / rate, n_rate))
                    sent = c.open_loop(requests, offsets.tolist())
                    good = take(sent)
                    late.extend((r.sent - r.due) * 1e3 for r in sent)
                    lat = [self.t(r.due, r.done, on_server) * 1e3 for r in good]
                    p95 = (
                        np.array([percentile([v[k] for v in lat], 0.95) for k in (0, 1)])
                        if lat else np.array([1e9, 1e9])
                    )
                    p95s[rate] = p95
                    third = max(1, len(lat) // 3)
                    growing = bool(lat) and (
                        np.mean([v[1] for v in lat[-third:]])
                        > 2 * np.mean([v[1] for v in lat[:third]]) + 50.0
                    )
                    held.append(
                        len(good) == len(sent) and p95[0] <= P95_LIMIT_MS and not growing
                    )
        for rate in RATES:
            self.m[f"serve.server.rate_{rate}_p95_ms"] = p95s[rate]
        # The highest rate below the first that fails.
        n_held = held.index(False) if False in held else len(held)
        self.m["serve.server.max_rate_ok"] = float(RATES[n_held - 1] if n_held else 0)
        self.m["serve.client.late_ms_p95"] = percentile(late, 0.95)
        # The executor alone, in this process, at the batch size served.
        size = max(1, round(mean_batch))
        n_exec = self.sized(256, 128, 64, "serve")
        positions = [i % len(self.pool) for i in range(n_exec)]
        acc_wall, n = np.zeros(2), 0
        with ParallelExecutor(self.mapped, workers=1) as ex:
            for k, start in enumerate(range(0, n_exec, size)):
                chunk = positions[start : start + size]
                rng = wl.NARROW_RANGE if k % 5 == 4 else wl.RANGE
                queries = [self.pool[p] for p in chunk]
                self._next_batch += 1
                with self.tr.span("exec.parallel:query_batch", self._next_batch) as span:
                    batch = ex.query_batch(queries, *rng)
                acc_wall += self.t(span[1], span[2])
                self.queue_batch(chunk, batch, rng)
                n += len(chunk)
        exec_end = self.tr.mark()
        for k, start in enumerate(range(0, n_exec, size)):
            chunk = positions[start : start + size]
            rng = wl.NARROW_RANGE if k % 5 == 4 else wl.RANGE
            staged_batch(self.tr, self.mapped, [self.pool[p] for p in chunk], *rng,
                         -1, "exec.snapfile")
        selfs, totals = self.span_times(exec_end)
        exec_ms = acc_wall / n * 1e3
        self.m["serve.server.wire_overhead_ms_per_query"] = served_ms - exec_ms
        self.ledgers["serve"] = (
            [("serve.server.wire_overhead (residual: protocol, coalescer, event loop, sockets)",
              served_ms - exec_ms)]
            + self.executor_rows(selfs, totals, acc_wall, n)
            + [(f"= served wall a query at saturation (mean batch {mean_batch:.1f}; "
                f"executor alone {exec_ms[0]:.3f} ms)", served_ms)]
        )
        # Protocol codec on real lines and real answers.
        lines = [client.encode_request(i, q, lo, hi)
                 for i, (_, q, lo, hi) in enumerate(requests[:256])]
        _, took = self.timed(lambda: [protocol.decode_request(line) for line in lines])
        self.m["serve.protocol.decode_us_per_request"] = took / len(lines) * 1e6
        sample = halves[1][0][:256]
        _, took = self.timed(lambda: [
            protocol.encode_line(protocol.response_ok(i, protocol.QueryAnswer(
                answers=r.answers, n_candidates=len(r.answers),
                batch_size=r.batch_size, queue_ms=r.queue_ms,
            )))
            for i, r in enumerate(sample)
        ])
        self.m["serve.protocol.encode_us_per_response"] = took / len(sample) * 1e6

    def mutate_section(self) -> None:
        """Insert / delete / query cycles on the thawed live index, with
        each insert's embedding and hashing timed again on their own."""
        index, low, high, tr = self.index, self.low, self.high, self.tr
        index.thaw()
        churn = BuildChurn(self.ctx)
        churn.adopt(index)
        budget = self.budget("mutate")
        acc = {k: np.zeros(2) for k in ("insert", "delete", "query", "embed", "hash")}
        plain, walls = [], []
        counts = {"ins": 0, "del": 0, "cycles": 0}
        last = []

        def cycle(traced: bool) -> None:
            i = counts["cycles"]
            counts["cycles"] += 1
            new_sets, victims = churn.plan_write(wl.CHURN_INSERTS, wl.CHURN_DELETES)
            queries = churn.cycle_queries(i, new_sets, victims)
            self._next_batch += 1
            t0 = clock()
            with tr.span("core.index:insert", self._next_batch) as s_ins:
                new_sids = [index.insert(s) for s in new_sets]
            with tr.span("core.index:delete", self._next_batch) as s_del:
                for sid in victims:
                    index.delete(sid)
            with tr.span("core.index:query_batch", self._next_batch) as s_q:
                batch = index.query_batch(queries, low, high)
            took = self.t(t0, clock())
            churn.apply(new_sets, new_sids, victims)
            for j, (query, result) in enumerate(zip(queries, batch.results)):
                self.ctx.checker.answers(
                    result.answers, churn.oracle.answers(query, low, high),
                    f"traced cycle {i} query {j}",
                )
            if traced:
                walls.append(took)
                acc["insert"] += self.t(s_ins[1], s_ins[2])
                acc["delete"] += self.t(s_del[1], s_del[2])
                acc["query"] += self.t(s_q[1], s_q[2])
                with tr.span("core.embedding:embed", self._next_batch) as span:
                    for s in new_sets:
                        index.embedder.embed(s)
                acc["embed"] += self.t(span[1], span[2])
                counts["ins"] += len(new_sets)
                counts["del"] += len(victims)
                last[:] = queries
            else:
                plain.append(took)
            with tr.span("exec.columnar:hash_set", self._next_batch) as span:
                hashed = [hash_set(s) for s in new_sets]
            if traced:
                acc["hash"] += self.t(span[1], span[2])
            for sid, (arr, collided) in zip(new_sids, hashed):
                self.chash[sid] = arr
                if collided:
                    self.fallback.add(sid)

        t_plain = clock() + budget / 4
        while budget and clock() < t_plain:
            cycle(traced=False)
        t_end = clock() + budget * 0.75
        cycle(traced=True)
        while clock() < t_end:
            cycle(traced=True)
        n_ins, n_del = counts["ins"], counts["del"]
        if plain:
            self.m["bench.tracing.overhead_share"] = (
                np.median(walls, axis=0) / np.median(plain, axis=0) - 1.0
            )
        table_insert = acc["insert"] - acc["embed"] - acc["hash"]
        self.m.update({
            "core.index.insert_ms_per_set": acc["insert"] / n_ins * 1e3,
            "core.index.delete_ms_per_set": acc["delete"] / n_del * 1e3,
            "storage.hashtable.insert_us_per_set": table_insert / n_ins * 1e6,
        })
        # Split the cycle's query batch by replaying the last one, stage
        # by stage, on a fresh frozen view of the churned index.  The
        # replay runs on tables the cycle's own query already touched,
        # so what a first read after writes costs beyond the stages
        # (the live tables rebuild their bucket directories) lands in
        # the residual.
        frozen = index.freeze()
        stage_mark = tr.mark()
        staged = staged_batch(tr, frozen, last, low, high, -1, "core.filter_index",
                              (index, self.chash, self.fallback))
        batch = index.query_batch(last, low, high)
        self.same("churned query_batch", staged[0], [r.answers for r in batch.results])
        _, totals = self.span_times(stage_mark)
        cycles = len(walls)
        per_cycle = lambda v: v / cycles * 1e3  # noqa: E731
        stage = lambda name: totals.get(name, np.zeros(2)) * cycles  # noqa: E731
        parts = {
            "embed": stage("core.embedding:encode_many"),
            "probe": stage("core.filter_index:probe_tables"),
            "fetch": stage("storage.setstore:get"),
            "verify": stage("exec.columnar:verify"),
        }
        rest = acc["query"] - sum(parts.values())
        self.ledgers["mutate"] = [
            ("insert: core.embedding + core.minhash (embed)", per_cycle(acc["embed"])),
            ("insert: exec.columnar (hash_set)", per_cycle(acc["hash"])),
            ("insert: storage.hashtable + storage.setstore (residual)", per_cycle(table_insert)),
            ("delete: core.index.delete", per_cycle(acc["delete"])),
            ("query: core.embedding + core.minhash", per_cycle(parts["embed"])),
            ("query: core.filter_index (probe, frozen view)", per_cycle(parts["probe"])),
            ("query: storage.setstore (fetch)", per_cycle(parts["fetch"])),
            ("query: exec.columnar (verify)", per_cycle(parts["verify"])),
            ("query: core.index.unattributed (residual: first read after writes)",
             per_cycle(rest)),
            (f"= cycle wall ({wl.CHURN_INSERTS} inserts, {wl.CHURN_DELETES} deletes, "
             f"{wl.CHURN_QUERIES} queries)",
             per_cycle(acc["insert"] + acc["delete"] + acc["query"])),
        ]

    # -- report --------------------------------------------------------------

    def finish(self):
        lo, hi = self.ctx.rc.snapshot().speed_range()
        self.m["bench.refclock.speed_min"] = lo
        self.m["bench.refclock.speed_max"] = hi
        metrics = {}
        for name, value in self.m.items():
            if isinstance(value, np.ndarray):
                metrics[name] = (float(value[0]), float(value[1]))
            else:
                metrics[name] = (float(value), None)
        own = {
            "batch_planted": "live", "serve_weblog": "serve",
            "shard_planted": "shard", "build_churn": "mutate",
        }[self.own]
        lines, ledgers = [], {}
        for key, rows in self.ledgers.items():
            total = rows[-1][1][0]
            tag = " (this workload's own path)" if key == own else ""
            unit = "ms/cycle" if key == "mutate" else "ms/query"
            lines.append(f"# ledger {key}{tag}, {unit} normalised (raw), share of wall")
            ledgers[key] = []
            for name, value in rows:
                share = f"{value[0] / total:7.1%}"
                lines.append(f"#   {value[0]:9.4f} ({value[1]:9.4f}) {share}  {name}")
                ledgers[key].append(
                    {"row": name, "normalised": float(value[0]), "raw": float(value[1])}
                )
        trace_path = RESULTS_DIR / f"trace-{self.own}.json"
        self.tr.write_chrome(trace_path)
        detail = {
            "lines": lines, "ledgers": ledgers, "own_ledger": own,
            "spans": len(self.tr.spans),
            "chrome_trace": str(trace_path.relative_to(RESULTS_DIR.parent.parent)),
        }
        return metrics, detail
