"""The four workloads as the untraced pass runs them.

Every runner has the same shape -- ``set_up`` / ``tear_down`` (set-up is
repeated and the median reported), ``throughput``, ``latency``,
``cold_start`` -- and only calls the program's public entry points.
Answers are queued on the context's checker and compared with the
oracle outside the timed intervals.
"""

from __future__ import annotations

import gc
import shutil
from collections import deque


import client
import workloads as wl
from measure import SRC_DIR, Context, Timed, clock, dir_bytes, self_peak_rss_mb


def _batches(pool, size: int = wl.BATCH) -> list[list[int]]:
    """Pool positions cut into consecutive batches."""
    return [list(range(i, min(i + size, len(pool)))) for i in range(0, len(pool), size)]


class Runner:
    """Shared plumbing: inputs, the oracle's answers for the fixed pool,
    and deferred answer checks."""

    low, high = wl.RANGE

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.sets, self.pool, self.oracle = ctx.inputs()
        self.n_sets = len(self.sets)
        self._expected: dict[tuple[float, float], list[dict[int, float]]] = {}
        self._to_check: list[tuple[int, tuple[float, float], list]] = []
        self.batches = _batches(self.pool)

    def expected(self, pos: int, rng=wl.RANGE) -> dict[int, float]:
        if rng not in self._expected:
            self._expected[rng] = [self.oracle.answers(q, *rng) for q in self.pool]
        return self._expected[rng][pos]

    def queue_check(self, pos: int, answers, rng=wl.RANGE) -> None:
        self._to_check.append((pos, rng, answers))

    def run_checks(self) -> None:
        for pos, rng, answers in self._to_check:
            self.ctx.checker.answers(answers, self.expected(pos, rng), f"pool[{pos}] {rng}")
        self._to_check.clear()

    def queue_batch(self, positions, batch, rng=wl.RANGE) -> None:
        for pos, result in zip(positions, batch.results):
            self.queue_check(pos, result.answers, rng)

    def batch_rounds(self, run_batch, seconds: float) -> list[Timed]:
        """Closed loop over the pool's full batches until ``seconds``."""
        full = [b for b in self.batches if len(b) == len(self.batches[0])]
        rounds, i, t_end = [], 0, clock() + seconds
        while not rounds or clock() < t_end:
            positions = full[i % len(full)]
            queries = [self.pool[p] for p in positions]
            t0 = clock()
            batch = run_batch(queries)
            t1 = clock()
            rounds.append(Timed(t0, t1, len(queries)))
            self.queue_batch(positions, batch)
            i += 1
        return rounds

    def single_samples(self, run_one, n: int) -> list[Timed]:
        samples = []
        for i in range(n):
            pos = i % len(self.pool)
            query = self.pool[pos]
            t0 = clock()
            result = run_one(query)
            t1 = clock()
            samples.append(Timed(t0, t1))
            self.queue_check(pos, result.answers)
        return samples

    # The in-process runners give ``run_batch`` / ``run_single``; the
    # phases below are then the same for all of them.

    def warm_up(self) -> None:
        positions = self.batches[0]
        self.queue_batch(positions, self.run_batch([self.pool[p] for p in positions]))

    def throughput(self, seconds: float) -> list[Timed]:
        return self.batch_rounds(self.run_batch, seconds)

    def latency(self, n: int) -> list[Timed]:
        return self.single_samples(self.run_single, n)

    def tear_down(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


def build_index(sets):
    from repro.core.index import SetSimilarityIndex

    return SetSimilarityIndex.build(sets, seed=wl.BUILD_SEED, **wl.BUILD)


class BatchPlanted(Runner):
    """Live ``SetSimilarityIndex.query_batch`` in batches of 64."""

    def set_up(self) -> None:
        self.index = build_index(self.sets)
        self.path = self.ctx.workdir / "index.ssi"
        self.index.save(self.path)
        self.warm_up()

    def tear_down(self) -> None:
        self.index = None
        gc.collect()

    def run_batch(self, queries):
        return self.index.query_batch(queries, self.low, self.high)

    def run_single(self, query):
        return self.index.query(query, self.low, self.high)

    def cold_start(self) -> Timed:
        from repro.core.index import SetSimilarityIndex

        t0 = clock()
        index = SetSimilarityIndex.load(self.path)
        result = index.query(self.pool[0], self.low, self.high)
        t1 = clock()
        self.queue_check(0, result.answers)
        return Timed(t0, t1)

    def artefact_bytes(self) -> int:
        return dir_bytes(self.path)


class ShardPlanted(Runner):
    """The same collection, pool and range through ``ShardedExecutor``
    over two hash-partitioned mirror shards."""

    N_SHARDS = 2
    executor = None

    def set_up(self) -> None:
        from repro.exec.shard import build_sharded

        self.path = self.ctx.workdir / "shards"
        shutil.rmtree(self.path, ignore_errors=True)
        build_sharded(
            self.sets, self.path, n_shards=self.N_SHARDS, partition="hash",
            tune="mirror", seed=wl.BUILD_SEED, **wl.BUILD,
        )
        self.executor = self._open()
        self.warm_up()

    def _open(self):
        from repro.exec.shard import ShardedExecutor, open_sharded

        return ShardedExecutor(
            open_sharded(self.path), workers=1, backend="thread", route="safe"
        )

    def tear_down(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None
            gc.collect()

    def run_batch(self, queries):
        return self.executor.query_batch(queries, self.low, self.high)

    def run_single(self, query):
        return self.executor.query(query, self.low, self.high)

    def cold_start(self) -> Timed:
        t0 = clock()
        executor = self._open()
        try:
            result = executor.query(self.pool[0], self.low, self.high)
            t1 = clock()
        finally:
            executor.close()
        self.queue_check(0, result.answers)
        return Timed(t0, t1)

    def artefact_bytes(self) -> int:
        return dir_bytes(self.path)


class BuildChurn(Runner):
    """Insert / delete / query cycles on the live index.

    A cycle inserts 16 new sets, deletes the 16 oldest live ones, then
    answers one batch of 32: 8 exact copies of sets just inserted (each
    must come back with similarity 1 -- an identical vector lands in
    the same bucket of every table), 8 copies of sets just deleted
    (their sids must be gone), 16 from the pool.  The oracle is updated
    in step, outside the timed interval.
    """

    AIMED = 8

    def set_up(self) -> None:
        self.index = build_index(self.sets)
        self.snap_dir = self.ctx.workdir / "churn.snap"
        shutil.rmtree(self.snap_dir, ignore_errors=True)
        self.index.save_snapshot(self.snap_dir)
        # The artefact a cold start serves from; sized here, in a state
        # that does not depend on how many cycles the run fits in.
        self._bytes = dir_bytes(self.snap_dir)
        self.index.query_batch(self.pool[: wl.CHURN_QUERIES], self.low, self.high)
        self.adopt(self.index)

    def adopt(self, index) -> None:
        """Start churning ``index``, freshly bulk-built from ``self.sets``."""
        self.index = index
        self.live = deque(range(self.n_sets))
        self.stored = dict(enumerate(self.sets))
        self.fresh = iter(())
        self.cursor = 0

    def tear_down(self) -> None:
        self.index = None
        gc.collect()

    def _next_inserts(self, n: int) -> list[frozenset]:
        out = []
        while len(out) < n:
            for s in self.fresh:
                out.append(s)
                if len(out) == n:
                    break
            else:
                self.cursor += 1
                self.fresh = iter(wl.churn_inserts(
                    self.sets, self.ctx.seed * 1000 + self.cursor, 1024
                ))
        return out

    def plan_write(self, n_ins: int, n_del: int):
        """The next sets to insert and the oldest live sids to delete."""
        return self._next_inserts(n_ins), [self.live.popleft() for _ in range(n_del)]

    def write(self, new_sets, victims) -> list[int]:
        """The inserts then the deletes, through the entry points."""
        new_sids = [self.index.insert(s) for s in new_sets]
        for sid in victims:
            self.index.delete(sid)
        return new_sids

    def apply(self, new_sets, new_sids, victims) -> list[frozenset]:
        """Bring the oracle and the bookkeeping up to date."""
        gone = []
        for sid, s in zip(new_sids, new_sets):
            self.ctx.checker.op(sid not in self.stored, f"insert reused sid {sid}")
            self.oracle.add(sid, s)
            self.stored[sid] = s
            self.live.append(sid)
        for sid in victims:
            self.ctx.checker.op()
            self.oracle.remove(sid)
            gone.append(self.stored.pop(sid))
        return gone

    def cycle_queries(self, i: int, new_sets, victims) -> list[frozenset]:
        n_pool = wl.CHURN_QUERIES - 2 * self.AIMED
        return (
            new_sets[: self.AIMED]
            + [self.stored[sid] for sid in victims[: self.AIMED]]
            + [self.pool[(i * n_pool + j) % len(self.pool)] for j in range(n_pool)]
        )

    def throughput(self, seconds: float) -> list[Timed]:
        rounds, i, t_end = [], 0, clock() + seconds
        while not rounds or clock() < t_end:
            new_sets, victims = self.plan_write(wl.CHURN_INSERTS, wl.CHURN_DELETES)
            queries = self.cycle_queries(i, new_sets, victims)
            t0 = clock()
            new_sids = self.write(new_sets, victims)
            batch = self.index.query_batch(queries, self.low, self.high)
            t1 = clock()
            rounds.append(Timed(t0, t1, len(queries)))
            self.apply(new_sets, new_sids, victims)
            for j, (query, result) in enumerate(zip(queries, batch.results)):
                self.ctx.checker.answers(
                    result.answers, self.oracle.answers(query, self.low, self.high),
                    f"cycle {i} query {j}",
                )
            for sid, result in zip(new_sids, batch.results[: self.AIMED]):
                self.ctx.checker.op(
                    (sid, 1.0) in result.answers,
                    f"read-your-writes: inserted sid {sid} not returned",
                )
            i += 1
        return rounds

    def latency(self, n: int) -> list[Timed]:
        """Single queries with one insert and one delete after every
        fourth (the writes are not latency samples)."""
        samples = []
        for i in range(n):
            query = self.pool[i % len(self.pool)]
            t0 = clock()
            result = self.index.query(query, self.low, self.high)
            t1 = clock()
            samples.append(Timed(t0, t1))
            self.ctx.checker.answers(
                result.answers, self.oracle.answers(query, self.low, self.high),
                f"latency query {i}",
            )
            if i % 4 == 3:
                new_sets, victims = self.plan_write(1, 1)
                self.apply(new_sets, self.write(new_sets, victims), victims)
        return samples

    def cold_start(self) -> Timed:
        from repro.exec import ParallelExecutor, open_snapshot

        out = self.ctx.workdir / "cold.snap"
        shutil.rmtree(out, ignore_errors=True)
        query = self.pool[0]
        t0 = clock()
        self.index.save_snapshot(out)  # freeze -> write -> thaw
        with ParallelExecutor(open_snapshot(out), workers=1) as executor:
            batch = executor.query_batch([query], self.low, self.high)
        t1 = clock()
        self.ctx.checker.answers(
            batch.results[0].answers,
            self.oracle.answers(query, self.low, self.high), "cold start",
        )
        return Timed(t0, t1)

    def artefact_bytes(self) -> int:
        return self._bytes


def serve_requests(pool) -> list[tuple]:
    """``((position, range), query, low, high)`` requests cycling the
    pool, every fifth on the narrow range; five passes, so the 80/20 mix
    meets every query."""
    requests = []
    for i in range(5 * len(pool)):
        pos = i % len(pool)
        rng = wl.NARROW_RANGE if i % 5 == 4 else wl.RANGE
        requests.append(((pos, rng), pool[pos], *rng))
    return requests


class ServeWeblog(Runner):
    """``repro serve`` on CPU 0, this process as the client on CPU 1.

    Throughput: two connections, sixteen requests in flight on each,
    every fifth request on the narrow range so the coalescer holds two
    keys and batches stay partial.  Latency: one connection, one request
    in flight -- what a caller that waits for each reply sees.  (Open-
    loop latency at fixed rates is in the traced pass: a server at a
    third of its capacity turns a 1.3x slower host into a 2x longer
    queue, which no reference clock divides out, so it cannot hold a
    bound here.)
    """

    CONNECTIONS = 2
    DEPTH = 16

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.server_cpu = ctx.program_cpus[0]
        self.requests = serve_requests(self.pool)
        self.server = None
        self.client = None

    def launch(self, tag: str) -> client.Server:
        return client.Server(
            self.snap_dir, SRC_DIR, self.ctx.workdir / f"serve-{tag}.log",
            self.server_cpu,
        )

    def set_up(self) -> None:
        index = build_index(self.sets)
        self.snap_dir = self.ctx.workdir / "weblog.snap"
        shutil.rmtree(self.snap_dir, ignore_errors=True)
        index.save_snapshot(self.snap_dir)
        del index
        gc.collect()
        self.server = self.launch("main").__enter__()
        self.client = client.Client(self.server.port, self.CONNECTIONS)
        self.take(self.client.closed_loop(self.requests, self.DEPTH, count=wl.BATCH))

    def tear_down(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self._rss = self.server.peak_rss_mb()
            self.server.__exit__(None, None, None)
            self.server = None

    def take(self, replies) -> list:
        """Queue every reply for checking; failures count at once."""
        for reply in replies:
            if reply.ok:
                pos, rng = reply.tag
                self.queue_check(pos, reply.answers, rng)
            else:
                self.ctx.checker.op(False, f"request failed: {reply.error}")
        return replies

    def throughput(self, seconds: float) -> list[Timed]:
        start = clock()
        replies = self.take(self.client.closed_loop(self.requests, self.DEPTH, seconds))
        done = sorted(r.done for r in replies if r.ok)
        edges = [start] + done[wl.BATCH - 1 :: wl.BATCH]
        self.phase = Timed(start, done[-1], len(done))
        return [Timed(a, b, wl.BATCH) for a, b in zip(edges, edges[1:])]

    def latency(self, n: int) -> list[Timed]:
        with client.Client(self.server.port, 1) as one:
            replies = self.take(one.closed_loop(self.requests, 1, count=n))
        return [Timed(r.sent, r.done) for r in replies if r.ok]

    def cold_start(self) -> Timed:
        pos = 0
        with self.launch("cold") as server:
            with client.Client(server.port, 1) as c:
                (reply,) = self.take(
                    c.closed_loop([((pos, wl.RANGE), self.pool[pos], *wl.RANGE)], 1, count=1)
                )
        return Timed(server.spawned_at, reply.done)

    def artefact_bytes(self) -> int:
        return dir_bytes(self.snap_dir)

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb() if self.server is not None else self._rss


RUNNERS = {
    "batch_planted": BatchPlanted,
    "serve_weblog": ServeWeblog,
    "shard_planted": ShardPlanted,
    "build_churn": BuildChurn,
}
