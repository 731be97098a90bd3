"""Load generator for the coalescing query server.

Drives ``repro serve`` with many concurrent client connections in a
closed loop (each connection keeps ``pipeline`` requests in flight and
sends the next as soon as an answer lands), measuring what the server
actually delivers: sustained QPS, client-observed latency percentiles,
the micro-batch sizes the coalescer discovered, and typed error
counts.  The answers come back attached to their query index, so a
harness can check them bit-for-bit against a direct ``query_batch`` on
the same snapshot -- the serving equivalence gate.

Used by ``repro loadgen`` (CLI) and the ``serve-smoke`` CI job.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.obs.top import quantile
from repro.serve import protocol


@dataclass
class LoadgenResult:
    """Everything one loadgen run observed."""

    n_sent: int = 0
    n_ok: int = 0
    wall_seconds: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    #: query index -> answers ``[(sid, sim), ...]`` (last response wins;
    #: every query in the pool is answered at least once when
    #: ``total >= len(queries)``).
    answers: dict[int, list[tuple[int, float]]] = field(default_factory=dict)
    #: query index -> sorted candidate sids (``return_candidates`` runs).
    candidates: dict[int, list[int]] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)
    batch_sizes: list[int] = field(default_factory=list)
    queue_ms: list[float] = field(default_factory=list)

    @property
    def qps(self) -> float:
        return self.n_ok / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def latency_quantile(self, q: float) -> float:
        """Exact client-latency quantile (:func:`repro.obs.top.quantile`)."""
        return quantile(self.latencies_ms, q)

    def summary(self) -> dict[str, Any]:
        sizes = self.batch_sizes
        return {
            "n_sent": self.n_sent,
            "n_ok": self.n_ok,
            "errors": dict(self.errors),
            "wall_seconds": round(self.wall_seconds, 4),
            "qps": round(self.qps, 1),
            "latency_ms": {
                "p50": round(self.latency_quantile(0.50), 3),
                "p90": round(self.latency_quantile(0.90), 3),
                "p99": round(self.latency_quantile(0.99), 3),
                "max": round(max(self.latencies_ms, default=0.0), 3),
            },
            "queue_ms_p50": round(quantile(self.queue_ms, 0.50), 3),
            "batch_size": {
                "mean": round(sum(sizes) / len(sizes), 2) if sizes else 0.0,
                "max": max(sizes, default=0),
            },
        }


async def run_loadgen(
    host: str,
    port: int,
    queries: Sequence,
    low: float,
    high: float,
    *,
    connections: int = 4,
    total: int | None = None,
    duration: float | None = None,
    strategy: str = "index",
    pipeline: int = 1,
    return_candidates: bool = False,
) -> LoadgenResult:
    """Run a closed-loop burst against a live server.

    ``total`` requests are spread round-robin over ``connections``
    (default: one pass over ``queries``); with ``duration`` set, each
    connection instead cycles its share until the deadline.  Returns
    the merged :class:`LoadgenResult`.
    """
    if not queries:
        raise ValueError("loadgen needs at least one query set")
    if connections < 1:
        raise ValueError(f"connections must be >= 1, got {connections}")
    if pipeline < 1:
        raise ValueError(f"pipeline must be >= 1, got {pipeline}")
    if total is None:
        total = len(queries)
    # Deterministic work split: request i goes to connection i % C and
    # queries the pool at index i % len(queries).
    shares: list[list[tuple[int, int]]] = [[] for _ in range(connections)]
    for i in range(total):
        shares[i % connections].append((i, i % len(queries)))
    loop = asyncio.get_running_loop()
    deadline = loop.time() + duration if duration is not None else None
    result = LoadgenResult()
    t0 = time.perf_counter()
    workers = [
        _conn_worker(
            host, port, share, queries, low, high, strategy,
            pipeline, return_candidates, deadline, result,
        )
        for share in shares if share
    ]
    await asyncio.gather(*workers)
    result.wall_seconds = time.perf_counter() - t0
    return result


async def _conn_worker(
    host: str,
    port: int,
    share: list[tuple[int, int]],
    queries: Sequence,
    low: float,
    high: float,
    strategy: str,
    pipeline: int,
    return_candidates: bool,
    deadline: float | None,
    result: LoadgenResult,
) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    loop = asyncio.get_running_loop()
    try:
        work = iter(_work_stream(share, deadline is not None))
        inflight: dict[int, tuple[int, float]] = {}  # rid -> (qidx, t0)
        done = False
        while not done or inflight:
            while not done and len(inflight) < pipeline:
                if deadline is not None and loop.time() >= deadline:
                    done = True
                    break
                item = next(work, None)
                if item is None:
                    done = True
                    break
                rid, qidx = item
                writer.write(protocol.encode_request(
                    rid, queries[qidx], low, high, strategy,
                    return_candidates=return_candidates,
                ))
                inflight[rid] = (qidx, time.perf_counter())
                result.n_sent += 1
            if not inflight:
                break
            await writer.drain()
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed the connection mid-burst")
            _absorb(protocol.decode_response(line), inflight, result)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _work_stream(share: list[tuple[int, int]], cycle: bool):
    rid_base = 0
    while True:
        for rid, qidx in share:
            yield rid + rid_base, qidx
        if not cycle:
            return
        rid_base += 1_000_000_000


def _absorb(
    resp: dict[str, Any],
    inflight: dict[int, tuple[int, float]],
    result: LoadgenResult,
) -> None:
    rid = resp.get("id")
    qidx, sent_at = inflight.pop(rid, (None, None))
    if not resp.get("ok"):
        etype = (resp.get("error") or {}).get("type", "unknown")
        result.errors[etype] = result.errors.get(etype, 0) + 1
        return
    if sent_at is not None:
        result.latencies_ms.append((time.perf_counter() - sent_at) * 1e3)
    result.n_ok += 1
    if qidx is not None:
        result.answers[qidx] = [
            (sid, sim) for sid, sim in resp.get("answers", [])
        ]
        if "candidates" in resp:
            result.candidates[qidx] = list(resp["candidates"])
    result.batch_sizes.append(resp.get("batch_size", 1))
    result.queue_ms.append(resp.get("queue_ms", 0.0))
