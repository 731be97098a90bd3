"""Always-on coalescing query server over a mapped snapshot.

:class:`QueryServer` is the "millions of users" entry point: an
asyncio TCP server speaking the newline-delimited JSON protocol
(:mod:`repro.serve.protocol`) that

- opens one :class:`~repro.exec.snapfile.MappedSnapshot` (O(ms), page
  cache shared with every other consumer of the directory),
- admits concurrent single queries from many connections, rejecting
  with a typed ``overloaded`` response once ``max_pending`` requests
  wait (explicit backpressure, never a silent drop),
- coalesces admitted requests into ``query_batch`` micro-batches per
  ``(low, high, strategy)`` key under a tunable, arrival-rate-adaptive
  window (:mod:`repro.serve.coalescer`),
- dispatches each micro-batch to a
  :class:`~repro.exec.parallel.ParallelExecutor` (or, for a sharded
  directory, a :class:`~repro.exec.shard.ShardedExecutor`) on a
  dedicated dispatch thread -- the event loop never blocks on query
  work, and batches are serialized because the executor mutates shared
  cost-model state.  On the thread backend the batch runs on that
  dispatch thread; on the process backend it fans out to one
  ``workers``-wide process pool,
- demultiplexes per-request answers back to their connections.  Each
  request's response is written by its own connection task under a
  per-connection lock, so one slow client can only stall itself.

Robustness is part of the contract: malformed JSON, invalid requests
and oversized lines are answered with typed errors and the connection
keeps serving (an oversized line is consumed through its terminating
newline so framing resynchronizes); half-closed sockets get their
answers before the connection winds down; client disconnects cancel
only that client's pending requests.  ``SIGTERM``/``SIGINT`` trigger a
graceful drain: stop accepting, answer everything pending, flush
writes, then close.

Serving is instrumented end to end: ``serve.*`` counters/gauges, HDR
histograms (:mod:`repro.obs.hdr`) of request latency, queue wait and
``serve.batch_size`` (the sizes the coalescer discovers), and one
``record_query`` event per request alongside the executor's per-batch
events -- ``repro top`` over the exported event log shows the service
live.
"""

from __future__ import annotations

import asyncio
import logging
import signal
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.obs import events, metrics
from repro.serve import protocol
from repro.serve.coalescer import Coalescer, DrainingError, OverloadedError

logger = logging.getLogger("repro.serve")

_CONNECTIONS = metrics.counter("serve.connections")
_OPEN_CONNECTIONS = metrics.gauge("serve.open_connections")
_REQUESTS = metrics.counter("serve.requests")
_RESPONSES = metrics.counter("serve.responses")
_ERRORS = metrics.counter("serve.errors")
_OVERLOADS = metrics.counter("serve.overloads")
_BATCHES = metrics.counter("serve.batches")
_BATCH_SIZE = metrics.hdr("serve.batch_size")
_QUEUE_DEPTH = metrics.gauge("serve.queue_depth")
_LATENCY_MS = metrics.hdr("serve.request_latency_ms")
_QUEUE_WAIT_MS = metrics.hdr("serve.queue_wait_ms")

_READ_CHUNK = 1 << 16


@dataclass
class ServeConfig:
    """Tunables for :class:`QueryServer`; CLI flags map 1:1.

    ``workers`` sizes the process backend's one pool -- for a sharded
    directory the fleet's one pool, whatever the shard count.  The
    thread backend has no pool: every stage runs on the dispatch
    thread, and ``workers`` is ignored."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 -> ephemeral; read QueryServer.port after start()
    workers: int = 1
    backend: str = "thread"
    max_batch: int = 64
    max_wait_ms: float = 2.0
    max_pending: int = 1024
    adaptive: bool = True
    max_line_bytes: int = protocol.MAX_LINE_BYTES
    drain_grace_s: float = 5.0


class QueryServer:
    """One snapshot, one coalescer, many connections.

    ``snapshot`` is a saved snapshot directory path or an opened
    :class:`~repro.exec.snapfile.MappedSnapshot`.  Use as::

        server = QueryServer(snap_dir, ServeConfig(port=7407))
        await server.start()
        await server.serve_forever()   # returns after drain
    """

    def __init__(self, snapshot, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self._snapshot_ref = snapshot
        self._server: asyncio.AbstractServer | None = None
        self._executor = None
        self._dispatch_pool: ThreadPoolExecutor | None = None
        self._coalescer: Coalescer | None = None
        self._conns: set[asyncio.StreamWriter] = set()
        self._active_requests: set[asyncio.Task] = set()
        self._stop = asyncio.Event()
        self._draining = False
        self._drained = False
        self.port: int | None = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Open the snapshot, spin up the executor pool, bind the
        socket.  ``self.port`` holds the bound port afterwards."""
        from repro.exec import ParallelExecutor, open_snapshot
        from repro.exec.shard import (
            ShardedExecutor,
            ShardedSnapshot,
            is_sharded,
            open_sharded,
        )
        from repro.exec.snapfile import MappedSnapshot

        cfg = self.config
        snapshot = self._snapshot_ref
        if not isinstance(snapshot, (MappedSnapshot, ShardedSnapshot)):
            if is_sharded(snapshot):
                snapshot = open_sharded(snapshot)
            else:
                snapshot = open_snapshot(snapshot)
        self.snapshot = snapshot
        if isinstance(snapshot, ShardedSnapshot):
            # Scatter-gather over the shard fleet; per-shard telemetry
            # lands under serve.shard.* (latency HDRs, candidate and
            # routing counters, wall-skew gauge).
            self._executor = ShardedExecutor(
                snapshot, workers=cfg.workers, backend=cfg.backend,
                metric_prefix="serve.shard",
            )
        else:
            self._executor = ParallelExecutor(
                snapshot, workers=cfg.workers, backend=cfg.backend
            )
        # One dispatch thread: query_batch mutates shared cost-model
        # state, so micro-batches are serialized here while new arrivals
        # keep coalescing behind them.
        self._dispatch_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-dispatch"
        )
        self._coalescer = Coalescer(
            self._dispatch_batch,
            max_batch=cfg.max_batch,
            max_wait=cfg.max_wait_ms / 1e3,
            max_pending=cfg.max_pending,
            adaptive=cfg.adaptive,
            on_batch=self._on_batch_start,
        )
        self._server = await asyncio.start_server(
            self._handle_conn, cfg.host, cfg.port,
            family=socket.AF_INET if ":" not in cfg.host else socket.AF_UNSPEC,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info(
            "serving snapshot (%d sets) on %s:%d -- backend=%s workers=%d "
            "max_batch=%d max_wait=%.1fms max_pending=%d",
            snapshot.n_sets, cfg.host, self.port, cfg.backend,
            self._executor.workers,
            cfg.max_batch, cfg.max_wait_ms, cfg.max_pending,
        )

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful drain (call from the loop)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, self.request_drain)

    def request_drain(self) -> None:
        """Begin a graceful shutdown (idempotent, signal-safe)."""
        self._stop.set()

    async def serve_forever(self) -> None:
        """Serve until :meth:`request_drain`, then drain and return."""
        await self._stop.wait()
        await self.drain()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, answer every admitted
        request, flush responses, close connections and pools."""
        if self._drained:
            return
        self._draining = True
        logger.info("drain: closing listener, flushing pending requests")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._coalescer is not None:
            await self._coalescer.drain()
        # Let every in-flight request task write its response.
        if self._active_requests:
            await asyncio.wait(
                list(self._active_requests), timeout=self.config.drain_grace_s
            )
        for writer in list(self._conns):
            writer.close()
        # Connection handlers exit on the EOF the close produces.
        await asyncio.sleep(0)
        if self._dispatch_pool is not None:
            self._dispatch_pool.shutdown(wait=True)
        if self._executor is not None:
            self._executor.close()
        self._drained = True
        logger.info("drain: complete")

    # -- dispatch ----------------------------------------------------------

    def _on_batch_start(self, batch) -> None:
        """Coalescer hook at dispatch start: batch/queue telemetry and
        per-request metadata (batch size, queue wait)."""
        now = asyncio.get_running_loop().time()
        _BATCHES.inc()
        _BATCH_SIZE.observe(len(batch.items))
        _QUEUE_DEPTH.set(self._coalescer.core.n_pending)
        for item in batch.items:
            queue_ms = max(0.0, (now - item.enqueued_at) * 1e3)
            _QUEUE_WAIT_MS.observe(queue_ms)
            item.payload["queue_ms"] = queue_ms
            item.payload["batch_size"] = len(batch.items)

    async def _dispatch_batch(self, key, payloads) -> list[dict[str, Any]]:
        """Run one micro-batch on the executor's dispatch thread and
        slice the batch result back into per-request answers (with the
        candidate sids, ascending, only for requests that asked)."""
        low, high, strategy = key
        loop = asyncio.get_running_loop()
        batch = await loop.run_in_executor(
            self._dispatch_pool,
            partial(
                self._executor.query_batch,
                [p["set"] for p in payloads],
                low, high, strategy=strategy,
            ),
        )
        n = len(payloads)
        sim_share = batch.total_time / n if n else 0.0
        results = []
        for payload, result in zip(payloads, batch.results):
            results.append({
                "answers": result.answers,
                "n_candidates": result.n_candidates,
                "candidates": (
                    result.candidate_sids.tolist()
                    if payload.get("return_candidates") else None
                ),
                "batch_size": payload.get("batch_size", n),
                "queue_ms": payload.get("queue_ms", 0.0),
                "sim_share": sim_share,
            })
        return results

    # -- connection handling -----------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        _CONNECTIONS.inc()
        self._conns.add(writer)
        _OPEN_CONNECTIONS.set(len(self._conns))
        write_lock = asyncio.Lock()
        conn_tasks: set[asyncio.Task] = set()

        async def send(obj: dict) -> None:
            async with write_lock:
                if writer.is_closing():
                    return
                writer.write(protocol.encode_line(obj))
                await writer.drain()

        try:
            async for line in self._read_frames(reader, send):
                task = asyncio.create_task(self._handle_line(line, send))
                conn_tasks.add(task)
                self._active_requests.add(task)
                task.add_done_callback(conn_tasks.discard)
                task.add_done_callback(self._active_requests.discard)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            # Half-closed socket: the client stopped writing but still
            # reads -- finish its outstanding answers before closing.
            if conn_tasks:
                await asyncio.gather(*list(conn_tasks), return_exceptions=True)
            self._conns.discard(writer)
            _OPEN_CONNECTIONS.set(len(self._conns))
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_frames(self, reader: asyncio.StreamReader, send):
        """Yield newline-delimited frames with explicit oversize
        handling: a line beyond ``max_line_bytes`` is answered with a
        typed ``too_large`` error and consumed through its terminating
        newline, so the connection resynchronizes instead of dying."""
        max_bytes = self.config.max_line_bytes
        buf = bytearray()
        discarding = False
        while True:
            chunk = await reader.read(_READ_CHUNK)
            if not chunk:
                return
            buf += chunk
            while True:
                i = buf.find(b"\n")
                if i < 0:
                    break
                line = bytes(buf[:i])
                del buf[: i + 1]
                if discarding:
                    discarding = False  # tail of an already-errored line
                    continue
                yield line
            if not discarding and len(buf) > max_bytes:
                _ERRORS.inc()
                await send(protocol.response_error(
                    None, "too_large",
                    f"request line exceeds {max_bytes} bytes",
                ))
                buf.clear()
                discarding = True
            elif discarding:
                buf.clear()

    async def _handle_line(self, line: bytes, send) -> None:
        if not line.strip():
            return
        _REQUESTS.inc()
        t0 = time.perf_counter()
        try:
            request = protocol.decode_request(line, self.config.max_line_bytes)
        except protocol.ProtocolError as exc:
            _ERRORS.inc()
            rid = getattr(exc, "request_id", None)
            await send(protocol.response_error(rid, exc.etype, str(exc)))
            return
        if request.op == "ping":
            await send({"id": request.id, "ok": True, "pong": True})
            return
        if request.op == "stats":
            await send({"id": request.id, "ok": True, "stats": self.stats()})
            return
        if self._draining:
            _ERRORS.inc()
            await send(protocol.response_error(
                request.id, "shutting_down", "server is draining"
            ))
            return
        try:
            result = await self._coalescer.submit(
                request.key,
                {"set": request.elements,
                 "return_candidates": request.return_candidates},
            )
        except OverloadedError as exc:
            _ERRORS.inc()
            _OVERLOADS.inc()
            await send(protocol.response_error(request.id, "overloaded", str(exc)))
            return
        except DrainingError as exc:
            _ERRORS.inc()
            await send(protocol.response_error(
                request.id, "shutting_down", str(exc)
            ))
            return
        except Exception as exc:  # dispatch failure: typed, connection survives
            _ERRORS.inc()
            logger.exception("dispatch failed")
            await send(protocol.response_error(
                request.id, "internal", f"{type(exc).__name__}: {exc}"
            ))
            return
        latency_ms = (time.perf_counter() - t0) * 1e3
        _LATENCY_MS.observe(latency_ms)
        _RESPONSES.inc()
        answer = protocol.QueryAnswer(
            answers=result["answers"],
            n_candidates=result["n_candidates"],
            batch_size=result["batch_size"],
            queue_ms=result["queue_ms"],
            candidates=result["candidates"],
        )
        events.record_query(
            "serve",
            latency_ms=latency_ms,
            sim_time=result["sim_share"],
            n_queries=1,
            n_candidates=result["n_candidates"],
            n_verified=len(result["answers"]),
            pages_read=0,  # charged on the batch event the executor records
            backend=self.config.backend,
            workers=self._executor.workers,
            strategy=request.strategy,
            sigma_low=request.low,
            sigma_high=request.high,
            timings={"queue": result["queue_ms"]},
        )
        await send(protocol.response_ok(request.id, answer))

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Service-level stats for the ``stats`` op and the CLI."""
        from repro.exec.shard import ShardedSnapshot

        core = self._coalescer.core
        stats = core.stats
        sizes = list(stats.batch_sizes)
        shard_info = {}
        if isinstance(self.snapshot, ShardedSnapshot):
            shard_info = {
                "sharded": True,
                "n_shards": self.snapshot.n_shards,
                "live_shards": len(self.snapshot.live_shards),
            }
        return {
            "n_sets": self.snapshot.n_sets,
            **shard_info,
            "backend": self.config.backend,
            "workers": self._executor.workers,
            "max_batch": core.max_batch,
            "max_wait_ms": core.max_wait * 1e3,
            "max_pending": core.max_pending,
            "adaptive": core.adaptive,
            "pending": core.n_pending,
            "in_flight": core.in_flight,
            "draining": self._draining,
            "submitted": stats.submitted,
            "dispatched": stats.dispatched,
            "batches": stats.batches,
            "rejected_overload": stats.rejected_overload,
            "cancelled": stats.cancelled,
            "mean_batch_size": (sum(sizes) / len(sizes)) if sizes else 0.0,
            "max_batch_size": max(sizes, default=0),
            "connections": len(self._conns),
        }


async def run_server(snapshot, config: ServeConfig | None = None) -> QueryServer:
    """CLI helper: start, install signal handlers, serve until drain."""
    server = QueryServer(snapshot, config)
    await server.start()
    server.install_signal_handlers()
    await server.serve_forever()
    return server
