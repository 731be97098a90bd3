"""Request coalescing: many concurrent single queries -> micro-batches.

The batch path is several times cheaper per query than a query loop
(EXPERIMENTS.md, BENCH-BATCH): one vectorized embedding pass, shared
bucket reads, one fetch per distinct candidate.  An always-on server can only
cash that in if it *groups* the single queries that arrive together --
the same amortize-the-fixed-cost argument SuperMinHash and b-bit
minwise hashing make for signature cost.  This module is that
grouping.

It is split so the concurrency-critical decisions are testable without
an event loop:

- :class:`CoalescerCore` -- a **synchronous** state machine.  It never
  reads a clock, sleeps, or touches a socket; every method takes
  ``now`` explicitly and returns plain data (admission verdicts,
  ready batches, the next timer deadline).  The hypothesis
  property/stateful suites drive it with simulated clocks and prove
  the invariants: exactly-once dispatch, FIFO order per key, batch
  size <= ``max_batch``, admission bounded by ``max_pending``,
  timeliness (a lone request is dispatched by its deadline whenever
  capacity is free), cancellation isolation.
- :class:`Coalescer` -- the thin asyncio wrapper: one timer armed at
  the core's ``next_deadline()``, futures per request, dispatch
  callbacks run as tasks.  All policy lives in the core.

Requests are grouped by a caller-supplied *key* (the server uses
``(low, high, strategy)``) because ``query_batch`` answers one shared
similarity range per batch; only requests with equal keys may ride
one micro-batch.

The coalescing window is tunable and adaptive: a request waits at most
``max_wait`` seconds, but under a measured arrival rate the effective
wait shrinks to roughly the time it takes ``max_batch`` requests to
arrive (EWMA of inter-arrival gaps), so sparse traffic is not taxed
the full window and dense traffic fills batches without waiting.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

#: Trailing batch sizes kept in :class:`CoalescerStats` (bounded so an
#: always-on server never grows it without limit).
STATS_BATCH_WINDOW = 4096


class OverloadedError(Exception):
    """Admission control rejected the request: pending queue is full."""


class DrainingError(Exception):
    """The coalescer is draining; no new requests are admitted."""


@dataclass
class PendingRequest:
    """One admitted, not-yet-dispatched request."""

    rid: int
    key: Any
    payload: Any
    enqueued_at: float
    deadline: float


@dataclass
class Batch:
    """One micro-batch the core decided to dispatch."""

    key: Any
    items: list[PendingRequest]

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class CoalescerStats:
    """Counters the core maintains; the server exports them."""

    submitted: int = 0
    rejected_overload: int = 0
    rejected_draining: int = 0
    cancelled: int = 0
    dispatched: int = 0
    batches: int = 0
    batch_sizes: deque = field(
        default_factory=lambda: deque(maxlen=STATS_BATCH_WINDOW)
    )


class CoalescerCore:
    """Synchronous coalescing state machine (no clock, no I/O).

    Parameters
    ----------
    max_batch:
        Hard cap on a micro-batch; reaching it triggers immediate
        dispatch (no window wait).
    max_wait:
        Upper bound (seconds) a request may sit in the pending queue
        before it forces a dispatch, capacity permitting.
    max_pending:
        Admission bound over *all* keys; submits beyond it are
        rejected with an overload verdict (explicit backpressure,
        never a silent drop).
    max_concurrent:
        Batches allowed in flight at once.  The server keeps the
        default 1: ``ParallelExecutor.query_batch`` mutates shared
        cost-model state, so batches are serialized through one
        dispatch thread and pending requests simply keep coalescing
        while a batch runs.
    adaptive:
        Shrink the effective wait toward ``interarrival_ewma *
        (max_batch - queue_len)`` so the window tracks the arrival
        rate.  ``False`` pins every deadline at ``enqueue +
        max_wait`` (the property suites use this for exact timing
        assertions).
    """

    def __init__(
        self,
        *,
        max_batch: int = 64,
        max_wait: float = 0.002,
        max_pending: int = 1024,
        max_concurrent: int = 1,
        adaptive: bool = True,
        ewma_alpha: float = 0.2,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.max_pending = max_pending
        self.max_concurrent = max_concurrent
        self.adaptive = adaptive
        self.ewma_alpha = ewma_alpha
        self.stats = CoalescerStats()
        self._queues: dict[Any, deque[PendingRequest]] = {}
        self._n_pending = 0
        self._in_flight = 0
        self._draining = False
        self._tau: float | None = None  # EWMA inter-arrival gap
        self._last_arrival: float | None = None

    # -- inspection --------------------------------------------------------

    @property
    def n_pending(self) -> int:
        return self._n_pending

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def interarrival_ewma(self) -> float | None:
        return self._tau

    def next_deadline(self) -> float | None:
        """Earliest pending deadline, or None when nothing waits."""
        heads = [q[0].deadline for q in self._queues.values() if q]
        return min(heads) if heads else None

    # -- transitions -------------------------------------------------------

    def effective_wait(self, queue_len: int) -> float:
        """The adaptive window for a request joining a queue of
        ``queue_len`` (itself included): long enough for the rest of a
        ``max_batch`` to arrive at the measured rate, never beyond
        ``max_wait``."""
        if not self.adaptive or self._tau is None:
            return self.max_wait
        expected_fill = self._tau * max(0, self.max_batch - queue_len)
        return min(self.max_wait, expected_fill)

    def submit(self, rid: int, key: Any, payload: Any, now: float) -> str:
        """Admit one request.  Returns ``"accepted"``, ``"overloaded"``
        or ``"draining"``; only ``"accepted"`` changes state beyond the
        arrival-rate estimate."""
        if self._last_arrival is not None:
            gap = max(0.0, now - self._last_arrival)
            if self._tau is None:
                self._tau = gap
            else:
                self._tau += self.ewma_alpha * (gap - self._tau)
        self._last_arrival = now
        if self._draining:
            self.stats.rejected_draining += 1
            return "draining"
        if self._n_pending >= self.max_pending:
            self.stats.rejected_overload += 1
            return "overloaded"
        queue = self._queues.setdefault(key, deque())
        deadline = now + self.effective_wait(len(queue) + 1)
        queue.append(PendingRequest(rid, key, payload, now, deadline))
        self._n_pending += 1
        self.stats.submitted += 1
        return "accepted"

    def cancel(self, rid: int, key: Any) -> bool:
        """Remove a still-pending request (client went away).  Returns
        False when the request was already dispatched (or unknown);
        other requests are never affected either way."""
        queue = self._queues.get(key)
        if not queue:
            return False
        for i, item in enumerate(queue):
            if item.rid == rid:
                del queue[i]
                if not queue:
                    del self._queues[key]
                self._n_pending -= 1
                self.stats.cancelled += 1
                return True
        return False

    def start_drain(self) -> None:
        """Stop admitting; pending work stays dispatchable via
        ``poll(..., force=True)``."""
        self._draining = True

    def poll(self, now: float, force: bool = False) -> list[Batch]:
        """Pop every batch that should dispatch at ``now``.

        A key's head batch is *ready* when the queue holds
        ``max_batch`` requests or its oldest deadline has passed (or
        ``force``/draining).  Ready batches dispatch oldest-deadline
        first while in-flight capacity lasts; with ``force`` capacity
        is ignored (drain path).  The caller owes one
        :meth:`batch_done` per returned batch.
        """
        batches: list[Batch] = []
        while force or self._in_flight + len(batches) < self.max_concurrent:
            key = self._pick_ready_key(now, force)
            if key is None:
                break
            queue = self._queues[key]
            take = min(self.max_batch, len(queue))
            items = [queue.popleft() for _ in range(take)]
            if not queue:
                del self._queues[key]
            self._n_pending -= take
            batches.append(Batch(key, items))
            self.stats.batches += 1
            self.stats.dispatched += take
            self.stats.batch_sizes.append(take)
        self._in_flight += len(batches)
        return batches

    def batch_done(self) -> None:
        """Mark one dispatched batch finished, freeing capacity."""
        assert self._in_flight > 0, "batch_done without a batch in flight"
        self._in_flight -= 1

    def _pick_ready_key(self, now: float, force: bool) -> Any | None:
        best_key, best_deadline = None, None
        for key, queue in self._queues.items():
            if not queue:
                continue
            ready = force or self._draining or len(queue) >= self.max_batch
            head = queue[0].deadline
            if not ready and head > now:
                continue
            if best_deadline is None or head < best_deadline:
                best_key, best_deadline = key, head
        return best_key


class Coalescer:
    """Asyncio front end over :class:`CoalescerCore`.

    ``dispatch`` is an async callable ``(key, payloads) -> results``
    returning one result per payload, in order; the server's dispatch
    runs ``ParallelExecutor.query_batch`` on a dedicated thread so the
    event loop never blocks on query work.  :meth:`submit` resolves
    with the per-request result (plus batch metadata via the
    ``on_batch`` hook), raises :class:`OverloadedError` /
    :class:`DrainingError` on admission failure, and tolerates caller
    cancellation at any point without disturbing other requests.
    """

    def __init__(
        self,
        dispatch: Callable,
        *,
        max_batch: int = 64,
        max_wait: float = 0.002,
        max_pending: int = 1024,
        max_concurrent: int = 1,
        adaptive: bool = True,
        on_batch: Callable | None = None,
    ):
        self.core = CoalescerCore(
            max_batch=max_batch,
            max_wait=max_wait,
            max_pending=max_pending,
            max_concurrent=max_concurrent,
            adaptive=adaptive,
        )
        self._dispatch = dispatch
        self._on_batch = on_batch
        self._futures: dict[int, asyncio.Future] = {}
        self._rids = itertools.count()
        self._timer: asyncio.TimerHandle | None = None
        self._timer_deadline: float | None = None
        self._tasks: set[asyncio.Task] = set()
        self._drained: asyncio.Event | None = None

    # -- public API --------------------------------------------------------

    async def submit(self, key: Any, payload: Any) -> Any:
        """Coalesce one request; await its answer."""
        loop = asyncio.get_running_loop()
        rid = next(self._rids)
        verdict = self.core.submit(rid, key, payload, loop.time())
        if verdict == "overloaded":
            raise OverloadedError(
                f"pending queue full ({self.core.max_pending} requests)"
            )
        if verdict == "draining":
            raise DrainingError("server is draining")
        future: asyncio.Future = loop.create_future()
        self._futures[rid] = future
        self._pump()
        try:
            return await future
        except asyncio.CancelledError:
            # Still pending -> withdraw silently; already dispatched ->
            # the batch completes for everyone else and our slot's
            # result is discarded by _finish_batch.
            self.core.cancel(rid, key)
            self._futures.pop(rid, None)
            self._arm_timer()
            raise

    async def drain(self) -> None:
        """Refuse new work, dispatch everything pending, await all
        in-flight batches."""
        self.core.start_drain()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        loop = asyncio.get_running_loop()
        for batch in self.core.poll(loop.time(), force=True):
            self._start_batch(batch)
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    @property
    def stats(self) -> CoalescerStats:
        return self.core.stats

    # -- pump --------------------------------------------------------------

    def _pump(self) -> None:
        """Dispatch whatever the core says is ready; re-arm the timer."""
        loop = asyncio.get_running_loop()
        for batch in self.core.poll(loop.time()):
            self._start_batch(batch)
        self._arm_timer()

    def _arm_timer(self) -> None:
        deadline = self.core.next_deadline()
        if deadline == self._timer_deadline:
            return
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._timer_deadline = deadline
        if deadline is not None:
            loop = asyncio.get_running_loop()
            self._timer = loop.call_at(deadline, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        self._timer_deadline = None
        self._pump()

    def _start_batch(self, batch: Batch) -> None:
        # The hook fires at dispatch *start* so queue-wait measurements
        # exclude the batch's own execution time.
        if self._on_batch is not None:
            self._on_batch(batch)
        task = asyncio.ensure_future(self._finish_batch(batch))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _finish_batch(self, batch: Batch) -> None:
        try:
            results = await self._dispatch(
                batch.key, [item.payload for item in batch.items]
            )
            if len(results) != len(batch.items):
                raise RuntimeError(
                    f"dispatch returned {len(results)} results "
                    f"for a batch of {len(batch.items)}"
                )
            for item, result in zip(batch.items, results):
                future = self._futures.pop(item.rid, None)
                if future is not None and not future.done():
                    future.set_result(result)
        except Exception as exc:  # noqa: BLE001 - forwarded per request
            for item in batch.items:
                future = self._futures.pop(item.rid, None)
                if future is not None and not future.done():
                    future.set_exception(exc)
        finally:
            self.core.batch_done()
            self._pump()
