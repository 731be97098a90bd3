"""Property and stateful tests for the request coalescer in isolation.

The coalescer is the first concurrent-by-construction component in the
engine, so its correctness argument is structural:
:class:`repro.serve.coalescer.CoalescerCore` is a synchronous state
machine that never reads a clock -- every transition takes ``now``
explicitly -- which lets hypothesis drive it with simulated time and
prove the serving invariants deterministically:

- every accepted request is dispatched **exactly once** (and, through
  the asyncio wrapper, answered exactly once);
- no micro-batch exceeds ``max_batch`` and all of a batch's requests
  share one coalescing key, dispatched FIFO per key;
- admission is bounded by ``max_pending`` with explicit overload
  verdicts, never silent drops;
- timeliness: with dispatch capacity free, a pending request is
  dispatched no later than its deadline (``enqueue + max_wait``; the
  adaptive window only ever *shrinks* the wait);
- cancelling or disconnecting one request never loses or duplicates
  any other request's answer.

The asyncio wrapper tests then pin the same guarantees against a real
event loop with real timers and concurrent submitters.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.serve.coalescer import (
    Coalescer,
    CoalescerCore,
    DrainingError,
    OverloadedError,
)

KEYS = ["a", "b", "c"]


# ---------------------------------------------------------------------------
# CoalescerCore: direct properties
# ---------------------------------------------------------------------------


class TestCoreBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoalescerCore(max_batch=0)
        with pytest.raises(ValueError):
            CoalescerCore(max_wait=-1)
        with pytest.raises(ValueError):
            CoalescerCore(max_pending=0)
        with pytest.raises(ValueError):
            CoalescerCore(max_concurrent=0)

    def test_full_batch_dispatches_without_waiting(self):
        core = CoalescerCore(max_batch=4, max_wait=10.0, adaptive=False)
        for rid in range(4):
            assert core.submit(rid, "k", rid, now=0.0) == "accepted"
        batches = core.poll(now=0.0)  # no time has passed at all
        assert [len(b) for b in batches] == [4]
        assert [i.rid for i in batches[0].items] == [0, 1, 2, 3]
        assert core.n_pending == 0

    def test_lone_request_waits_for_deadline(self):
        core = CoalescerCore(max_batch=4, max_wait=0.5, adaptive=False)
        core.submit(0, "k", None, now=1.0)
        assert core.poll(now=1.4) == []
        assert core.next_deadline() == pytest.approx(1.5)
        batches = core.poll(now=1.5)
        assert len(batches) == 1 and batches[0].items[0].rid == 0

    def test_admission_bound_is_explicit(self):
        core = CoalescerCore(max_batch=8, max_wait=1.0, max_pending=3)
        verdicts = [core.submit(rid, "k", None, now=0.0) for rid in range(5)]
        assert verdicts == ["accepted"] * 3 + ["overloaded"] * 2
        assert core.stats.rejected_overload == 2
        assert core.n_pending == 3

    def test_draining_rejects_but_flushes_pending(self):
        core = CoalescerCore(max_batch=8, max_wait=1.0)
        core.submit(0, "k", None, now=0.0)
        core.start_drain()
        assert core.submit(1, "k", None, now=0.0) == "draining"
        batches = core.poll(now=0.0, force=True)
        assert [i.rid for b in batches for i in b.items] == [0]

    def test_capacity_serializes_batches(self):
        core = CoalescerCore(max_batch=2, max_wait=0.0, max_concurrent=1)
        for rid in range(6):
            core.submit(rid, "k", None, now=0.0)
        first = core.poll(now=0.0)
        assert [len(b) for b in first] == [2]
        assert core.poll(now=0.0) == []  # one batch already in flight
        core.batch_done()
        second = core.poll(now=0.0)
        assert [len(b) for b in second] == [2]
        assert [i.rid for i in second[0].items] == [2, 3]  # FIFO

    def test_cancel_pending_only_removes_that_request(self):
        core = CoalescerCore(max_batch=8, max_wait=0.0, adaptive=False)
        for rid in range(4):
            core.submit(rid, "k", None, now=0.0)
        assert core.cancel(2, "k") is True
        assert core.cancel(2, "k") is False  # already gone
        assert core.cancel(99, "missing-key") is False
        batches = core.poll(now=0.0)
        assert [i.rid for i in batches[0].items] == [0, 1, 3]

    def test_adaptive_window_tracks_arrival_rate(self):
        core = CoalescerCore(max_batch=10, max_wait=1.0, adaptive=True)
        # 1 kHz arrivals: the EWMA gap converges near 1ms, so a lone
        # request should wait ~(max_batch-1) * 1ms, far below max_wait.
        t = 0.0
        for rid in range(50):
            core.submit(rid, "k", None, now=t)
            t += 0.001
        core.poll(now=t, force=True)
        core.batch_done()
        wait = core.effective_wait(queue_len=1)
        assert wait <= 0.05  # ~9ms expected; never the full second
        assert wait <= core.max_wait
        # Sparse arrivals push the window back up toward max_wait.
        for rid in range(100, 140):
            core.submit(rid, "k", None, now=t)
            t += 10.0
        assert core.effective_wait(queue_len=1) == core.max_wait

    def test_keys_never_mix_within_a_batch(self):
        core = CoalescerCore(max_batch=4, max_wait=0.0, adaptive=False)
        for rid in range(6):
            core.submit(rid, KEYS[rid % 2], None, now=0.0)
        seen = []
        while core.n_pending:
            for batch in core.poll(now=0.0, force=True):
                assert len({i.key for i in batch.items}) == 1
                seen.extend(i.rid for i in batch.items)
                core.batch_done()
        assert sorted(seen) == list(range(6))


@given(
    gaps=st.lists(
        st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
        min_size=1, max_size=40,
    ),
    max_batch=st.integers(min_value=1, max_value=8),
    max_wait=st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
)
@settings(max_examples=120, deadline=None)
def test_timeliness_property(gaps, max_batch, max_wait):
    """With capacity free, polling at the oldest deadline always
    dispatches a batch containing the oldest request, and nothing is
    ever dispatched twice."""
    core = CoalescerCore(
        max_batch=max_batch, max_wait=max_wait, adaptive=False,
        max_pending=10_000,
    )
    now = 0.0
    dispatched: list[int] = []
    for rid, gap in enumerate(gaps):
        now += gap
        assert core.submit(rid, "k", None, now) == "accepted"
        for batch in core.poll(now):
            assert len(batch) <= max_batch
            dispatched.extend(i.rid for i in batch.items)
            core.batch_done()
    while core.n_pending:
        deadline = core.next_deadline()
        assert deadline is not None and deadline <= now + max_wait
        now = deadline
        batches = core.poll(now)
        assert batches, "capacity is free and the deadline has passed"
        oldest = min(
            rid for rid in range(len(gaps)) if rid not in dispatched
        )
        polled = [i.rid for b in batches for i in b.items]
        assert oldest in polled
        dispatched.extend(polled)
        for _ in batches:
            core.batch_done()
    assert sorted(dispatched) == list(range(len(gaps)))
    assert len(set(dispatched)) == len(dispatched)  # exactly once


class CoalescerMachine(RuleBasedStateMachine):
    """Stateful exploration of the core under arbitrary interleavings
    of submits, cancels, polls, completions and drain."""

    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.next_rid = 0
        self.accepted: dict[int, tuple] = {}  # rid -> (key, submit_time)
        self.dispatched: dict[int, float] = {}  # rid -> dispatch time
        self.cancelled: set[int] = set()
        self.in_flight_batches = 0

    @initialize(
        max_batch=st.integers(min_value=1, max_value=5),
        max_wait=st.sampled_from([0.0, 0.001, 0.01, 0.1]),
        max_pending=st.integers(min_value=1, max_value=12),
        max_concurrent=st.integers(min_value=1, max_value=2),
        adaptive=st.booleans(),
    )
    def setup(self, max_batch, max_wait, max_pending, max_concurrent, adaptive):
        self.core = CoalescerCore(
            max_batch=max_batch,
            max_wait=max_wait,
            max_pending=max_pending,
            max_concurrent=max_concurrent,
            adaptive=adaptive,
        )

    def _drain_poll(self, force=False):
        for batch in self.core.poll(self.now, force=force):
            assert len(batch) <= self.core.max_batch
            assert len({i.key for i in batch.items}) == 1
            key = batch.items[0].key
            submit_times = [self.accepted[i.rid][1] for i in batch.items]
            assert submit_times == sorted(submit_times), "FIFO per key"
            assert all(self.accepted[i.rid][0] == key for i in batch.items)
            for item in batch.items:
                assert item.rid not in self.dispatched, "duplicate dispatch"
                assert item.rid not in self.cancelled, "cancelled rid dispatched"
                self.dispatched[item.rid] = self.now
            self.in_flight_batches += 1

    @rule(gap=st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
          key=st.sampled_from(KEYS))
    def submit(self, gap, key):
        self.now += gap
        rid = self.next_rid
        self.next_rid += 1
        verdict = self.core.submit(rid, key, None, self.now)
        if self.core.draining:
            assert verdict == "draining"
            return
        pending_before = len(self.accepted) - len(self.dispatched) - len(
            self.cancelled
        )
        if verdict == "accepted":
            assert pending_before < self.core.max_pending
            self.accepted[rid] = (key, self.now)
        else:
            assert verdict == "overloaded"
            assert pending_before >= self.core.max_pending

    @rule(gap=st.floats(min_value=0.0, max_value=0.2, allow_nan=False))
    def poll(self, gap):
        self.now += gap
        self._drain_poll()

    @rule()
    def complete_batch(self):
        if self.in_flight_batches:
            self.core.batch_done()
            self.in_flight_batches -= 1
            self._drain_poll()

    @rule(data=st.data())
    def cancel_one(self, data):
        pending = [
            rid for rid in self.accepted
            if rid not in self.dispatched and rid not in self.cancelled
        ]
        if not pending:
            return
        rid = data.draw(st.sampled_from(pending))
        key = self.accepted[rid][0]
        assert self.core.cancel(rid, key) is True
        self.cancelled.add(rid)

    @rule()
    def drain(self):
        self.core.start_drain()
        self._drain_poll(force=True)

    @invariant()
    def bookkeeping_matches(self):
        pending = len(self.accepted) - len(self.dispatched) - len(self.cancelled)
        assert self.core.n_pending == pending
        assert self.core.n_pending <= self.core.max_pending
        assert self.core.in_flight == self.in_flight_batches

    @invariant()
    def no_empty_queue_is_kept(self):
        # A cancel or a dispatch that empties a key's queue drops the
        # key, so deadline scans only ever visit waiting requests.
        assert all(self.core._queues.values())

    @invariant()
    def timer_deadline_respects_every_pending_request(self):
        # The deadline the wrapper would arm its timer at is never
        # later than the *oldest* pending request's enqueue + max_wait:
        # the adaptive window only ever shrinks the wait, so no request
        # can be parked beyond the configured bound.
        pending_bounds = [
            t + self.core.max_wait
            for rid, (key, t) in self.accepted.items()
            if rid not in self.dispatched and rid not in self.cancelled
        ]
        if pending_bounds:
            deadline = self.core.next_deadline()
            assert deadline is not None
            assert deadline <= min(pending_bounds) + 1e-9

    def teardown(self):
        if hasattr(self, "core"):
            self.core.start_drain()
            self._drain_poll(force=True)
            expected = set(self.accepted) - self.cancelled
            assert set(self.dispatched) == expected, "lost or phantom requests"


TestCoalescerStateful = CoalescerMachine.TestCase
TestCoalescerStateful.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


# ---------------------------------------------------------------------------
# Asyncio wrapper: exactly-once answers against a live event loop
# ---------------------------------------------------------------------------


def run(coro):
    return asyncio.run(coro)


async def echo_dispatch(key, payloads):
    await asyncio.sleep(0.001)
    return [(key, p) for p in payloads]


class TestCoalescerAsync:
    def test_every_submit_answered_exactly_once(self):
        async def main():
            batches = []
            c = Coalescer(
                echo_dispatch, max_batch=8, max_wait=0.002,
                on_batch=lambda b: batches.append(len(b.items)),
            )
            results = await asyncio.gather(*[
                c.submit(KEYS[i % 2], i) for i in range(50)
            ])
            await c.drain()
            assert results == [(KEYS[i % 2], i) for i in range(50)]
            assert sum(batches) == 50
            assert all(size <= 8 for size in batches)
            assert c.stats.dispatched == 50
            return batches

        batches = run(main())
        # concurrency actually coalesced: fewer batches than requests
        assert len(batches) < 50

    def test_latency_bounded_by_window_plus_dispatch(self):
        """No request waits past max_wait plus one dispatch (plus
        scheduling slack) when the dispatcher keeps up."""
        DISPATCH_S = 0.005
        MAX_WAIT = 0.01

        async def slow_dispatch(key, payloads):
            await asyncio.sleep(DISPATCH_S)
            return payloads

        async def main():
            c = Coalescer(slow_dispatch, max_batch=64, max_wait=MAX_WAIT)
            loop = asyncio.get_running_loop()

            async def one(i):
                t0 = loop.time()
                await c.submit("k", i)
                return loop.time() - t0

            # Two widely spaced waves so the dispatcher is never backlogged.
            lat = []
            for _ in range(3):
                lat += await asyncio.gather(*[one(i) for i in range(10)])
                await asyncio.sleep(0.03)
            await c.drain()
            return lat

        latencies = run(main())
        bound = MAX_WAIT + DISPATCH_S + 0.05  # generous scheduling slack
        assert max(latencies) < bound

    def test_overload_and_draining_are_typed(self):
        async def main():
            gate = asyncio.Event()

            async def gated(key, payloads):
                await gate.wait()
                return payloads

            c = Coalescer(gated, max_batch=1, max_wait=0.0, max_pending=2)
            first = asyncio.create_task(c.submit("k", 0))
            await asyncio.sleep(0.005)  # dispatched, blocked on the gate
            queued = [asyncio.create_task(c.submit("k", i)) for i in (1, 2)]
            await asyncio.sleep(0.005)
            with pytest.raises(OverloadedError):
                await c.submit("k", 3)
            gate.set()
            assert await first == 0
            assert [await t for t in queued] == [1, 2]
            await c.drain()
            with pytest.raises(DrainingError):
                await c.submit("k", 4)
            assert c.stats.rejected_overload == 1

        run(main())

    def test_cancellation_never_disturbs_other_requests(self):
        """Cancel some submitters before dispatch and some mid-dispatch;
        every surviving request is answered exactly once with its own
        payload."""

        async def main():
            started = asyncio.Event()

            async def dispatch(key, payloads):
                started.set()
                await asyncio.sleep(0.01)
                return list(payloads)

            c = Coalescer(dispatch, max_batch=64, max_wait=0.005)
            tasks = [
                asyncio.create_task(c.submit("k", i)) for i in range(20)
            ]
            await asyncio.sleep(0)  # all enqueued, none dispatched
            tasks[3].cancel()  # pre-dispatch cancellation
            await started.wait()
            tasks[7].cancel()  # mid-dispatch cancellation
            results = await asyncio.gather(*tasks, return_exceptions=True)
            await c.drain()
            for i, res in enumerate(results):
                if i in (3, 7):
                    assert isinstance(res, asyncio.CancelledError)
                else:
                    assert res == i, f"request {i} got {res!r}"
            # the pre-dispatch cancel was withdrawn from the queue
            assert c.stats.cancelled >= 1

        run(main())

    def test_dispatch_failure_is_contained(self):
        calls = []

        async def flaky(key, payloads):
            calls.append(len(payloads))
            if len(calls) == 1:
                raise RuntimeError("boom")
            return list(payloads)

        async def main():
            c = Coalescer(flaky, max_batch=64, max_wait=0.002)
            with pytest.raises(RuntimeError, match="boom"):
                await c.submit("k", 1)
            # The coalescer survives and serves the next request.
            assert await c.submit("k", 2) == 2
            await c.drain()

        run(main())

    def test_wrong_result_cardinality_is_an_error(self):
        async def bad(key, payloads):
            return []

        async def main():
            c = Coalescer(bad, max_batch=4, max_wait=0.0)
            with pytest.raises(RuntimeError, match="results"):
                await c.submit("k", 1)
            await c.drain()

        run(main())

    def test_drain_flushes_pending_before_refusing(self):
        async def main():
            c = Coalescer(echo_dispatch, max_batch=64, max_wait=10.0)
            # A long window: these would sit pending for 10s...
            tasks = [asyncio.create_task(c.submit("k", i)) for i in range(5)]
            await asyncio.sleep(0.005)
            await c.drain()  # ...but drain answers them immediately.
            assert [await t for t in tasks] == [("k", i) for i in range(5)]
            with pytest.raises(DrainingError):
                await c.submit("k", 99)

        run(main())
