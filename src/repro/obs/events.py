"""Structured query events: ring buffer, sampling, slow-query log.

Metrics aggregate; events *explain*.  A p99 regression in
``query.latency_ms`` says something got slow -- the matching
:class:`QueryEvent` says which query: its range, strategy, backend,
candidate funnel (``n_candidates`` -> ``n_verified``), pages read and
per-phase latency breakdown.

The subsystem is built to stay on in production:

- **Ring buffer.**  Events land in a bounded ``deque``; memory is
  O(capacity) forever, old events fall off the back.
- **Probabilistic sampling.**  ``sample`` is the probability an event
  is kept (default 1.0).  At high QPS set it to 0.01 and the ring
  holds a uniform sample; the decision is one RNG draw.
- **Slow-query log.**  Events at or above ``slow_ms`` wall latency are
  *always* captured (marked ``slow=True``) into a separate ring,
  regardless of sampling -- outliers are the events you can least
  afford to drop.
- **JSONL export.**  :meth:`EventLog.export_jsonl` writes one JSON
  object per line; ``repro top`` and the trace tooling read it back
  with :func:`read_jsonl`.

One module-level default log (:data:`log`) is recorded into by the
query paths via :func:`record_query`, which also feeds the latency
HDR histograms -- a single call site per path keeps sequential, batch
and parallel execution reporting through identical instruments.
:func:`set_enabled` turns the whole layer off (benchmarking the
telemetry overhead itself).
"""

from __future__ import annotations

import json
import random
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Iterator

from repro.obs import metrics

#: Default ring capacities (events; slow events are rarer and kept
#: in a smaller, unsampled ring).
DEFAULT_CAPACITY = 4096
DEFAULT_SLOW_CAPACITY = 512

#: Default slow-query threshold (wall milliseconds).
DEFAULT_SLOW_MS = 100.0

# The latency instruments every query path records into.  Simulated
# time is the paper's cost unit and is bit-identical across the thread
# and process backends, so its quantiles are the cross-backend
# equivalence surface; wall-clock instruments describe the host.
_QUERY_SIM = metrics.hdr("query.sim_time")
_QUERY_WALL = metrics.hdr("query.latency_ms")
_BATCH_WALL = metrics.hdr("query_batch.latency_ms")
_PHASE_HDR = {
    phase: metrics.hdr(f"query.phase.{phase}_ms")
    for phase in ("embed", "probe", "fetch", "verify")
}


@dataclass
class QueryEvent:
    """One query (or query batch) as the event log records it."""

    ts: float                      #: Unix timestamp at completion.
    kind: str                      #: ``"query"``, ``"serve"`` or a batch kind.
    latency_ms: float              #: End-to-end wall latency.
    sim_time: float                #: Simulated cost (I/O + CPU model).
    n_queries: int                 #: 1, or the batch size.
    n_candidates: int              #: Funnel in: candidates fetched.
    n_verified: int                #: Funnel out: exact in-range answers.
    pages_read: int                #: Simulated pages (random + sequential).
    backend: str                   #: ``thread`` (in-process) / ``process``.
    workers: int                   #: Process-pool width (1 in-process).
    strategy: str                  #: ``index`` / ``scan``.
    sigma_low: float
    sigma_high: float
    timings: dict[str, float] = field(default_factory=dict)
    #: Captured by the slow-query log (>= the configured threshold).
    slow: bool = False
    #: Kept by the probabilistic sampler (False for slow-only captures).
    sampled: bool = True

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


#: The JSONL schema: every exported event carries at least these keys
#: (the format checker and ``repro top`` both validate against it).
EVENT_FIELDS = (
    "ts", "kind", "latency_ms", "sim_time", "n_queries", "n_candidates",
    "n_verified", "pages_read", "backend", "workers",
    "strategy", "sigma_low", "sigma_high", "timings", "slow", "sampled",
)


class EventLog:
    """Bounded, sampled, thread-safe store of :class:`QueryEvent`.

    Parameters
    ----------
    capacity / slow_capacity:
        Ring sizes for sampled events and for the always-captured
        slow-query log.
    sample:
        Probability in [0, 1] that a (non-slow) event is kept.
    slow_ms:
        Wall-latency threshold above which an event bypasses sampling
        and is recorded in both rings.  ``float("inf")`` disables the
        slow log.
    seed:
        Seeds the sampling RNG (deterministic tests); None draws from
        the OS.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        slow_capacity: int = DEFAULT_SLOW_CAPACITY,
        sample: float = 1.0,
        slow_ms: float = DEFAULT_SLOW_MS,
        seed: int | None = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample}")
        self._lock = threading.Lock()
        self._ring: deque[QueryEvent] = deque(maxlen=capacity)
        self._slow_ring: deque[QueryEvent] = deque(maxlen=slow_capacity)
        self._rng = random.Random(seed)
        self.sample = sample
        self.slow_ms = slow_ms
        self.enabled = True
        self.n_seen = 0
        self.n_kept = 0
        self.n_slow = 0

    def configure(
        self,
        sample: float | None = None,
        slow_ms: float | None = None,
        enabled: bool | None = None,
        seed: int | None = None,
    ) -> None:
        """Adjust sampling/thresholds in place (rings are preserved)."""
        if sample is not None:
            if not 0.0 <= sample <= 1.0:
                raise ValueError(f"sample must be in [0, 1], got {sample}")
            self.sample = sample
        if slow_ms is not None:
            self.slow_ms = slow_ms
        if enabled is not None:
            self.enabled = enabled
        if seed is not None:
            self._rng = random.Random(seed)

    def record(self, event: QueryEvent) -> bool:
        """Offer one event; returns whether any ring kept it."""
        if not self.enabled:
            return False
        slow = event.latency_ms >= self.slow_ms
        keep = self.sample >= 1.0 or self._rng.random() < self.sample
        if not (slow or keep):
            with self._lock:
                self.n_seen += 1
            return False
        event.slow = slow
        event.sampled = keep
        with self._lock:
            self.n_seen += 1
            if keep:
                self.n_kept += 1
                self._ring.append(event)
            if slow:
                self.n_slow += 1
                self._slow_ring.append(event)
        return True

    def events(self) -> list[QueryEvent]:
        """Sampled events, oldest first (a stable copy)."""
        with self._lock:
            return list(self._ring)

    def slow_events(self) -> list[QueryEvent]:
        """Slow-query log, oldest first (a stable copy)."""
        with self._lock:
            return list(self._slow_ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._slow_ring.clear()
            self.n_seen = 0
            self.n_kept = 0
            self.n_slow = 0

    def stats(self) -> dict[str, int]:
        """Sampler accounting: events offered / kept / slow-captured."""
        with self._lock:
            return {
                "seen": self.n_seen,
                "kept": self.n_kept,
                "slow": self.n_slow,
                "buffered": len(self._ring),
                "slow_buffered": len(self._slow_ring),
            }

    def export_jsonl(self, path, which: str = "events") -> int:
        """Write events as JSON Lines; returns the number written.

        ``which`` selects ``"events"`` (the sampled ring), ``"slow"``
        (the slow-query log) or ``"all"`` (both, de-duplicated, in
        timestamp order).
        """
        if which == "events":
            selected = self.events()
        elif which == "slow":
            selected = self.slow_events()
        elif which == "all":
            merged = {id(e): e for e in self.events()}
            for e in self.slow_events():
                merged.setdefault(id(e), e)
            selected = sorted(merged.values(), key=lambda e: e.ts)
        else:
            raise ValueError(f"unknown selection: {which!r}")
        with open(path, "w") as f:
            for event in selected:
                f.write(json.dumps(event.to_dict(), sort_keys=True))
                f.write("\n")
        return len(selected)


def read_jsonl(path) -> Iterator[dict[str, Any]]:
    """Yield the event dicts of a JSONL export (blank lines skipped)."""
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                yield json.loads(line)


def events_from_dicts(records: Iterable[dict[str, Any]]) -> list[QueryEvent]:
    """Rebuild :class:`QueryEvent` objects from exported dicts,
    tolerating extra keys from newer writers."""
    names = set(EVENT_FIELDS)
    return [
        QueryEvent(**{k: v for k, v in record.items() if k in names})
        for record in records
    ]


#: The default process-wide event log the query paths record into.
log = EventLog()


def configure(
    sample: float | None = None,
    slow_ms: float | None = None,
    enabled: bool | None = None,
    seed: int | None = None,
) -> EventLog:
    """Configure the default event log; returns it."""
    log.configure(sample=sample, slow_ms=slow_ms, enabled=enabled, seed=seed)
    return log


def set_enabled(flag: bool) -> None:
    """Globally enable/disable query-event *and* latency-histogram
    recording (the telemetry-overhead benchmark's off switch)."""
    log.enabled = bool(flag)


def is_enabled() -> bool:
    return log.enabled


def record_query(
    kind: str,
    *,
    latency_ms: float,
    sim_time: float,
    n_queries: int,
    n_candidates: int,
    n_verified: int,
    pages_read: int,
    backend: str,
    workers: int,
    strategy: str,
    sigma_low: float,
    sigma_high: float,
    timings: dict[str, float] | None = None,
) -> QueryEvent | None:
    """The single telemetry call every query path makes on completion.

    Feeds the latency HDR histograms (per-phase and end-to-end wall
    clock; per-query simulated time -- for a batch, the batch total is
    amortized evenly over its queries, mirroring the harness's
    convention) and offers a :class:`QueryEvent` to the default log.
    Returns the event, or None when telemetry is disabled.
    """
    if not log.enabled:
        return None
    timings = timings or {}
    # Same rule as ``core.index.record_batch``: every executor kind but
    # the one-row ``"query"`` is a batch; a served request is a single.
    if kind in ("query", "serve"):
        _QUERY_WALL.observe(latency_ms)
    else:
        _BATCH_WALL.observe(latency_ms)
    share = sim_time / n_queries if n_queries else sim_time
    cell = _QUERY_SIM
    for _ in range(n_queries):
        cell.observe(share)
    for phase, hist in _PHASE_HDR.items():
        value = timings.get(phase)
        if value is not None:
            hist.observe(value)
    event = QueryEvent(
        ts=time.time(),
        kind=kind,
        latency_ms=latency_ms,
        sim_time=sim_time,
        n_queries=n_queries,
        n_candidates=n_candidates,
        n_verified=n_verified,
        pages_read=pages_read,
        backend=backend,
        workers=workers,
        strategy=strategy,
        sigma_low=sigma_low,
        sigma_high=sigma_high,
        timings=dict(timings),
    )
    log.record(event)
    return event
