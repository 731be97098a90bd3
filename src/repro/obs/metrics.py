"""Process-wide metrics registry: counters, gauges, HDR histograms.

Storage and filter components report per-probe statistics here --
buckets probed, collisions per table, candidates per filter,
verification hits, candidates per query, batch sizes, query
latencies -- so that tuning experiments (and ``repro stats`` /
``repro top``) can see aggregate behavior without tracing individual
queries.  Every distribution is one kind of instrument, the
:class:`~repro.obs.hdr.HdrHistogram` (quantiles within 1%, exact
merge), so each has the same fields on every path.

The design mirrors the usual in-process metrics libraries but stays
stdlib-only and allocation-free on the hot path: instrumented modules
look their instruments up **once** at import time and then mutate a
plain attribute per event::

    _PROBES = metrics.counter("hashtable.probes")
    ...
    _PROBES.inc()
    # or, in an inner loop, hoist the calling thread's shard:
    cell = _PROBES.shard()
    for ...:
        cell.count += 1

:func:`MetricsRegistry.reset` therefore zeroes instruments *in place*
rather than discarding them, so cached references stay live.

Thread model: counters **and histograms** are sharded per thread --
each thread mutates a private cell and reads aggregate the cells, so
recording from several threads is exact without hot-path locking (a
cell is only ever mutated by its owning thread).  Query work runs on
one thread, but ``repro serve`` has two that record into the same
instruments: the event loop's per-request ``record_query("serve")``
and the dispatch thread's per-batch record both observe
``query.sim_time``, for example.  The private cell also gives
:attr:`Counter.local_value`, the calling thread's own count, which a
process-pool task and a batched banding probe bracket
``hashtable.probe_pages_saved`` with.  Gauges are
last-write-wins point samples and are not sharded.

Snapshots and cross-process folding:
:meth:`MetricsRegistry.registry_values` is the one snapshot of every
instrument (counters, gauges, histograms) in a picklable/JSON-safe
form; the Prometheus exporter renders it.  :func:`registry_delta`
subtracts two snapshots; :meth:`MetricsRegistry.apply_deltas` replays
a delta into another registry.  A single-threaded worker process
brackets a task with two snapshots and ships the difference to the
parent -- integer bucket/count algebra makes the fold exact and
order-independent, so process-backend totals are indistinguishable
from in-process totals for every instrument kind.

All instruments are registered in a module-level default registry
(:data:`registry`); tests that need isolation can construct their own
:class:`MetricsRegistry`.
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

from repro.obs.hdr import HdrHistogram, state_delta, state_is_empty


class CounterShard:
    """One thread's private slice of a sharded :class:`Counter`.

    Only the owning thread mutates ``count``; aggregation reads it
    without a lock (int reads are atomic under the GIL, and a torn
    read at worst lags by in-flight increments).
    """

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


class Counter:
    """A monotonically increasing count of events, sharded per thread.

    ``inc()`` (or ``shard().count += n`` in hot loops) touches only the
    calling thread's :class:`CounterShard`; :attr:`value` aggregates
    all shards on read.  Shards of finished threads are kept so their
    contributions survive thread exit.
    """

    __slots__ = ("name", "_lock", "_shards", "_local")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._shards: list[CounterShard] = []
        self._local = threading.local()

    def shard(self) -> CounterShard:
        """The calling thread's private cell (created on first use)."""
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = CounterShard()
            with self._lock:
                self._shards.append(cell)
            self._local.cell = cell
        return cell

    def inc(self, n: int = 1) -> None:
        self.shard().count += n

    @property
    def value(self) -> int:
        """Total across all threads (aggregated on read)."""
        with self._lock:
            return sum(cell.count for cell in self._shards)

    @property
    def local_value(self) -> int:
        """The calling thread's contribution only.

        The right operand for before/after deltas taken around work
        that runs entirely on the calling thread: unlike ``value`` it
        cannot be perturbed by concurrent increments elsewhere.
        """
        cell = getattr(self._local, "cell", None)
        return 0 if cell is None else cell.count

    def _reset(self) -> None:
        with self._lock:
            for cell in self._shards:
                cell.count = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A point-in-time value (load factor, entries per table, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def _reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class MetricsRegistry:
    """Named instruments with get-or-create semantics.

    Creation is lock-protected (instrument lookups may race across
    threads at import time); the per-event mutations on the returned
    instruments are plain attribute updates.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._hdr: dict[str, HdrHistogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def hdr(self, name: str) -> HdrHistogram:
        """Get-or-create a log-bucketed HDR histogram (see
        :class:`~repro.obs.hdr.HdrHistogram`)."""
        with self._lock:
            instrument = self._hdr.get(name)
            if instrument is None:
                instrument = self._hdr[name] = HdrHistogram(name)
            return instrument

    def hdr_histograms(self) -> dict[str, HdrHistogram]:
        """The registered HDR histograms, by name (stable copy)."""
        with self._lock:
            return dict(sorted(self._hdr.items()))

    def counter_values(self) -> dict[str, int]:
        """Current aggregated value of every registered counter.

        The primitive behind cross-process counter folding: a
        single-threaded worker brackets a task with two calls and the
        difference is exactly that task's movements.
        """
        with self._lock:
            counters = list(self._counters.items())
        return {name: counter.value for name, counter in counters}

    def registry_values(self) -> dict[str, Any]:
        """Full-registry snapshot covering every instrument kind.

        Counters and gauges as scalars, HDR histograms as full count
        states, all picklable and JSON-safe.  The Prometheus exporter
        renders it, and the process backend brackets worker tasks with
        two of these: :func:`registry_delta` subtracts them and
        :meth:`apply_deltas` replays the difference elsewhere.
        """
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            hdr = list(self._hdr.items())
        return {
            "counters": {name: c.value for name, c in counters},
            "gauges": {name: g.value for name, g in gauges},
            "hdr": {name: h.state() for name, h in hdr},
        }

    def apply_deltas(self, deltas: dict[str, Any]) -> None:
        """Fold a full-registry delta (see :func:`registry_delta`).

        Counters add their deltas (in the calling thread's shard),
        gauges adopt the delta's value (last-write-wins point samples),
        histograms fold their count states -- instruments are created
        on demand, and integer count algebra keeps the result
        independent of fold order.  The process-backend executor
        replays each worker task's movements this way, so process
        totals match what the thread backend would have recorded.
        """
        for name, delta in deltas.get("counters", {}).items():
            if delta:
                self.counter(name).shard().count += delta
        for name, value in deltas.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, state in deltas.get("hdr", {}).items():
            if not state_is_empty(state):
                self.hdr(name).apply_delta(state)

    def reset(self) -> None:
        """Zero every instrument in place (cached references stay valid)."""
        with self._lock:
            for group in (self._counters, self._gauges, self._hdr):
                for instrument in group.values():
                    instrument._reset()


def registry_delta(
    before: dict[str, Any], after: dict[str, Any]
) -> dict[str, Any]:
    """Instrument-wise ``after - before`` of two ``registry_values()``.

    Counters subtract; gauges report ``after``'s value but only for
    gauges that *moved* (an unchanged point sample carries no
    information and must not clobber the parent's); histograms take
    count-wise state differences, dropping empty ones.  The result is
    the picklable payload a worker ships for one task.
    """
    counters = {}
    for name, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(name, 0)
        if delta:
            counters[name] = delta
    gauges = {}
    for name, value in after.get("gauges", {}).items():
        if value != before.get("gauges", {}).get(name):
            gauges[name] = value
    hdr = {}
    for name, state in after.get("hdr", {}).items():
        prior = before.get("hdr", {}).get(name)
        delta = state_delta(prior, state) if prior is not None else state
        if not state_is_empty(delta):
            hdr[name] = delta
    out: dict[str, Any] = {}
    if counters:
        out["counters"] = counters
    if gauges:
        out["gauges"] = gauges
    if hdr:
        out["hdr"] = hdr
    return out


def merge_registry_deltas(deltas: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Fold several task deltas into one (order-independent for
    counters and histogram counts; gauges last-write-wins)."""
    merged: dict[str, Any] = {"counters": {}, "gauges": {}, "hdr": {}}
    for delta in deltas:
        for name, value in delta.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        merged["gauges"].update(delta.get("gauges", {}))
        for name, state in delta.get("hdr", {}).items():
            prior = merged["hdr"].get(name)
            if prior is None:
                # Copy: fold must not mutate the source delta.
                merged["hdr"][name] = _copy_state(state)
            else:
                _fold_state(prior, state)
    return {k: v for k, v in merged.items() if v}


def _copy_state(state: dict[str, Any]) -> dict[str, Any]:
    copied = dict(state)
    copied["counts"] = dict(state.get("counts", {}))
    return copied


def _fold_state(into: dict[str, Any], state: dict[str, Any]) -> None:
    """Accumulate one histogram state into another, in place."""
    target = into["counts"]
    for key, n in state.get("counts", {}).items():
        target[key] = target.get(key, 0) + n
    into["zero_count"] = into.get("zero_count", 0) + state.get("zero_count", 0)
    into["count"] = into.get("count", 0) + state.get("count", 0)
    into["sum"] = into.get("sum", 0.0) + state.get("sum", 0.0)
    smin, smax = state.get("min"), state.get("max")
    if smin is not None and (into.get("min") is None or smin < into["min"]):
        into["min"] = smin
    if smax is not None and (into.get("max") is None or smax > into["max"]):
        into["max"] = smax


#: The default process-wide registry used by the instrumented modules.
registry = MetricsRegistry()


def counter(name: str) -> Counter:
    """Get-or-create a counter in the default registry."""
    return registry.counter(name)


def gauge(name: str) -> Gauge:
    """Get-or-create a gauge in the default registry."""
    return registry.gauge(name)


def hdr(name: str) -> HdrHistogram:
    """Get-or-create an HDR histogram in the default registry."""
    return registry.hdr(name)


def counter_values() -> dict[str, int]:
    """Current counter values of the default registry."""
    return registry.counter_values()


def registry_values() -> dict[str, Any]:
    """Full-registry snapshot of the default registry."""
    return registry.registry_values()


def apply_deltas(deltas: dict[str, Any]) -> None:
    """Fold a full-registry delta into the default registry."""
    return registry.apply_deltas(deltas)


def reset() -> None:
    """Reset the default registry."""
    registry.reset()
