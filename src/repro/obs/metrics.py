"""Process-wide metrics registry: counters, gauges, histograms.

Storage and filter components report per-probe statistics here --
buckets probed, collisions per table, candidates per filter,
verification hits, bucket-occupancy distributions, query latencies --
so that tuning experiments (and ``repro stats`` / ``repro top``) can
see aggregate behavior without tracing individual queries.

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
:attr:`Counter.local_value`, the calling thread's own count, which the
query pipeline brackets ``pager.cache_hits`` with.  Gauges are
last-write-wins point samples and are not sharded.

Cross-process folding: :meth:`MetricsRegistry.registry_values`
snapshots every instrument (counters, gauges, histograms, HDR
histograms) in a picklable/JSON-safe form; :func:`registry_delta`
subtracts two snapshots; :meth:`MetricsRegistry.apply_deltas` replays
a delta into another registry.  A single-threaded worker process
brackets a task with two snapshots and ships the difference to the
parent -- integer bucket/count algebra makes the fold exact and
order-independent, so process-backend totals are indistinguishable
from in-process totals for every instrument kind (the historical
counter-only fold silently dropped histogram and gauge movement).

All instruments are registered in a module-level default registry
(:data:`registry`); tests that need isolation can construct their own
:class:`MetricsRegistry`.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Sequence

from repro.obs.hdr import DEFAULT_PRECISION, HdrHistogram, state_is_empty

#: Default histogram bucket upper bounds (counts-per-event scale).
DEFAULT_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)


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


class _HistogramShard:
    """One thread's private observation cell of a sharded histogram."""

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None


class Histogram:
    """A distribution of observed values in fixed buckets, sharded per
    thread.

    ``bounds`` are inclusive upper edges; one overflow bucket catches
    everything above the last bound.  Besides bucket counts the
    histogram tracks count/sum/min/max, so mean occupancy and tail
    behavior are both recoverable.

    Like :class:`Counter`, observations land in the calling thread's
    private :class:`_HistogramShard` and every read aggregates the
    shards, so ``repro serve``'s loop and dispatch threads observing
    one histogram lose nothing to races.  For
    latency-style distributions that need accurate tail quantiles use
    :class:`~repro.obs.hdr.HdrHistogram` instead (log-spaced buckets,
    bounded relative error); this class keeps the hand-picked buckets
    that suit small-integer distributions.
    """

    __slots__ = ("name", "bounds", "_lock", "_shards", "_local")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS):
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted, got {bounds}")
        self.name = name
        self.bounds = tuple(bounds)
        self._lock = threading.Lock()
        self._shards: list[_HistogramShard] = []
        self._local = threading.local()

    def shard(self) -> _HistogramShard:
        """The calling thread's private cell (created on first use)."""
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = _HistogramShard(len(self.bounds) + 1)
            with self._lock:
                self._shards.append(cell)
            self._local.cell = cell
        return cell

    def observe(self, value: float) -> None:
        cell = self.shard()
        cell.counts[bisect_left(self.bounds, value)] += 1
        cell.count += 1
        cell.total += value
        if cell.min is None or value < cell.min:
            cell.min = value
        if cell.max is None or value > cell.max:
            cell.max = value

    def _aggregate(self) -> _HistogramShard:
        agg = _HistogramShard(len(self.bounds) + 1)
        with self._lock:
            shards = list(self._shards)
        for cell in shards:
            for i, n in enumerate(cell.counts):
                agg.counts[i] += n
            agg.count += cell.count
            agg.total += cell.total
            if cell.min is not None and (agg.min is None or cell.min < agg.min):
                agg.min = cell.min
            if cell.max is not None and (agg.max is None or cell.max > agg.max):
                agg.max = cell.max
        return agg

    @property
    def counts(self) -> list[int]:
        """Per-bucket totals across all threads (aggregated on read)."""
        return self._aggregate().counts

    @property
    def count(self) -> int:
        return self._aggregate().count

    @property
    def total(self) -> float:
        return self._aggregate().total

    @property
    def min(self) -> float | None:
        return self._aggregate().min

    @property
    def max(self) -> float | None:
        return self._aggregate().max

    @property
    def mean(self) -> float:
        agg = self._aggregate()
        return agg.total / agg.count if agg.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile resolved to a bucket upper edge.

        Coarse by construction (fixed buckets); the overflow bucket
        reports the observed max.  Returns 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        agg = self._aggregate()
        if agg.count == 0:
            return 0.0
        rank = max(1, min(agg.count, math.ceil(q * agg.count)))
        seen = 0
        for i, n in enumerate(agg.counts):
            seen += n
            if seen >= rank:
                if i < len(self.bounds):
                    return float(self.bounds[i])
                return float(agg.max if agg.max is not None else self.bounds[-1])
        return float(agg.max if agg.max is not None else 0.0)

    def state(self) -> dict[str, Any]:
        """Picklable full state: the fold/persist primitive."""
        agg = self._aggregate()
        return {
            "bounds": list(self.bounds),
            "counts": list(agg.counts),
            "count": agg.count,
            "sum": agg.total,
            "min": agg.min,
            "max": agg.max,
        }

    def apply_delta(self, delta: dict[str, Any]) -> None:
        """Fold an externally measured state/delta into this histogram.

        ``delta`` is a :meth:`state` (or a count-wise difference of
        two states, see :func:`histogram_state_delta`) from an
        equal-bounds histogram; counts land in the calling thread's
        shard.
        """
        bounds = delta.get("bounds")
        if bounds is not None and tuple(bounds) != self.bounds:
            raise ValueError(
                f"cannot fold bounds={bounds} state into "
                f"bounds={self.bounds} histogram {self.name!r}"
            )
        if state_is_empty(delta):
            return
        cell = self.shard()
        for i, n in enumerate(delta.get("counts", ())):
            cell.counts[i] += n
        cell.count += delta.get("count", 0)
        cell.total += delta.get("sum", 0.0)
        dmin, dmax = delta.get("min"), delta.get("max")
        if dmin is not None and (cell.min is None or dmin < cell.min):
            cell.min = dmin
        if dmax is not None and (cell.max is None or dmax > cell.max):
            cell.max = dmax

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into self (exact); returns self."""
        self.apply_delta(other.state())
        return self

    def _reset(self) -> None:
        with self._lock:
            for cell in self._shards:
                cell.counts = [0] * (len(self.bounds) + 1)
                cell.count = 0
                cell.total = 0.0
                cell.min = None
                cell.max = None

    def to_dict(self) -> dict[str, Any]:
        agg = self._aggregate()
        return {
            "count": agg.count,
            "sum": agg.total,
            "min": agg.min,
            "max": agg.max,
            "mean": agg.total / agg.count if agg.count else 0.0,
            "buckets": {
                (f"<={bound}" if i < len(self.bounds) else
                 f">{self.bounds[-1]}"): n
                for i, (bound, n) in enumerate(
                    zip(self.bounds + (self.bounds[-1],), agg.counts)
                )
            },
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:.2f})"


def histogram_state_delta(
    before: dict[str, Any], after: dict[str, Any]
) -> dict[str, Any]:
    """Count-wise ``after - before`` of two fixed-histogram states."""
    b_counts = before.get("counts", ())
    counts = [
        n - (b_counts[i] if i < len(b_counts) else 0)
        for i, n in enumerate(after.get("counts", ()))
    ]
    return {
        "bounds": after.get("bounds"),
        "counts": counts,
        "count": after.get("count", 0) - before.get("count", 0),
        "sum": after.get("sum", 0.0) - before.get("sum", 0.0),
        "min": after.get("min"),
        "max": after.get("max"),
    }


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
        self._histograms: dict[str, Histogram] = {}
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

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name, bounds)
            return instrument

    def hdr(self, name: str, precision: float = DEFAULT_PRECISION) -> HdrHistogram:
        """Get-or-create a log-bucketed HDR histogram (latency-grade
        quantiles; see :class:`~repro.obs.hdr.HdrHistogram`)."""
        with self._lock:
            instrument = self._hdr.get(name)
            if instrument is None:
                instrument = self._hdr[name] = HdrHistogram(name, precision)
            return instrument

    def hdr_histograms(self) -> dict[str, HdrHistogram]:
        """The registered HDR histograms, by name (stable copy)."""
        with self._lock:
            return dict(sorted(self._hdr.items()))

    def histograms(self) -> dict[str, Histogram]:
        """The registered fixed-bucket histograms, by name (stable copy)."""
        with self._lock:
            return dict(sorted(self._histograms.items()))

    def snapshot(self) -> dict[str, Any]:
        """All current values, JSON-safe, grouped by instrument kind."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
                "histograms": {
                    n: h.to_dict() for n, h in sorted(self._histograms.items())
                },
                "hdr": {n: h.to_dict() for n, h in sorted(self._hdr.items())},
            }

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

        The generalization of :meth:`counter_values` that the process
        backend brackets worker tasks with: counters and gauges as
        scalars, histograms (fixed and HDR) as full count states, all
        picklable.  :func:`registry_delta` subtracts two of these and
        :meth:`apply_deltas` replays the difference elsewhere, so
        non-counter movement is no longer dropped at the process
        boundary.
        """
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
            hdr = list(self._hdr.items())
        return {
            "counters": {name: c.value for name, c in counters},
            "gauges": {name: g.value for name, g in gauges},
            "histograms": {name: h.state() for name, h in histograms},
            "hdr": {name: h.state() for name, h in hdr},
        }

    def apply_counter_deltas(self, deltas: dict[str, int]) -> None:
        """Fold externally measured counter deltas into this registry.

        Used by the process-backend executor to replay each worker
        task's counter movements on the parent (counters are created on
        demand; deltas land in the calling thread's shard), so process
        totals match what the thread backend would have recorded.
        """
        for name, delta in deltas.items():
            if delta:
                self.counter(name).shard().count += delta

    def apply_deltas(self, deltas: dict[str, Any]) -> None:
        """Fold a full-registry delta (see :func:`registry_delta`).

        Counters add their deltas, gauges adopt the delta's value
        (last-write-wins point samples), histograms fold their count
        states -- instruments are created on demand, and integer count
        algebra keeps the result independent of fold order.
        """
        self.apply_counter_deltas(deltas.get("counters", {}))
        for name, value in deltas.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, state in deltas.get("histograms", {}).items():
            if not state_is_empty(state):
                bounds = state.get("bounds") or DEFAULT_BUCKETS
                self.histogram(name, bounds).apply_delta(state)
        for name, state in deltas.get("hdr", {}).items():
            if not state_is_empty(state):
                precision = state.get("precision") or DEFAULT_PRECISION
                self.hdr(name, precision).apply_delta(state)

    def reset(self) -> None:
        """Zero every instrument in place (cached references stay valid)."""
        with self._lock:
            for group in (self._counters, self._gauges,
                          self._histograms, self._hdr):
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
    from repro.obs import hdr as hdr_mod

    counters = {}
    for name, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(name, 0)
        if delta:
            counters[name] = delta
    gauges = {}
    for name, value in after.get("gauges", {}).items():
        if value != before.get("gauges", {}).get(name):
            gauges[name] = value
    histograms = {}
    for name, state in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(name)
        delta = (
            histogram_state_delta(prior, state) if prior is not None else state
        )
        if not state_is_empty(delta):
            histograms[name] = delta
    hdr = {}
    for name, state in after.get("hdr", {}).items():
        prior = before.get("hdr", {}).get(name)
        delta = (
            hdr_mod.state_delta(prior, state) if prior is not None else state
        )
        if not state_is_empty(delta):
            hdr[name] = delta
    out: dict[str, Any] = {}
    if counters:
        out["counters"] = counters
    if gauges:
        out["gauges"] = gauges
    if histograms:
        out["histograms"] = histograms
    if hdr:
        out["hdr"] = hdr
    return out


def merge_registry_deltas(deltas: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Fold several task deltas into one (order-independent for
    counters and histogram counts; gauges last-write-wins)."""
    merged: dict[str, Any] = {
        "counters": {}, "gauges": {}, "histograms": {}, "hdr": {},
    }
    for delta in deltas:
        for name, value in delta.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        merged["gauges"].update(delta.get("gauges", {}))
        for group in ("histograms", "hdr"):
            for name, state in delta.get(group, {}).items():
                prior = merged[group].get(name)
                if prior is None:
                    # Copy: fold must not mutate the source delta.
                    merged[group][name] = _copy_state(state)
                else:
                    _fold_state(prior, state)
    return {k: v for k, v in merged.items() if v}


def _copy_state(state: dict[str, Any]) -> dict[str, Any]:
    copied = dict(state)
    counts = state.get("counts")
    if isinstance(counts, dict):
        copied["counts"] = dict(counts)
    elif counts is not None:
        copied["counts"] = list(counts)
    return copied


def _fold_state(into: dict[str, Any], state: dict[str, Any]) -> None:
    """Accumulate one histogram state into another, in place."""
    counts = state.get("counts")
    if isinstance(counts, dict):
        target = into["counts"]
        for key, n in counts.items():
            target[key] = target.get(key, 0) + n
        into["zero_count"] = into.get("zero_count", 0) + state.get("zero_count", 0)
    elif counts is not None:
        into["counts"] = [
            a + b for a, b in zip(into.get("counts", [0] * len(counts)), counts)
        ]
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


def histogram(name: str, bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
    """Get-or-create a fixed-bucket histogram in the default registry."""
    return registry.histogram(name, bounds)


def hdr(name: str, precision: float = DEFAULT_PRECISION) -> HdrHistogram:
    """Get-or-create an HDR histogram in the default registry."""
    return registry.hdr(name, precision)


def snapshot() -> dict[str, Any]:
    """Snapshot of the default registry."""
    return registry.snapshot()


def counter_values() -> dict[str, int]:
    """Current counter values of the default registry."""
    return registry.counter_values()


def registry_values() -> dict[str, Any]:
    """Full-registry snapshot of the default registry."""
    return registry.registry_values()


def apply_counter_deltas(deltas: dict[str, int]) -> None:
    """Fold counter deltas into the default registry."""
    return registry.apply_counter_deltas(deltas)


def apply_deltas(deltas: dict[str, Any]) -> None:
    """Fold a full-registry delta into the default registry."""
    return registry.apply_deltas(deltas)


def reset() -> None:
    """Reset the default registry."""
    registry.reset()
