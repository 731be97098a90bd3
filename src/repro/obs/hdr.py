"""Log-bucketed HDR-style histograms: accurate tails, exact algebra.

:class:`HdrHistogram` is the registry's one distribution instrument:
latencies, candidates per query and batch sizes all record into it.
It buckets values on a *geometric* grid -- bucket ``i`` covers
``(gamma**(i-1), gamma**i]`` with ``gamma = (1 + RELATIVE_ERROR) /
(1 - RELATIVE_ERROR)`` -- so every recorded value is represented with
at most 1% relative error, across the full float range, in O(1)
memory per occupied bucket (the DDSketch scheme of Masson, Rim & Lee,
VLDB 2019).  Integer-valued distributions read back within 1% as
well: a stream of 64-query batches reports a p50 of 63.4.

What makes it the serving-telemetry instrument is its *algebra*:

``quantile(q)``
    Any quantile, each within the documented relative error of the
    true order statistic of the recorded stream.
``merge(other)``
    Exact: bucket counts are integers, so merging two histograms
    yields literally the histogram of the concatenated streams --
    independent of merge order.  This is how per-thread shards and
    per-process workers fold into one distribution.
``delta(before)`` / ``apply_delta(delta)``
    Snapshot algebra for cross-process folding: a worker brackets a
    task with two :meth:`state` snapshots; the count-wise difference
    is exactly that task's observations and can be replayed into any
    other histogram.

Thread model mirrors :class:`~repro.obs.metrics.Counter`: observations
go to a per-thread shard (a private dict; no hot-path locking) and
every read aggregates the shards, so ``repro serve``'s event-loop and
dispatch threads, which observe the same latency instruments, record
exactly.

Zero and negative values land in a dedicated zero bucket (latencies
and counts are non-negative; a clock that reads 0.0 must not vanish).
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterable

#: Relative-error bound (1%): quantiles are within +-1% of the true
#: order statistic.
RELATIVE_ERROR = 0.01

#: Bucket growth factor; the harmonic-midpoint representative of a
#: bucket is within RELATIVE_ERROR of any value the bucket holds.
GAMMA = (1.0 + RELATIVE_ERROR) / (1.0 - RELATIVE_ERROR)
_LOG_GAMMA = math.log(GAMMA)
# Representative of bucket i: 2*gamma**i / (gamma + 1), the harmonic
# midpoint of (gamma**(i-1), gamma**i].
_REP_FACTOR = 2.0 / (GAMMA + 1.0)

#: Values below this are indistinguishable from zero for bucketing
#: purposes (a femtosecond latency is a clock artifact, not a signal).
MIN_TRACKABLE = 1e-12


class _HdrShard:
    """One thread's private observation cell of a sharded histogram."""

    __slots__ = ("counts", "zero_count", "count", "total", "min", "max")

    def __init__(self):
        self.counts: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None


class HdrHistogram:
    """A mergeable log-bucketed histogram with bounded relative error.

    ``name`` is the instrument name (registry key; exported metric
    name).  Buckets grow geometrically by :data:`GAMMA`, which keeps
    every reported value within :data:`RELATIVE_ERROR` (1%) of the
    values its bucket holds; that costs ~920 buckets per
    decade-spanning workload -- a few KiB, allocated sparsely.
    """

    __slots__ = ("name", "_lock", "_shards", "_local")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._shards: list[_HdrShard] = []
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def shard(self) -> _HdrShard:
        """The calling thread's private cell (created on first use)."""
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = _HdrShard()
            with self._lock:
                self._shards.append(cell)
            self._local.cell = cell
        return cell

    def bucket_index(self, value: float) -> int:
        """The geometric bucket holding ``value`` (> MIN_TRACKABLE)."""
        return math.ceil(math.log(value) / _LOG_GAMMA)

    def observe(self, value: float) -> None:
        """Record one observation (thread-safe, shard-local)."""
        cell = self.shard()
        if value > MIN_TRACKABLE:
            i = math.ceil(math.log(value) / _LOG_GAMMA)
            counts = cell.counts
            counts[i] = counts.get(i, 0) + 1
        else:
            cell.zero_count += 1
        cell.count += 1
        cell.total += value
        if cell.min is None or value < cell.min:
            cell.min = value
        if cell.max is None or value > cell.max:
            cell.max = value

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    # -- aggregation -------------------------------------------------------

    def _aggregate(self) -> _HdrShard:
        """Merge every thread's shard into one cell (read-side only)."""
        agg = _HdrShard()
        with self._lock:
            shards = list(self._shards)
        for cell in shards:
            for i, n in cell.counts.items():
                agg.counts[i] = agg.counts.get(i, 0) + n
            agg.zero_count += cell.zero_count
            agg.count += cell.count
            agg.total += cell.total
            if cell.min is not None and (agg.min is None or cell.min < agg.min):
                agg.min = cell.min
            if cell.max is not None and (agg.max is None or cell.max > agg.max):
                agg.max = cell.max
        return agg

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

    def representative(self, bucket: int) -> float:
        """The value reported for a bucket (its harmonic midpoint)."""
        return _REP_FACTOR * GAMMA ** bucket

    def quantile(self, q: float) -> float:
        """The q-quantile of the recorded stream, within 1%.

        Uses the lower order statistic at rank ``ceil(q * count)``
        (rank 1 for q=0), matching ``sorted(values)[max(0,
        ceil(q*n)-1)]`` -- the convention the property tests pin.
        Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        agg = self._aggregate()
        if agg.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * agg.count))
        if rank <= agg.zero_count:
            return 0.0
        seen = agg.zero_count
        for i in sorted(agg.counts):
            seen += agg.counts[i]
            if seen >= rank:
                return self.representative(i)
        # Unreachable unless counts were mutated mid-read; fall back to
        # the max bucket's representative.
        return self.representative(max(agg.counts))

    def quantiles(self, qs: Iterable[float]) -> dict[float, float]:
        """Several quantiles in one aggregation pass."""
        return {q: self.quantile(q) for q in qs}

    # -- snapshot / merge algebra -----------------------------------------

    def state(self) -> dict[str, Any]:
        """JSON-safe full state: the fold/persist primitive.

        Bucket keys are serialized as strings so the state survives a
        JSON round-trip (JSON objects cannot have int keys).
        """
        agg = self._aggregate()
        return {
            "counts": {str(i): n for i, n in agg.counts.items()},
            "zero_count": agg.zero_count,
            "count": agg.count,
            "sum": agg.total,
            "min": agg.min,
            "max": agg.max,
        }

    def delta(self, before: dict[str, Any]) -> dict[str, Any]:
        """Count-wise difference of the current state against ``before``.

        ``before`` must be an earlier :meth:`state` of this histogram;
        the result is itself a valid state describing exactly the
        observations recorded in between, and can be folded elsewhere
        with :meth:`apply_delta`.
        """
        after = self.state()
        return state_delta(before, after)

    def apply_delta(self, delta: dict[str, Any]) -> None:
        """Fold an externally measured state/delta into this histogram.

        Counts land in the calling thread's shard (the same discipline
        as :meth:`~repro.obs.metrics.Counter` delta folding), so
        concurrent folds from several merge points stay exact.
        """
        if state_is_empty(delta):
            # An empty delta's min/max envelope (inherited from the
            # `after` endpoint) describes zero observations; folding it
            # would corrupt this histogram's extremes.
            return
        cell = self.shard()
        for key, n in delta.get("counts", {}).items():
            if n:
                i = int(key)
                cell.counts[i] = cell.counts.get(i, 0) + n
        cell.zero_count += delta.get("zero_count", 0)
        cell.count += delta.get("count", 0)
        cell.total += delta.get("sum", 0.0)
        dmin, dmax = delta.get("min"), delta.get("max")
        if dmin is not None and (cell.min is None or dmin < cell.min):
            cell.min = dmin
        if dmax is not None and (cell.max is None or dmax > cell.max):
            cell.max = dmax

    def merge(self, other: "HdrHistogram") -> "HdrHistogram":
        """Fold ``other``'s observations into self (exact); returns self."""
        self.apply_delta(other.state())
        return self

    def _reset(self) -> None:
        """Zero every shard in place (cached references stay valid)."""
        with self._lock:
            for cell in self._shards:
                cell.counts = {}
                cell.zero_count = 0
                cell.count = 0
                cell.total = 0.0
                cell.min = None
                cell.max = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary: count, sum, min, max, mean and, when
        non-empty, p50/p90/p99/p999."""
        agg = self._aggregate()
        summary: dict[str, Any] = {
            "count": agg.count,
            "sum": agg.total,
            "min": agg.min,
            "max": agg.max,
            "mean": agg.total / agg.count if agg.count else 0.0,
        }
        if agg.count:
            for label, q in (("p50", 0.50), ("p90", 0.90),
                             ("p99", 0.99), ("p999", 0.999)):
                summary[label] = self.quantile(q)
        return summary

    def __repr__(self) -> str:
        agg = self._aggregate()
        return f"HdrHistogram({self.name!r}, count={agg.count})"


def state_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    """Count-wise ``after - before`` of two histogram states.

    ``before`` must be taken earlier on the same stream (all count deltas non-negative;
    a shrinking count means the histogram was reset in between, which
    the caller must treat as a new epoch).  min/max of the delta are
    taken from ``after``: the true min/max of just the in-between
    observations is not recoverable from endpoint snapshots, and for
    fold purposes the conservative envelope is correct.
    """
    counts = dict(after.get("counts", {}))
    for key, n in before.get("counts", {}).items():
        left = counts.get(key, 0) - n
        if left:
            counts[key] = left
        else:
            counts.pop(key, None)
    return {
        "counts": counts,
        "zero_count": after.get("zero_count", 0) - before.get("zero_count", 0),
        "count": after.get("count", 0) - before.get("count", 0),
        "sum": after.get("sum", 0.0) - before.get("sum", 0.0),
        "min": after.get("min"),
        "max": after.get("max"),
    }


def state_is_empty(state: dict[str, Any]) -> bool:
    """Whether a state/delta carries no observations at all."""
    return not state.get("count") and not state.get("counts") \
        and not state.get("zero_count")
