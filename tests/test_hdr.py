"""Property tests for the log-bucketed HDR histogram (repro.obs.hdr).

The contracts pinned here are the ones the telemetry layer leans on:
quantiles within the documented relative-error bound, merge() exactly
equal to histogramming the concatenated streams, delta()/apply_delta()
recovering exactly the in-between observations, and fold order
independence (the property that makes cross-shard / cross-process
aggregation deterministic).
"""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics
from repro.obs.hdr import (
    MIN_TRACKABLE,
    RELATIVE_ERROR,
    HdrHistogram,
    state_delta,
    state_is_empty,
)

# Positive latencies spanning nine decades; the histogram must hold its
# error bound across all of them.
positive_values = st.floats(
    min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False
)
value_lists = st.lists(positive_values, min_size=1, max_size=60)
quantile_qs = st.floats(min_value=0.0, max_value=1.0)


def exact_quantile(values: list[float], q: float) -> float:
    """The convention quantile() documents: lower order statistic at
    rank ceil(q*n)."""
    rank = max(1, math.ceil(q * len(values)))
    return sorted(values)[rank - 1]


def build(values, name="h") -> HdrHistogram:
    h = HdrHistogram(name)
    h.observe_many(values)
    return h


def _count_state(state: dict) -> dict:
    """The exact-integer part of a state (float `sum` is additive only
    up to rounding-order, so it is compared approximately elsewhere)."""
    return {k: v for k, v in state.items() if k != "sum"}


class TestQuantileAccuracy:
    @given(values=value_lists, q=quantile_qs)
    @settings(max_examples=150, deadline=None)
    def test_quantile_within_relative_error(self, values, q):
        h = build(values)
        exact = exact_quantile(values, q)
        got = h.quantile(q)
        assert got == pytest.approx(exact, rel=RELATIVE_ERROR)

    @given(values=value_lists)
    @settings(max_examples=60, deadline=None)
    def test_extremes_and_moments_are_exact(self, values):
        h = build(values)
        assert h.count == len(values)
        assert h.min == min(values)
        assert h.max == max(values)
        assert h.total == pytest.approx(sum(values))
        assert h.mean == pytest.approx(sum(values) / len(values))

    @given(value=positive_values)
    @settings(max_examples=100, deadline=None)
    def test_representative_within_relative_error(self, value):
        h = HdrHistogram("p")
        rep = h.representative(h.bucket_index(value))
        assert abs(rep - value) <= RELATIVE_ERROR * value * (1 + 1e-9)

    def test_zero_and_negative_land_in_zero_bucket(self):
        h = HdrHistogram("z")
        h.observe(0.0)
        h.observe(-1.5)
        h.observe(MIN_TRACKABLE / 2)
        assert h.count == 3
        assert h.quantile(0.5) == 0.0
        assert h.state()["zero_count"] == 3

    def test_empty_quantile_is_zero(self):
        assert HdrHistogram("e").quantile(0.99) == 0.0

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            HdrHistogram("h").quantile(1.5)


class TestMergeAlgebra:
    @given(xs=value_lists, ys=value_lists, q=quantile_qs)
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_concatenated_stream(self, xs, ys, q):
        merged = build(xs, name="a").merge(build(ys, name="b"))
        concat = build(xs + ys, name="c")
        # Bucket counts are integers, so the merge is literally the
        # histogram of the concatenated stream: identical counts, hence
        # identical quantiles.  (Only the float `sum` accumulates in a
        # different order.)
        assert _count_state(merged.state()) == _count_state(concat.state())
        assert merged.total == pytest.approx(concat.total)
        assert merged.quantile(q) == concat.quantile(q)

    @given(xs=value_lists, ys=value_lists, zs=value_lists)
    @settings(max_examples=60, deadline=None)
    def test_merge_order_independent(self, xs, ys, zs):
        left = build(xs, name="l").merge(build(ys)).merge(build(zs))
        right = build(zs, name="r").merge(build(xs)).merge(build(ys))
        assert _count_state(left.state()) == _count_state(right.state())
        assert left.total == pytest.approx(right.total)

    @given(values=value_lists)
    @settings(max_examples=40, deadline=None)
    def test_state_survives_json_roundtrip(self, values):
        h = build(values)
        restored = HdrHistogram("r")
        restored.apply_delta(json.loads(json.dumps(h.state())))
        assert restored.state() == h.state()


class TestDeltaAlgebra:
    @given(first=value_lists, second=value_lists)
    @settings(max_examples=80, deadline=None)
    def test_delta_recovers_in_between_observations(self, first, second):
        h = HdrHistogram("d")
        h.observe_many(first)
        before = h.state()
        h.observe_many(second)
        delta = h.delta(before)
        replayed = HdrHistogram("r")
        replayed.apply_delta(delta)
        expected = build(second, name="e")
        # Counts are exactly the in-between stream; min/max are the
        # conservative envelope taken from the `after` endpoint.
        assert replayed.count == expected.count
        state, expected_state = replayed.state(), expected.state()
        assert state["counts"] == expected_state["counts"]
        assert state["zero_count"] == expected_state["zero_count"]
        assert state["sum"] == pytest.approx(expected_state["sum"])

    def test_empty_delta_does_not_corrupt_extremes(self):
        h = HdrHistogram("h")
        h.observe(5.0)
        before = h.state()
        empty = h.delta(before)
        assert state_is_empty(empty)
        target = HdrHistogram("t")
        target.observe(1.0)
        target.apply_delta(empty)
        assert target.min == 1.0
        assert target.max == 1.0
        assert target.count == 1

    @given(first=value_lists, second=value_lists)
    @settings(max_examples=40, deadline=None)
    def test_state_delta_then_fold_reconstructs_after(self, first, second):
        before = build(first, name="b").state()
        after = build(first + second, name="a").state()
        delta = state_delta(before, after)
        rebuilt = HdrHistogram("r")
        rebuilt.apply_delta(before)
        rebuilt.apply_delta(delta)
        assert rebuilt.state()["counts"] == after["counts"]
        assert rebuilt.count == len(first) + len(second)


class TestRegistryFold:
    """Fold order independence at the registry level: the property the
    process-backend executor relies on when several worker task deltas
    arrive in arbitrary completion order."""

    def _worker_delta(self, registry_cls, values, gauge_value):
        reg = registry_cls()
        before = reg.registry_values()
        reg.counter("task.count").inc(len(values))
        reg.gauge("task.gauge").set(gauge_value)
        reg.hdr("task.latency").observe_many(values)
        reg.hdr("task.sizes").observe(len(values))
        return metrics.registry_delta(before, reg.registry_values())

    @given(streams=st.lists(value_lists, min_size=2, max_size=5),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=40, deadline=None)
    def test_fold_order_independent(self, streams, seed):
        deltas = [
            self._worker_delta(metrics.MetricsRegistry, values, i)
            for i, values in enumerate(streams)
        ]
        shuffled = list(deltas)
        random.Random(seed).shuffle(shuffled)

        a = metrics.MetricsRegistry()
        a.apply_deltas(metrics.merge_registry_deltas(deltas))
        b = metrics.MetricsRegistry()
        b.apply_deltas(metrics.merge_registry_deltas(shuffled))

        va, vb = a.registry_values(), b.registry_values()
        assert va["counters"] == vb["counters"]
        assert va["hdr"]["task.latency"]["counts"] == \
            vb["hdr"]["task.latency"]["counts"]
        assert va["hdr"]["task.sizes"]["counts"] == \
            vb["hdr"]["task.sizes"]["counts"]
        # Gauges are last-write-wins point samples: order-dependent by
        # design, but always one of the observed values.
        assert vb["gauges"]["task.gauge"] in range(len(streams))

    def test_incremental_folds_match_single_merge(self):
        streams = [[1.0, 2.0], [3.0], [0.5, 4.0, 2.5]]
        deltas = [
            self._worker_delta(metrics.MetricsRegistry, values, i)
            for i, values in enumerate(streams)
        ]
        one = metrics.MetricsRegistry()
        one.apply_deltas(metrics.merge_registry_deltas(deltas))
        many = metrics.MetricsRegistry()
        for delta in deltas:
            many.apply_deltas(delta)
        vo, vm = one.registry_values(), many.registry_values()
        assert vo["counters"] == vm["counters"]
        assert vo["hdr"]["task.latency"]["counts"] == \
            vm["hdr"]["task.latency"]["counts"]

    def test_reset_registry_values_symmetry(self):
        """The satellite fix: reset() zeroes exactly what
        registry_values() reports, for every instrument kind."""
        reg = metrics.MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(7.0)
        reg.hdr("x").observe(1.5)
        populated = reg.registry_values()
        assert populated["counters"]["c"] == 3
        assert populated["gauges"]["g"] == 7.0
        assert populated["hdr"]["x"]["count"] == 1
        reg.reset()
        zeroed = reg.registry_values()
        assert zeroed["counters"]["c"] == 0
        assert zeroed["gauges"]["g"] == 0.0
        assert zeroed["hdr"]["x"]["count"] == 0
        # Cached instrument references stay live after reset.
        reg.counter("c").inc()
        assert reg.registry_values()["counters"]["c"] == 1
