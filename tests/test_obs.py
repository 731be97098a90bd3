"""Tests for the observability subsystem (repro.obs)."""

from __future__ import annotations

import io as io_module
import json
import logging

import pytest

from repro.core.index import SetSimilarityIndex
from repro.obs import configure_logging, explain_json, metrics, render_trace, trace
from repro.obs.explain import filter_summaries, probe_spans
from repro.obs.logs import ROOT_LOGGER
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.storage.iomodel import IOCostModel, IOStats


@pytest.fixture(scope="module")
def traced_query(clustered_sets):
    """One real query executed with tracing; returns (index, result)."""
    index = SetSimilarityIndex.build(
        clustered_sets, budget=60, recall_target=0.8, k=32, b=4, seed=11
    )
    result = index.query(clustered_sets[0], 0.5, 1.0, explain=True)
    return index, result


class TestSpan:
    def test_disabled_path_is_null_span(self):
        assert trace.span("anything", key="value") is trace.NULL_SPAN
        assert not trace.is_active()

    def test_null_span_is_inert(self):
        sp = trace.NULL_SPAN
        with sp as entered:
            assert entered is sp
        assert sp.set(a=1) is sp
        assert not sp.recording
        assert list(sp.walk()) == []
        assert sp.to_dict() == {}

    def test_capture_disabled_yields_none(self):
        assert not trace.is_enabled()
        with trace.capture("query") as root:
            assert root is None
        assert not trace.is_active()

    def test_capture_forced_yields_root(self):
        with trace.capture("query", force=True) as root:
            assert root is not None
            assert root.recording
            assert trace.is_active()
            assert trace.current() is root
        assert not trace.is_active()

    def test_set_enabled_global_switch(self):
        trace.set_enabled(True)
        try:
            with trace.capture("query") as root:
                assert root is not None
        finally:
            trace.set_enabled(False)
        with trace.capture("query") as root:
            assert root is None

    def test_spans_nest(self):
        with trace.capture("root", force=True) as root:
            with trace.span("outer", depth=1) as outer:
                with trace.span("inner", depth=2) as inner:
                    pass
        assert root.children == [outer]
        assert outer.children == [inner]
        assert [s.name for s in root.walk()] == ["root", "outer", "inner"]
        assert list(root.find("inner")) == [inner]

    def test_nested_captures_join_one_tree(self):
        with trace.capture("harness", force=True) as harness:
            with trace.capture("query", force=True) as inner:
                assert inner is not harness
        assert inner in harness.children
        assert not trace.is_active()

    def test_io_delta_snapshots(self):
        io = IOCostModel()
        io.read_random(1)  # pre-capture traffic must not be charged
        with trace.capture("root", io=io, force=True) as root:
            with trace.span("probe") as sp:
                io.read_random(2)
                io.read_sequential(3)
            io.write(1)
        assert sp.io_delta == IOStats(3, 2, 0, 0)
        assert root.io_delta == IOStats(3, 2, 1, 0)

    def test_durations_recorded(self):
        with trace.capture("root", force=True) as root:
            with trace.span("child"):
                pass
        assert root.duration > 0
        assert root.duration_ms == root.duration * 1e3

    def test_to_dict_excludes_private_attrs(self):
        with trace.capture("root", force=True) as root:
            with trace.span("probe", candidates=3, _sids={1, 2, 3}):
                pass
        d = root.to_dict()
        probe = d["children"][0]
        assert probe["attrs"] == {"candidates": 3}
        assert "_sids" not in json.dumps(d)

    def test_to_dict_is_json_serializable(self):
        with trace.capture("root", force=True, sids={3, 1}, rng=(0.5, 1.0)) as root:
            pass
        payload = json.loads(json.dumps(root.to_dict()))
        assert payload["attrs"]["sids"] == [1, 3]

    def test_exception_still_closes_trace(self):
        with pytest.raises(RuntimeError):
            with trace.capture("root", force=True):
                with trace.span("child"):
                    raise RuntimeError("boom")
        assert not trace.is_active()


class TestJsonableAttrs:
    """Serialization of span attributes (the ``_jsonable`` helper).

    Regression coverage for the duck-typing bug where *any* object
    with an ``item`` attribute was mistaken for a numpy scalar and had
    ``.item()`` called on it during serialization.
    """

    @staticmethod
    def _serialize(**attrs):
        with trace.capture("root", force=True, **attrs) as root:
            pass
        return json.loads(json.dumps(root.to_dict()))["attrs"]

    def test_object_with_item_method_is_not_called(self):
        class Itemful:
            def item(self):  # pragma: no cover - must never run
                raise AssertionError("item() must not be called")

            def __repr__(self):
                return "Itemful()"

        attrs = self._serialize(value=Itemful())
        assert attrs["value"] == "Itemful()"

    def test_numpy_scalar_unwrapped(self):
        import numpy as np

        attrs = self._serialize(count=np.int64(7), share=np.float32(0.25))
        assert attrs["count"] == 7
        assert attrs["share"] == pytest.approx(0.25)

    def test_numpy_array_becomes_list(self):
        import numpy as np

        attrs = self._serialize(
            vec=np.array([1, 2, 3], dtype=np.int64),
            zero_d=np.array(5.0),
        )
        assert attrs["vec"] == [1, 2, 3]
        assert attrs["zero_d"] == 5.0

    def test_containers_recurse(self):
        import numpy as np

        attrs = self._serialize(
            nested={"a": np.int32(1), "b": [np.float64(2.0), {3, 1}]}
        )
        assert attrs["nested"] == {"a": 1, "b": [2.0, [1, 3]]}


class TestMetrics:
    def test_counter(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge(self):
        g = Gauge("g")
        g.set(0.75)
        assert g.value == 0.75

    def test_registry_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("x") is reg.gauge("x")
        assert reg.hdr("x") is reg.hdr("x")

    def test_registry_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("probes").inc(3)
        reg.gauge("load").set(0.5)
        reg.hdr("occ").observe(7)
        snap = reg.registry_values()
        assert snap["counters"] == {"probes": 3}
        assert snap["gauges"] == {"load": 0.5}
        assert set(snap) == {"counters", "gauges", "hdr"}
        assert snap["hdr"]["occ"]["count"] == 1

    def test_reset_zeroes_in_place(self):
        """Module-cached instrument references survive a reset."""
        reg = MetricsRegistry()
        cached = reg.counter("probes")
        cached.inc(9)
        reg.reset()
        assert cached.value == 0
        assert reg.counter("probes") is cached
        cached.inc()
        assert reg.registry_values()["counters"]["probes"] == 1

    def test_default_registry_instrumented_by_query(self, traced_query):
        index, _ = traced_query
        before = metrics.registry_values()["counters"].get("sfi.probes", 0)
        index.query({1, 2, 3}, 0.5, 1.0)
        after = metrics.registry_values()["counters"]["sfi.probes"]
        assert after > before

    def test_counter_values_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        reg.counter("b")  # untouched counters are reported too
        assert reg.counter_values() == {"a": 3, "b": 0}

    def test_apply_deltas_folds_counters_in(self):
        """The cross-process fold: worker deltas land in this registry."""
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        before = reg.counter_values()
        reg.apply_deltas({"counters": {"a": 5, "new": 7, "zero": 0}})
        values = reg.counter_values()
        assert values["a"] == before["a"] + 5
        assert values["new"] == 7
        assert "zero" not in values  # zero deltas create nothing

    def test_counter_roundtrip_through_values_and_deltas(self):
        """before/after bracketing reproduces exactly what a task moved."""
        reg = MetricsRegistry()
        reg.counter("x").inc(4)
        before = reg.counter_values()
        reg.counter("x").inc(6)
        reg.counter("y").inc(1)
        after = reg.counter_values()
        deltas = {
            name: after[name] - before.get(name, 0)
            for name in after
            if after[name] != before.get(name, 0)
        }
        sink = MetricsRegistry()
        sink.apply_deltas({"counters": deltas})
        assert sink.counter_values() == {"x": 6, "y": 1}


class TestExplain:
    def test_query_result_carries_trace(self, traced_query):
        _, result = traced_query
        assert result.trace is not None
        assert result.trace.name == "query"

    def test_untraced_query_has_no_trace(self, traced_query):
        index, _ = traced_query
        result = index.query({1, 2, 3}, 0.5, 1.0)
        assert result.trace is None

    def test_filter_summaries_schema(self, traced_query):
        _, result = traced_query
        summaries = filter_summaries(result.trace)
        assert summaries
        for s in summaries:
            assert s["kind"] in ("SFI", "DFI")
            assert 0.0 < s["s_star"] < 1.0
            assert s["r"] >= 1 and s["l"] >= 1
            assert s["tables_probed"] == s["l"]
            assert s["buckets_read"] >= s["l"]  # >=1 page per table probed
            assert s["candidates"] >= 0
            assert 0 <= s["survived"] <= s["candidates"]

    def test_probe_spans_one_span_per_filter(self, clustered_sets):
        """A DFI is an SFI probed with complemented queries, but its
        probe is one ``dfi_probe_batch`` span with no ``sfi_probe_batch``
        inside (the shape every execution path emits)."""
        from tests.test_index import build_planned_index

        index = build_planned_index(clustered_sets)
        # [0.2, 0.7] is the pivot-union plan: it probes DFIs and SFIs.
        batch = index.query_batch(clustered_sets[:3], 0.2, 0.7, explain=True)
        cspan = next(batch.trace.find("candidates_batch"))
        spans = probe_spans(cspan)
        assert {s.name for s in spans} == {"dfi_probe_batch", "sfi_probe_batch"}
        filters = {"dfi": index._dfis, "sfi": index._sfis}
        for s in spans:
            assert [c.name for c in s.walk()] == [s.name]
            kind = s.name.split("_")[0]
            assert s.attrs["s_star"] == filters[kind][s.attrs["sigma"]].threshold
        embed = next(cspan.find("embed_batch"))
        assert sum(
            (s.io_delta for s in spans), IOStats()
        ) == cspan.io_delta - embed.io_delta

    def test_explain_json_schema(self, traced_query):
        _, result = traced_query
        payload = explain_json(result.trace)
        payload = json.loads(json.dumps(payload))  # must be JSON-safe
        assert set(payload) == {"query", "filters", "io", "duration_ms", "trace"}
        assert payload["query"]["sigma_low"] == 0.5
        assert payload["query"]["n_candidates"] == result.n_candidates
        assert payload["query"]["n_verified"] == result.n_verified
        assert payload["io"]["random_reads"] > 0
        assert payload["trace"]["name"] == "query"
        assert payload["filters"] == filter_summaries(result.trace)

    def test_render_trace_plan_tree(self, traced_query):
        _, result = traced_query
        text = render_trace(result.trace)
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert any("probe SFI" in l or "probe DFI" in l for l in lines)
        assert "s*=" in text and "(r=" in text
        assert "buckets=" in text and "candidates=" in text
        assert "survived=" in text
        assert any(l.startswith(("├─", "└─")) for l in lines)

    def test_scan_strategy_traced(self, traced_query):
        index, _ = traced_query
        result = index.query({1, 2, 3}, 0.0, 1.0, strategy="scan", explain=True)
        assert list(result.trace.find("scan_batch"))
        assert filter_summaries(result.trace) == []


class TestLogging:
    def test_configure_is_idempotent(self):
        logger = configure_logging(1)
        n_before = len(logger.handlers)
        configure_logging(2)
        assert len(logger.handlers) == n_before
        assert logger.level == logging.DEBUG

    def test_verbosity_levels(self):
        assert configure_logging(0).level == logging.WARNING
        assert configure_logging(1).level == logging.INFO
        assert configure_logging(5).level == logging.DEBUG

    def test_build_and_query_log(self, clustered_sets):
        stream = io_module.StringIO()
        configure_logging(2, stream=stream)
        try:
            index = SetSimilarityIndex.build(
                clustered_sets[:30], budget=20, k=16, b=4, seed=2
            )
            index.query(clustered_sets[0], 0.6, 1.0)
        finally:
            configure_logging(0)
        out = stream.getvalue()
        assert "building index" in out
        assert "query [0.600, 1.000]" in out

    def test_loggers_under_repro_hierarchy(self):
        from repro.obs.logs import get_logger

        assert get_logger("core.index").name == f"{ROOT_LOGGER}.core.index"
        assert get_logger("repro.core.index").name == "repro.core.index"
