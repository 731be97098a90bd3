"""Tests for the telemetry exporters (repro.obs.export)."""

from __future__ import annotations

import json

import pytest

from repro.obs import export, trace
from repro.obs.events import EventLog
from repro.obs.export import (
    chrome_trace,
    prometheus_name,
    prometheus_text,
    validate_chrome_trace,
    validate_events_jsonl,
    validate_prometheus_text,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry

from tests.test_events import make_event


@pytest.fixture
def populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("query.count").inc(7)
    reg.gauge("serve.queue_depth").set(0.625)
    occupancy = reg.hdr("bucket.occupancy")
    for v in (0.5, 1.5, 3.0, 7.0, 42.0):
        occupancy.observe(v)
    latency = reg.hdr("query.latency_ms")
    latency.observe_many([1.0, 2.0, 5.0, 100.0])
    return reg


class TestPrometheus:
    def test_name_sanitization(self):
        assert prometheus_name("query.latency_ms") == "repro_query_latency_ms"
        assert prometheus_name("weird-name!x") == "repro_weird_name_x"

    def test_text_exposition_validates(self, populated_registry):
        text = prometheus_text(populated_registry)
        families = validate_prometheus_text(text)
        assert families["repro_query_count"] == "counter"
        assert families["repro_serve_queue_depth"] == "gauge"
        assert families["repro_bucket_occupancy"] == "summary"
        assert families["repro_query_latency_ms"] == "summary"
        assert "{le=" not in text  # one histogram family form

    def test_histogram_buckets_are_cumulative_with_inf(self):
        """Exposition text from other programs may carry native
        histograms; the validator checks their ``le`` buckets."""
        head = "# TYPE repro_h histogram\n"
        good = head + (
            'repro_h_bucket{le="1.0"} 2\n'
            'repro_h_bucket{le="5.0"} 4\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 54.0\n"
            "repro_h_count 5\n"
        )
        assert validate_prometheus_text(good) == {"repro_h": "histogram"}
        no_inf = head + 'repro_h_bucket{le="1.0"} 2\nrepro_h_count 2\n'
        with pytest.raises(ValueError, match="Inf"):
            validate_prometheus_text(no_inf)
        inf_not_count = head + 'repro_h_bucket{le="+Inf"} 5\nrepro_h_count 6\n'
        with pytest.raises(ValueError, match="_count"):
            validate_prometheus_text(inf_not_count)

    def test_summary_carries_quantile_labels(self, populated_registry):
        text = prometheus_text(populated_registry)
        for q in ("0.5", "0.9", "0.99", "0.999"):
            assert f'repro_query_latency_ms{{quantile="{q}"}}' in text
        assert "repro_query_latency_ms_count 4" in text

    def test_validator_rejects_missing_type(self):
        with pytest.raises(ValueError, match="TYPE"):
            validate_prometheus_text("repro_orphan 1\n")

    def test_validator_rejects_non_cumulative_buckets(self):
        bad = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            'repro_h_bucket{le="2"} 3\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 1\n"
            "repro_h_count 5\n"
        )
        with pytest.raises(ValueError):
            validate_prometheus_text(bad)

    def test_empty_registry_still_validates(self):
        assert validate_prometheus_text(prometheus_text(MetricsRegistry())) == {}


class TestChromeTrace:
    def _traced_root(self):
        with trace.capture("query", force=True) as root:
            with trace.span("candidates", filters=3):
                with trace.span("probe"):
                    pass
            with trace.span("verify", n=5):
                pass
        return root

    def test_trace_payload_validates(self):
        root = self._traced_root()
        payload = chrome_trace(root)
        assert validate_chrome_trace(payload) == 4
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        assert {"query", "candidates", "probe", "verify"} <= names
        root_event = next(e for e in events if e["name"] == "query")
        assert root_event["ts"] == 0.0
        child = next(e for e in events if e["name"] == "probe")
        assert child["ts"] >= 0.0 and child["dur"] >= 0.0

    def test_span_attributes_become_args(self):
        payload = chrome_trace(self._traced_root())
        verify = next(
            e for e in payload["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "verify"
        )
        assert verify["args"]["n"] == 5

    def test_write_and_validate_from_disk(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self._traced_root(), path)
        assert validate_chrome_trace(path.read_text()) == 4
        parsed = json.loads(path.read_text())
        assert parsed["displayTimeUnit"] == "ms"

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace("not json")
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(ValueError, match="missing"):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ValueError, match="bad"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "pid": 1, "tid": 1, "name": "q", "ts": -5, "dur": 1},
            ]})
        with pytest.raises(ValueError, match="no complete"):
            validate_chrome_trace({"traceEvents": []})


class TestEventsJsonl:
    def test_accepts_and_renders_a_log_with_cache_hits(self, tmp_path, capsys):
        """Event logs written while events still carried buffer-pool
        hits (a ``cache_hits`` field) validate -- extra keys are
        allowed -- and render in ``repro top``."""
        from repro.cli import main

        path = tmp_path / "old.jsonl"
        path.write_text("".join(
            json.dumps({**make_event(ts=float(i)).to_dict(), "cache_hits": 3}) + "\n"
            for i in range(4)
        ))
        assert validate_events_jsonl(path) == 4
        capsys.readouterr()
        assert main(["top", "--events", str(path)]) == 0
        assert "io: 80 pages read\n" in capsys.readouterr().out

    def test_accepts_real_export(self, tmp_path):
        log = EventLog()
        for i in range(6):
            log.record(make_event(ts=float(i)))
        path = tmp_path / "events.jsonl"
        log.export_jsonl(path)
        assert validate_events_jsonl(path) == 6

    def test_rejects_missing_field(self, tmp_path):
        record = make_event().to_dict()
        del record["n_candidates"]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="n_candidates"):
            validate_events_jsonl(path)

    def test_rejects_bad_kind_and_empty_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(make_event(kind="mystery").to_dict()) + "\n")
        with pytest.raises(ValueError):
            validate_events_jsonl(path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError):
            validate_events_jsonl(empty)

    def test_accepts_every_kind_the_library_writes(self, tmp_path):
        path = tmp_path / "kinds.jsonl"
        path.write_text("".join(
            json.dumps(make_event(kind=kind).to_dict()) + "\n"
            for kind in ("query", "query_batch", "serve")
        ))
        assert validate_events_jsonl(path) == 3

    def test_rejects_non_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match="not JSON"):
            validate_events_jsonl(path)


class TestExportsInPackage:
    def test_export_module_reachable_from_obs(self):
        import repro.obs as obs

        assert obs.export is export
