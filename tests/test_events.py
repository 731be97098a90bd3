"""Tests for the structured query-event subsystem (repro.obs.events)."""

from __future__ import annotations

import json

import pytest

from repro.obs import events, metrics
from repro.obs.events import (
    EVENT_FIELDS,
    EventLog,
    QueryEvent,
    events_from_dicts,
    read_jsonl,
)


def make_event(latency_ms=1.0, **overrides) -> QueryEvent:
    fields = dict(
        ts=1000.0, kind="query", latency_ms=latency_ms, sim_time=12.5,
        n_queries=1, n_candidates=8, n_verified=5, pages_read=20,
        backend="thread", workers=1, strategy="index",
        sigma_low=0.5, sigma_high=1.0,
        timings={"embed": 0.1, "probe": 0.4, "fetch": 0.05, "verify": 0.3},
    )
    fields.update(overrides)
    return QueryEvent(**fields)


class TestEventLog:
    def test_ring_is_bounded(self):
        log = EventLog(capacity=5)
        for i in range(20):
            log.record(make_event(ts=float(i)))
        kept = log.events()
        assert len(kept) == 5
        assert [e.ts for e in kept] == [15.0, 16.0, 17.0, 18.0, 19.0]
        assert log.stats()["seen"] == 20
        assert log.stats()["buffered"] == 5

    def test_sampling_is_deterministic_with_seed(self):
        runs = []
        for _ in range(2):
            log = EventLog(sample=0.3, seed=42, slow_ms=float("inf"))
            for i in range(200):
                log.record(make_event(ts=float(i)))
            runs.append([e.ts for e in log.events()])
        assert runs[0] == runs[1]
        assert 0 < len(runs[0]) < 200

    def test_sample_zero_keeps_nothing_but_counts_seen(self):
        log = EventLog(sample=0.0, slow_ms=float("inf"))
        for i in range(50):
            assert not log.record(make_event(ts=float(i)))
        assert log.events() == []
        assert log.stats() == {
            "seen": 50, "kept": 0, "slow": 0, "buffered": 0, "slow_buffered": 0,
        }

    def test_slow_queries_bypass_sampling(self):
        log = EventLog(sample=0.0, slow_ms=10.0)
        log.record(make_event(latency_ms=5.0))
        log.record(make_event(latency_ms=10.0))
        log.record(make_event(latency_ms=250.0))
        slow = log.slow_events()
        assert [e.latency_ms for e in slow] == [10.0, 250.0]
        assert all(e.slow and not e.sampled for e in slow)
        # Sampled ring stays empty at sample=0; the slow ring caught them.
        assert log.events() == []
        assert log.stats()["slow"] == 2

    def test_slow_event_lands_in_both_rings_at_full_sampling(self):
        log = EventLog(sample=1.0, slow_ms=10.0)
        log.record(make_event(latency_ms=50.0))
        assert len(log.events()) == 1
        assert len(log.slow_events()) == 1
        event = log.events()[0]
        assert event.slow and event.sampled

    def test_disabled_log_records_nothing(self):
        log = EventLog()
        log.configure(enabled=False)
        assert not log.record(make_event())
        assert log.stats()["seen"] == 0
        log.configure(enabled=True)
        assert log.record(make_event())

    def test_configure_validates_sample(self):
        with pytest.raises(ValueError):
            EventLog(sample=1.5)
        with pytest.raises(ValueError):
            EventLog().configure(sample=-0.1)

    def test_clear_resets_rings_and_stats(self):
        log = EventLog()
        log.record(make_event(latency_ms=500.0))
        log.clear()
        assert log.events() == []
        assert log.slow_events() == []
        assert log.stats()["seen"] == 0


class TestJsonlRoundtrip:
    def test_export_and_read_back(self, tmp_path):
        log = EventLog(slow_ms=10.0)
        originals = [make_event(ts=float(i), latency_ms=float(i)) for i in range(15)]
        for e in originals:
            log.record(e)
        path = tmp_path / "events.jsonl"
        n = log.export_jsonl(path)
        assert n == 15
        records = list(read_jsonl(path))
        assert len(records) == 15
        for record in records:
            assert set(EVENT_FIELDS) <= set(record)
        rebuilt = events_from_dicts(records)
        assert rebuilt == originals

    def test_export_all_deduplicates_slow_events(self, tmp_path):
        log = EventLog(slow_ms=10.0)
        log.record(make_event(ts=1.0, latency_ms=1.0))
        log.record(make_event(ts=2.0, latency_ms=99.0))  # both rings
        path = tmp_path / "all.jsonl"
        assert log.export_jsonl(path, which="all") == 2
        assert log.export_jsonl(path, which="slow") == 1
        with pytest.raises(ValueError):
            log.export_jsonl(path, which="bogus")

    def test_events_from_dicts_tolerates_extra_keys(self):
        record = make_event().to_dict()
        record["future_field"] = "ignored"
        [event] = events_from_dicts([json.loads(json.dumps(record))])
        assert event.kind == "query"


class TestRecordQuery:
    @pytest.fixture(autouse=True)
    def clean_telemetry(self):
        events.log.clear()
        events.log.configure(sample=1.0, slow_ms=events.DEFAULT_SLOW_MS,
                             enabled=True)
        yield
        events.log.clear()
        events.log.configure(sample=1.0, slow_ms=events.DEFAULT_SLOW_MS,
                             enabled=True)

    def _record(self, **overrides):
        kwargs = dict(
            kind="query", latency_ms=3.0, sim_time=40.0, n_queries=1,
            n_candidates=6, n_verified=4, pages_read=10,
            backend="thread", workers=1, strategy="index",
            sigma_low=0.4, sigma_high=0.9,
            timings={"embed": 0.2, "probe": 1.0, "fetch": 0.1, "verify": 1.5},
        )
        kwargs.update(overrides)
        return events.record_query(**kwargs)

    def test_feeds_event_log_and_hdr_instruments(self):
        wall = metrics.hdr("query.latency_ms")
        sim = metrics.hdr("query.sim_time")
        embed = metrics.hdr("query.phase.embed_ms")
        wall0, sim0, embed0 = wall.count, sim.count, embed.count
        event = self._record()
        assert event is not None
        assert events.log.events()[-1] is event
        assert wall.count == wall0 + 1
        assert sim.count == sim0 + 1
        assert embed.count == embed0 + 1

    def test_batch_amortizes_sim_time_per_query(self):
        sim = metrics.hdr("query.sim_time")
        batch_wall = metrics.hdr("query_batch.latency_ms")
        sim0, wall0 = sim.count, batch_wall.count
        self._record(kind="query_batch", n_queries=4, sim_time=100.0)
        assert sim.count == sim0 + 4
        assert batch_wall.count == wall0 + 1

    def test_set_enabled_false_silences_everything(self):
        wall = metrics.hdr("query.latency_ms")
        events.set_enabled(False)
        try:
            assert not events.is_enabled()
            count0 = wall.count
            assert self._record() is None
            assert wall.count == count0
            assert events.log.stats()["seen"] == 0
        finally:
            events.set_enabled(True)
