"""Observability for the query pipeline: tracing, metrics, EXPLAIN.

The paper's contribution is a *tunable* trade-off, which makes the
system only as good as its visibility: without per-probe statistics
there is no way to tell which filter index contributed candidates,
how many buckets a probe touched, or where a query's simulated time
went.  This package is the measurement substrate the rest of the
system (and every future tuning experiment) builds on:

:mod:`repro.obs.trace`
    Nestable wall-clock + I/O-delta spans with a thread-local active
    trace and a no-op fast path when tracing is off.
:mod:`repro.obs.metrics`
    A process-wide registry of named counters, gauges and histograms
    (buckets probed, candidates per filter, verification hits, ...).
:mod:`repro.obs.hdr`
    The one histogram kind: log-bucketed, quantiles within 1%, with an
    exact merge/delta algebra (latency, candidate-count and batch-size
    distributions that survive thread sharding and process folding).
:mod:`repro.obs.events`
    Ring-buffered structured query events with probabilistic sampling
    and an always-capture slow-query log; JSONL export for
    ``repro top``.
:mod:`repro.obs.export`
    Prometheus text exposition of the metrics registry and Chrome
    trace-event export of span trees, with format validators.
:mod:`repro.obs.explain`
    Renders a completed query trace as a human-readable plan tree and
    as structured JSON (``repro query --explain`` / ``repro explain``).
:mod:`repro.obs.logs`
    ``logging`` wiring for the ``repro`` logger hierarchy
    (``configure_logging``; the CLI's ``-v/--verbose``).

Everything here is stdlib-only and adds near-zero overhead when
disabled, so instrumentation can stay in the hot paths permanently.
"""

from repro.obs import events, export, hdr, metrics, trace
from repro.obs.explain import build_summaries, explain_json, render_trace
from repro.obs.logs import configure_logging

__all__ = [
    "build_summaries",
    "configure_logging",
    "events",
    "explain_json",
    "export",
    "hdr",
    "metrics",
    "render_trace",
    "trace",
]
