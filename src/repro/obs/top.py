"""The ``repro top`` dashboard: live query telemetry in a terminal.

Renders the operator's four questions -- how fast (QPS, latency
quantiles), how selective (candidate -> verified funnel), how much I/O
(pages read), and what's slow (the slow-query
log) -- from a stream of :mod:`repro.obs.events` records.

The input is a JSONL event export (``EventLog.export_jsonl``), read
either once (``repro top --once``, the scriptable/CI form) or in
follow mode, where the file is re-read every refresh interval so a
harness appending events drives a live view.  All statistics are
computed from the event sample itself: quantiles here are *exact* over
the captured events (the HDR histograms backing the Prometheus export
summarize the full population; at sample=1.0 the two agree within
1%).
"""

from __future__ import annotations

import math
from typing import Any, Iterable

#: Quantile columns of the latency table.
QUANTILES = (
    ("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999),
)


def quantile(values: list[float], q: float) -> float:
    """Exact q-quantile of ``values``: the lower order statistic at rank
    ``ceil(q*n)`` (rank 1 for q=0), 0.0 when empty.

    The one exact-quantile rule: ``repro top`` and ``repro loadgen``
    call it, and :meth:`repro.obs.hdr.HdrHistogram.quantile` follows
    it within 1%."""
    if not values:
        return 0.0
    rank = max(1, math.ceil(q * len(values)))
    return sorted(values)[rank - 1]


def summarize(
    records: Iterable[dict[str, Any]], window_s: float | None = None
) -> dict[str, Any]:
    """Aggregate event records into the dashboard's panel values.

    ``window_s`` keeps only events within that many seconds of the
    newest event (a sliding window for follow mode); None aggregates
    everything.  Returns a JSON-safe dict; see :func:`render` for the
    presentation.
    """
    # A served request's "serve" event is also inside the batch event
    # its coalesced batch records; counting both would double it.
    events = [e for e in records if e.get("kind") in ("query", "query_batch")]
    if window_s is not None and events:
        newest = max(e["ts"] for e in events)
        events = [e for e in events if e["ts"] >= newest - window_s]
    if not events:
        return {"n_events": 0}

    n_queries = sum(e["n_queries"] for e in events)
    span = max(e["ts"] for e in events) - min(e["ts"] for e in events)
    latencies = [e["latency_ms"] for e in events]
    sim_times = [e["sim_time"] for e in events]
    n_candidates = sum(e["n_candidates"] for e in events)
    n_verified = sum(e["n_verified"] for e in events)
    pages_read = sum(e["pages_read"] for e in events)
    phases: dict[str, list[float]] = {}
    for e in events:
        for phase, ms in (e.get("timings") or {}).items():
            phases.setdefault(phase, []).append(ms)
    backends: dict[str, int] = {}
    for e in events:
        backends[e["backend"]] = backends.get(e["backend"], 0) + 1
    slow = sorted(
        (e for e in events if e.get("slow")),
        key=lambda e: e["latency_ms"], reverse=True,
    )
    return {
        "n_events": len(events),
        "n_queries": n_queries,
        "span_s": span,
        "qps": n_queries / span if span > 0 else float(n_queries),
        "latency_ms": {
            label: quantile(latencies, q) for label, q in QUANTILES
        },
        "sim_time": {
            label: quantile(sim_times, q) for label, q in QUANTILES
        },
        "phases_ms": {
            phase: {
                "mean": sum(values) / len(values),
                "p99": quantile(values, 0.99),
            }
            for phase, values in sorted(phases.items())
        },
        "funnel": {
            "candidates": n_candidates,
            "verified": n_verified,
            "precision": n_verified / n_candidates if n_candidates else 0.0,
        },
        "io": {"pages_read": pages_read},
        "backends": backends,
        "n_slow": len(slow),
        "slowest": [
            {
                "latency_ms": e["latency_ms"],
                "kind": e["kind"],
                "backend": e["backend"],
                "n_queries": e["n_queries"],
                "range": [e["sigma_low"], e["sigma_high"]],
            }
            for e in slow[:5]
        ],
    }


def render(summary: dict[str, Any], source: str = "") -> str:
    """The dashboard as fixed-width terminal text."""
    lines: list[str] = []
    title = "repro top" + (f" -- {source}" if source else "")
    lines.append(title)
    lines.append("=" * max(46, len(title)))
    if not summary.get("n_events"):
        lines.append("(no query events)")
        return "\n".join(lines)
    lines.append(
        f"events {summary['n_events']}  queries {summary['n_queries']}  "
        f"span {summary['span_s']:.1f}s  QPS {summary['qps']:.1f}"
    )
    lat = summary["latency_ms"]
    sim = summary["sim_time"]
    lines.append("")
    lines.append(f"{'latency':<12}{'p50':>10}{'p90':>10}{'p99':>10}{'p999':>10}")
    lines.append(
        f"{'wall ms':<12}"
        + "".join(f"{lat[k]:>10.2f}" for k, _ in QUANTILES)
    )
    lines.append(
        f"{'simulated':<12}"
        + "".join(f"{sim[k]:>10.1f}" for k, _ in QUANTILES)
    )
    if summary["phases_ms"]:
        lines.append("")
        lines.append(f"{'phase':<12}{'mean ms':>10}{'p99 ms':>10}")
        for phase, stats in summary["phases_ms"].items():
            lines.append(
                f"{phase:<12}{stats['mean']:>10.2f}{stats['p99']:>10.2f}"
            )
    funnel = summary["funnel"]
    io = summary["io"]
    lines.append("")
    lines.append(
        f"funnel: {funnel['candidates']} candidates -> "
        f"{funnel['verified']} verified "
        f"(precision {funnel['precision']:.3f})"
    )
    lines.append(f"io: {io['pages_read']} pages read")
    backends = ", ".join(
        f"{name}={count}" for name, count in sorted(summary["backends"].items())
    )
    lines.append(f"backends: {backends}")
    if summary["n_slow"]:
        lines.append("")
        lines.append(f"slow queries ({summary['n_slow']} captured):")
        for e in summary["slowest"]:
            lines.append(
                f"  {e['latency_ms']:>9.1f} ms  {e['kind']:<12} "
                f"backend={e['backend']} n={e['n_queries']} "
                f"range=[{e['range'][0]:.2f}, {e['range'][1]:.2f}]"
            )
    return "\n".join(lines)
