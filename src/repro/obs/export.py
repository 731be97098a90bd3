"""Exporters: Prometheus text exposition and Chrome trace events.

Two one-way bridges from the in-process telemetry to standard
tooling, plus the validators the CI smoke job and the tests use to
keep the formats honest:

:func:`prometheus_text`
    Renders a :class:`~repro.obs.metrics.MetricsRegistry` in the
    Prometheus text exposition format (version 0.0.4): counters and
    gauges as single samples, histograms as ``summary`` families
    (p50/p90/p99/p999 quantile samples).  The output of an HTTP
    ``/metrics`` handler is exactly this string.
:func:`chrome_trace`
    Converts a completed :class:`~repro.obs.trace.Span` tree to the
    Chrome trace-event JSON format (``chrome://tracing`` /
    https://ui.perfetto.dev): one complete ("X") event per span, with
    real start offsets (spans carry their ``perf_counter`` entry
    timestamps) and the span attributes as ``args``.

Everything is stdlib-only and pure (no sockets, no files): callers
decide where the bytes go.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any

from repro.obs.metrics import MetricsRegistry, registry as default_registry
from repro.obs.trace import Span, _jsonable

#: Prometheus metric-name grammar (exposition format 0.0.4).
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: Prefix for every exported metric family.
PROMETHEUS_PREFIX = "repro"

#: Quantiles exported per histogram.
SUMMARY_QUANTILES = (0.5, 0.9, 0.99, 0.999)


def prometheus_name(name: str) -> str:
    """Map an instrument name to a legal Prometheus family name
    (``query.latency_ms`` -> ``repro_query_latency_ms``)."""
    sanitized = _SANITIZE_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"{PROMETHEUS_PREFIX}_{sanitized}"


def _fmt(value: float | int | None) -> str:
    """A Prometheus sample value (floats exactly, specials spelled)."""
    if value is None:
        return "NaN"
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value)
    return str(value)


def prometheus_text(registry: MetricsRegistry | None = None) -> str:
    """The full registry in Prometheus text exposition format."""
    registry = registry if registry is not None else default_registry
    snapshot = registry.registry_values()
    lines: list[str] = []

    def family(name: str, kind: str, help_text: str) -> str:
        fam = prometheus_name(name)
        lines.append(f"# HELP {fam} {help_text}")
        lines.append(f"# TYPE {fam} {kind}")
        return fam

    for name in sorted(snapshot["counters"]):
        fam = family(name, "counter", f"repro counter {name}")
        lines.append(f"{fam} {_fmt(snapshot['counters'][name])}")
    for name in sorted(snapshot["gauges"]):
        fam = family(name, "gauge", f"repro gauge {name}")
        lines.append(f"{fam} {_fmt(snapshot['gauges'][name])}")
    hdr_histograms = registry.hdr_histograms()
    for name in sorted(snapshot["hdr"]):
        fam = family(name, "summary", f"repro histogram {name}")
        hist = hdr_histograms.get(name)
        state = snapshot["hdr"][name]
        for q in SUMMARY_QUANTILES:
            value = hist.quantile(q) if hist is not None and state["count"] else 0.0
            lines.append(f'{fam}{{quantile="{_fmt(q)}"}} {_fmt(value)}')
        lines.append(f"{fam}_sum {_fmt(state['sum'])}")
        lines.append(f"{fam}_count {state['count']}")
    return "\n".join(lines) + "\n"


def validate_prometheus_text(text: str) -> dict[str, str]:
    """Check a text exposition against the 0.0.4 grammar.

    Returns the ``{family: type}`` mapping on success; raises
    :class:`ValueError` naming the first offending line otherwise.
    Validated invariants: every sample belongs to a ``# TYPE``-declared
    family, sample values parse as floats, histogram ``le`` buckets are
    cumulative and end at ``+Inf`` equal to ``_count``.  The exporter
    writes no ``histogram`` family; those checks hold text written by
    other programs to the same grammar.
    """
    types: dict[str, str] = {}
    buckets: dict[str, list[tuple[float, int]]] = {}
    counts: dict[str, int] = {}
    sample_re = re.compile(
        r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
        r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)(?:\s+\d+)?$"
    )
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            if not _NAME_RE.match(parts[2]):
                raise ValueError(f"line {lineno}: bad family name {parts[2]!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = sample_re.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: unparseable sample: {line!r}")
        name = m.group("name")
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        if family not in types and name not in types:
            raise ValueError(f"line {lineno}: sample {name!r} has no TYPE")
        value_text = m.group("value")
        try:
            value = float(value_text.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad sample value {value_text!r}"
            ) from None
        if name.endswith("_bucket"):
            labels = m.group("labels") or ""
            le = re.search(r'le="([^"]+)"', labels)
            if le is None:
                raise ValueError(f"line {lineno}: bucket sample without le label")
            bound = float(le.group(1).replace("+Inf", "inf"))
            buckets.setdefault(family, []).append((bound, int(value)))
        elif name.endswith("_count"):
            counts[family] = int(value)
    for family, series in buckets.items():
        values = [count for _, count in series]
        if values != sorted(values):
            raise ValueError(f"histogram {family!r}: buckets not cumulative")
        if not series or not math.isinf(series[-1][0]):
            raise ValueError(f"histogram {family!r}: missing le=\"+Inf\" bucket")
        if family in counts and series[-1][1] != counts[family]:
            raise ValueError(
                f"histogram {family!r}: +Inf bucket {series[-1][1]} "
                f"!= _count {counts[family]}"
            )
    return types


# -- Chrome trace-event export -------------------------------------------


def chrome_trace(
    root: Span, pid: int = 1, tid: int = 1, process_name: str = "repro"
) -> dict[str, Any]:
    """A completed span tree as Chrome trace-event JSON.

    One complete ("X") event per span; timestamps are microseconds
    relative to the root span's entry, taken from the spans' real
    ``perf_counter`` entry times (children of a sequential pipeline
    therefore lay out exactly as executed).  Load the serialized dict
    in ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    origin = root.start
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    for span in root.walk():
        args = {
            k: _jsonable(v) for k, v in span.attrs.items()
            if not k.startswith("_")
        }
        if span.io_delta is not None:
            args["io"] = span.io_delta.as_dict()
        events.append({
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "name": span.name,
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(root: Span, path, **kwargs) -> None:
    """Serialize :func:`chrome_trace` output to a JSON file."""
    with open(path, "w") as f:
        json.dump(chrome_trace(root, **kwargs), f, indent=1)


def validate_chrome_trace(payload: dict[str, Any] | str) -> int:
    """Check a trace-event payload; returns the number of "X" events.

    Accepts the :func:`chrome_trace` dict or its serialized JSON text.
    Raises :class:`ValueError` on the first malformed event.  Checked
    invariants: a ``traceEvents`` list, every event carries ``ph`` /
    ``pid`` / ``tid`` / ``name``, duration events carry non-negative
    numeric ``ts`` and ``dur``, and the payload survives a JSON
    round-trip.
    """
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    json.loads(json.dumps(payload))  # must be JSON-safe end to end
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    n_complete = 0
    for i, event in enumerate(events):
        for key in ("ph", "pid", "tid", "name"):
            if key not in event:
                raise ValueError(f"event {i}: missing {key!r}")
        if event["ph"] == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    raise ValueError(f"event {i}: bad {key!r}: {value!r}")
            n_complete += 1
    if n_complete == 0:
        raise ValueError("no complete (ph='X') events")
    return n_complete


def validate_events_jsonl(path) -> int:
    """Check a query-event JSONL export; returns the line count.

    Every line must parse as a JSON object carrying the full
    :data:`repro.obs.events.EVENT_FIELDS` schema with sane types, and
    a kind the library writes: ``query`` (one query), ``query_batch``
    (a batch on any executor) or ``serve`` (one served request).
    """
    from repro.obs.events import EVENT_FIELDS

    n = 0
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: not JSON: {exc}") from None
            if not isinstance(record, dict):
                raise ValueError(f"line {lineno}: not an object")
            missing = [k for k in EVENT_FIELDS if k not in record]
            if missing:
                raise ValueError(f"line {lineno}: missing fields {missing}")
            if record["kind"] not in ("query", "query_batch", "serve"):
                raise ValueError(
                    f"line {lineno}: bad kind {record['kind']!r}"
                )
            for key in ("latency_ms", "sim_time", "sigma_low", "sigma_high"):
                if not isinstance(record[key], (int, float)):
                    raise ValueError(f"line {lineno}: non-numeric {key!r}")
            for key in ("n_queries", "n_candidates", "n_verified",
                        "pages_read", "workers"):
                if not isinstance(record[key], int):
                    raise ValueError(f"line {lineno}: non-integer {key!r}")
            if not isinstance(record["timings"], dict):
                raise ValueError(f"line {lineno}: timings must be an object")
            n += 1
    if n == 0:
        raise ValueError("no events in file")
    return n
