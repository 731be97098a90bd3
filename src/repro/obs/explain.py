"""EXPLAIN: render a completed query trace as a plan tree and JSON.

A query executed with tracing (``index.query(..., explain=True)`` or a
``trace.capture`` around it) produces a :class:`~repro.obs.trace.Span`
tree.  This module turns that tree into the two artifacts the CLI and
the harness expose:

- :func:`render_trace`: a human-readable plan tree, one line per
  pipeline stage, showing per probed filter index its cut point, the
  turning point ``s*``, ``(r, l)``, tables probed, buckets read,
  candidates contributed and candidates surviving verification.
- :func:`explain_json`: the same data as structured JSON -- a
  ``filters`` summary list for programmatic consumption plus the full
  span tree for drill-down.

The span attributes consumed here are produced by the instrumentation
in :mod:`repro.exec.pipeline` and :mod:`repro.core.index`.
"""

from __future__ import annotations

from typing import Any

from repro.obs.trace import Span, _jsonable

#: Span names identifying one filter-index probe: a whole query batch
#: (one row for ``query()``) against one SFI/DFI with grouped bucket
#: reads.
PROBE_SPANS = ("sfi_probe_batch", "dfi_probe_batch")


def _fmt_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (set, frozenset)):
        return str(len(value))
    return str(value)


def _fmt_io(span: Span) -> str:
    io = span.io_delta
    if io is None:
        return ""
    parts = []
    if io.random_reads:
        parts.append(f"{io.random_reads}r")
    if io.sequential_reads:
        parts.append(f"{io.sequential_reads}s")
    if io.page_writes:
        parts.append(f"{io.page_writes}w")
    if io.cpu_ops:
        parts.append(f"{io.cpu_ops}cpu")
    return f"io[{'+'.join(parts)}]" if parts else ""


def buckets_read(span: Span) -> int | None:
    """Bucket pages a probe span touched (random heads + overflows)."""
    if span.io_delta is None:
        return None
    return span.io_delta.random_reads + span.io_delta.sequential_reads


def _describe(span: Span) -> str:
    """One plan-tree line for a span (sans tree decoration)."""
    attrs = span.attrs
    if span.name in PROBE_SPANS:
        kind = "SFI" if span.name.startswith("sfi") else "DFI"
        parts = [f"probe {kind}"]
        if attrs.get("sigma") is not None:
            parts[0] += f"(σ={attrs['sigma']:.3f})"
        if attrs.get("s_star") is not None:
            parts.append(f"s*={attrs['s_star']:.3f}")
        if attrs.get("r") is not None and attrs.get("l") is not None:
            parts.append(f"(r={attrs['r']}, l={attrs['l']})")
        if attrs.get("n_queries") is not None:
            parts.append(f"queries={attrs['n_queries']}")
        parts.append(f"tables={attrs.get('tables_probed', attrs.get('l', '?'))}")
        nb = buckets_read(span)
        if nb is not None:
            parts.append(f"buckets={nb}")
        if attrs.get("pages_saved") is not None:
            parts.append(f"pages_saved={attrs['pages_saved']}")
        if attrs.get("candidates") is not None:
            parts.append(f"candidates={attrs['candidates']}")
        if attrs.get("survived") is not None:
            parts.append(f"survived={attrs['survived']}")
        line = "  ".join(parts)
    else:
        pairs = "  ".join(
            f"{k}={_fmt_value(v)}" for k, v in attrs.items()
            if not k.startswith("_")
        )
        line = span.name if not pairs else f"{span.name}  {pairs}"
    io = _fmt_io(span)
    if io:
        line += f"  {io}"
    if span.duration:
        line += f"  [{span.duration_ms:.2f}ms]"
    return line


def render_trace(trace: Span) -> str:
    """Render a span tree as an indented plan tree (one line per span)."""
    lines = [_describe(trace)]

    def walk(span: Span, prefix: str) -> None:
        for i, child in enumerate(span.children):
            last = i == len(span.children) - 1
            lines.append(prefix + ("└─ " if last else "├─ ")
                         + _describe(child))
            walk(child, prefix + ("   " if last else "│  "))

    walk(trace, "")
    return "\n".join(lines)


def probe_spans(trace: Span) -> list[Span]:
    """The filter-probe spans of a trace, in execution order: one per
    planned filter (a DFI probe is one ``dfi_probe_batch`` span)."""
    return [span for span in trace.walk() if span.name in PROBE_SPANS]


def filter_summaries(trace: Span) -> list[dict[str, Any]]:
    """Per-probed-filter statistics extracted from a query trace.

    Besides the filter's parameters and candidate counts, each summary
    carries ``n_queries`` (queries served by the one probe) and
    ``pages_saved`` (bucket pages the grouped reads avoided versus
    probing each query separately; 0 for a single query).
    """
    summaries = []
    for span in probe_spans(trace):
        attrs = span.attrs
        summaries.append({
            "kind": "SFI" if span.name.startswith("sfi") else "DFI",
            "sigma": attrs.get("sigma"),
            "s_star": attrs.get("s_star"),
            "r": attrs.get("r"),
            "l": attrs.get("l"),
            "tables_probed": attrs.get("tables_probed", attrs.get("l")),
            "buckets_read": buckets_read(span),
            "candidates": attrs.get("candidates"),
            "survived": attrs.get("survived"),
            "duration_ms": round(span.duration_ms, 3),
            "n_queries": attrs.get("n_queries"),
            "pages_saved": attrs.get("pages_saved"),
        })
    return summaries


#: Span names of the build pipeline's phases, in pipeline order.
BUILD_PHASE_SPANS = (
    "estimate_distribution", "plan_index", "store_load",
    "embed_corpus", "filter_build",
)


def build_summaries(trace: Span) -> list[dict[str, Any]]:
    """Per-phase statistics extracted from a build trace.

    The build-side analogue of :func:`filter_summaries`: one dict per
    pipeline phase (``estimate_distribution``, ``plan_index``,
    ``store_load``, ``embed_corpus``, ``filter_build``) with its
    duration, I/O delta and phase attributes -- e.g. the
    ``filter_build`` entry carries entries loaded, pages allocated and
    tail pages read.  JSON-safe, in phase order.
    """
    summaries = []
    for name in BUILD_PHASE_SPANS:
        for span in trace.find(name):
            summaries.append({
                "phase": name,
                "duration_ms": round(span.duration_ms, 3),
                "io": (
                    span.io_delta.as_dict()
                    if span.io_delta is not None else None
                ),
                **{
                    k: _jsonable(v) for k, v in span.attrs.items()
                    if not k.startswith("_")
                },
            })
    return summaries


def explain_json(trace: Span) -> dict[str, Any]:
    """Structured EXPLAIN output for one traced query.

    Keys: ``query`` (the root span's attributes -- range, strategy,
    totals), ``filters`` (per-probe summaries, see
    :func:`filter_summaries`), ``io`` (the root I/O delta) and
    ``trace`` (the full span tree).
    """
    return {
        "query": {
            k: _jsonable(v) for k, v in trace.attrs.items()
            if not k.startswith("_")
        },
        "filters": filter_summaries(trace),
        "io": trace.io_delta.as_dict() if trace.io_delta is not None else None,
        "duration_ms": round(trace.duration_ms, 3),
        "trace": trace.to_dict(),
    }
