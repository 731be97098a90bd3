"""Validate the telemetry export artifacts (CI ``obs-smoke`` gate).

Checks the three files ``repro query --prom-out/--events-out/
--trace-out`` writes (into ``DIR`` as ``obs_metrics.prom``,
``obs_events.jsonl``, ``obs_trace.json``) -- Prometheus text
exposition, query-event JSONL, Chrome trace-event JSON -- against the
validators in :mod:`repro.obs.export`, which pin the format
invariants external tooling relies on (TYPE-declared families, every
histogram a ``summary`` with quantile samples; the full event schema
and a known kind -- ``query``, ``query_batch`` or ``serve`` -- on
every line; well-formed complete events with non-negative
timestamps).  ``repro serve --events-out`` output checks the same
way with ``--events``.

Usage::

    PYTHONPATH=src python benchmarks/check_obs_formats.py DIR
    PYTHONPATH=src python benchmarks/check_obs_formats.py \
        --prom m.prom --events e.jsonl --trace t.json

Exits non-zero naming the first malformed artifact.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.obs import export


def check_prometheus(path: Path) -> str:
    families = export.validate_prometheus_text(path.read_text())
    if not families:
        raise ValueError("no metric families exported")
    return f"{len(families)} families"


def check_events(path: Path) -> str:
    return f"{export.validate_events_jsonl(path)} events"


def check_trace(path: Path) -> str:
    return f"{export.validate_chrome_trace(path.read_text())} spans"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "dir", nargs="?", type=Path,
        help="directory holding obs_metrics.prom, obs_events.jsonl, obs_trace.json",
    )
    parser.add_argument("--prom", type=Path, help="Prometheus text file")
    parser.add_argument("--events", type=Path, help="query-event JSONL file")
    parser.add_argument("--trace", type=Path, help="Chrome trace JSON file")
    args = parser.parse_args(argv)

    targets: list[tuple[str, Path, object]] = []
    if args.dir is not None:
        targets += [
            ("prometheus", args.dir / "obs_metrics.prom", check_prometheus),
            ("events", args.dir / "obs_events.jsonl", check_events),
            ("trace", args.dir / "obs_trace.json", check_trace),
        ]
    for kind, path, checker in (
        ("prometheus", args.prom, check_prometheus),
        ("events", args.events, check_events),
        ("trace", args.trace, check_trace),
    ):
        if path is not None:
            targets.append((kind, path, checker))
    if not targets:
        parser.error("nothing to check: pass DIR or --prom/--events/--trace")

    failures = 0
    for kind, path, checker in targets:
        try:
            detail = checker(path)
        except FileNotFoundError:
            print(f"FAIL {kind}: {path}: missing")
            failures += 1
        except ValueError as exc:
            print(f"FAIL {kind}: {path}: {exc}")
            failures += 1
        else:
            print(f"ok   {kind}: {path} ({detail})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
