#!/usr/bin/env python3
"""Compare two result summaries, metric by metric, workload by workload.

    python3 bench/compare.py A.json B.json [--layers]

A and B are files written by ``spread.py`` (several runs a workload) or
by ``run.py`` without ``--workload`` (one run).  For every (end-to-end
metric, workload) it prints the change of B's median in the metric's
*worse* direction, as a share of A's median, and one verdict:

``ok``          B is no worse than A by more than the metric's bound.
``worse``       B is worse than A by more than the bound.
``unresolved``  the run-to-run spread recorded for the pair (the wider of
                A's and B's; ``baseline/spread.json`` for one-run files)
                is wider than the bound, so the medians cannot tell --
                unless every run of B reads better than every run of A,
                which is ``ok``.  Never reported as unchanged.

Exit status 1 if any pair is ``worse``.  ``--layers`` also lists the
per-layer changes, for information only: they carry no bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def load_spec() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def baseline_spreads() -> dict:
    path = BENCH_DIR / "baseline" / "spread.json"
    return json.loads(path.read_text())["spread"] if path.is_file() else {}


def worsening(a: float, b: float, better: str) -> float:
    """B's change from A in the worse direction, as a share of ``|A|``."""
    change = (b - a) / abs(a) if a else float(b != a)
    return -change if better == "higher" else change


def verdict(cell_a: dict, cell_b: dict, metric: dict, fallback_spread) -> tuple[float, str]:
    worse_by = worsening(cell_a["median"], cell_b["median"], metric["better"])
    spreads = [c.get("spread") for c in (cell_a, cell_b) if c.get("spread") is not None]
    spread = max(spreads) if spreads else fallback_spread
    if spread is None or spread > metric["bound"]:
        sign = -1.0 if metric["better"] == "higher" else 1.0
        a_vals = [sign * v for v in cell_a["values"]]
        b_vals = [sign * v for v in cell_b["values"]]
        if spread is not None and max(b_vals) < min(a_vals):
            return worse_by, "ok"
        return worse_by, "unresolved"
    return worse_by, "worse" if worse_by > metric["bound"] else "ok"


def compare(a: dict, b: dict, spec: dict, spreads: dict, layers: bool):
    """Yields ``(kind, workload, metric, worse_by, verdict)`` rows."""
    for workload in (w["name"] for w in spec["workloads"]):
        wa = a["workloads"].get(workload, {})
        wb = b["workloads"].get(workload, {})
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ca = wa.get("end_to_end", {}).get(name)
            cb = wb.get("end_to_end", {}).get(name)
            if ca is None or cb is None:
                yield "end_to_end", workload, name, float("nan"), "missing"
                continue
            fallback = spreads.get(workload, {}).get(name, {}).get("spread")
            yield ("end_to_end", workload, name, *verdict(ca, cb, metric, fallback))
        if layers:
            for metric in spec["per_layer"]:
                name = metric["name"]
                ca = wa.get("per_layer", {}).get(name)
                cb = wb.get("per_layer", {}).get(name)
                if ca is not None and cb is not None:
                    yield ("per_layer", workload, name,
                           worsening(ca["median"], cb["median"], metric["better"]), "info")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args(argv)
    rows = list(compare(
        json.loads(args.a.read_text()), json.loads(args.b.read_text()),
        load_spec(), baseline_spreads(), args.layers,
    ))
    print(f"{'workload':14} {'metric':46} {'worse by':>9}  verdict")
    for kind, workload, name, worse_by, what in rows:
        print(f"{workload:14} {name:46} {worse_by:+9.2%}  {what}")
    counts = {v: sum(1 for r in rows if r[0] == "end_to_end" and r[4] == v)
              for v in ("ok", "worse", "unresolved", "missing")}
    print("# " + ", ".join(f"{n} {v}" for v, n in counts.items() if n))
    return 1 if counts["worse"] or counts["missing"] else 0


if __name__ == "__main__":
    sys.exit(main())
