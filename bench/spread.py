#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric.

    python3 bench/spread.py [--seeds 1-10] [--out FILE] [--traced] [--baseline]

Runs every workload untraced once per seed and records, for each
(workload, metric), the median and the interquartile range over the
median (``statistics.quantiles(values, n=4)``), for the normalised and
the raw values.  Exits 1 if any spread but ``setup_s``'s exceeds the
metric's bound in BENCHMARK.json.  ``--traced`` adds one traced run per
workload (first seed) so the file also carries the per-layer metrics;
``--baseline`` writes ``baseline/spread.json`` and
``baseline/seed-commit.json``.  The output is what ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
RESULTS_DIR = BENCH_DIR / "results"


def iqr_over_median(values) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def summarise(values, raw=None) -> dict:
    out = {
        "median": statistics.median(values),
        "spread": iqr_over_median(values),
        "values": values,
    }
    if raw:
        out["raw_median"] = statistics.median(raw)
        out["raw_spread"] = iqr_over_median(raw)
    return out


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        raise SystemExit(f"spread: {' '.join(argv[2:])} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (RESULTS_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    print(f"# {workload} seed {seed} trace {trace}: {time.perf_counter() - t0:.1f} s",
          file=sys.stderr)
    return {"metrics": result["metrics"], "raw": record["raw"], "host": record["host"]}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--out", type=Path, default=RESULTS_DIR / "spread.json")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {"seeds": seeds, "seconds": args.seconds, "workloads": {}, "hosts": []}
    too_wide = []
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, args.seconds, 0) for seed in seeds]
        entry = summary["workloads"][workload] = {"end_to_end": {}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            raw = [r["raw"][name] for r in runs if name in r["raw"]]
            cell = entry["end_to_end"][name] = summarise(values, raw)
            cell["unit"] = runs[0]["metrics"][name]["unit"]
            cell["bound"] = bounds[name]
            cell["within_bound"] = cell["spread"] is None or cell["spread"] <= bounds[name]
            if name != "setup_s" and not cell["within_bound"]:
                too_wide.append((workload, name, cell["spread"]))
        summary["hosts"].append(runs[0]["host"])
        if args.traced:
            traced = run(workload, seeds[0], args.seconds, 1)
            entry["per_layer"] = {
                name: {"median": m["value"], "values": [m["value"]], "unit": m["unit"]}
                for name, m in traced["metrics"].items()
            }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1))
    if args.baseline:
        base = BENCH_DIR / "baseline"
        base.mkdir(exist_ok=True)
        (base / "seed-commit.json").write_text(json.dumps(summary, indent=1))
        spreads = {
            w: {
                name: {k: cell[k] for k in
                       ("median", "spread", "raw_median", "raw_spread", "bound", "within_bound")
                       if k in cell}
                for name, cell in entry["end_to_end"].items()
            }
            for w, entry in summary["workloads"].items()
        }
        (base / "spread.json").write_text(
            json.dumps({"seeds": seeds, "seconds": args.seconds, "spread": spreads}, indent=1)
        )
    print(f"{'workload':14} {'metric':16} {'median':>12} {'spread':>8} {'raw spread':>10} {'bound':>6}")
    for workload, entry in summary["workloads"].items():
        for name, cell in entry["end_to_end"].items():
            spread = "-" if cell["spread"] is None else f"{cell['spread']:.4f}"
            raw = f"{cell['raw_spread']:.4f}" if cell.get("raw_spread") is not None else "-"
            print(f"{workload:14} {name:16} {cell['median']:12.6g} {spread:>8} {raw:>10} "
                  f"{cell['bound']:6.3f}{'' if cell['within_bound'] else '  TOO WIDE'}")
    for workload, name, spread in too_wide:
        print(f"spread: {workload} {name} spreads {spread:.4f}, above its bound", file=sys.stderr)
    return 1 if too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
