"""Checks on the benchmark itself.  Run with ``pytest bench/`` -- the
repository's own ``testpaths`` does not collect this file.

Everything that needs the program runs off one ``--smoke`` suite run
(all four workloads, both passes, tiny sizes; its numbers mean nothing).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import oracle  # noqa: E402
import procs  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def _strays() -> list[int]:
    """What a finished child left running: with this process adopting
    orphans they are its children now.  Stopped before returning."""
    left = procs.children()
    procs.stop_descendants()
    return left


@pytest.fixture(scope="module")
def suite():
    assert procs.adopt_orphans()
    proc = subprocess.run(
        RUN + ["--smoke", "--seconds", "0.5", "--seed", "3"],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    strays = _strays()
    assert proc.returncode == 0, proc.stdout[-3000:]
    assert not strays, "the suite run left processes behind"
    return proc.stdout


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 22) < 3420, "no room for set-up in the time allowed"


def test_spec_workloads_are_the_generated_ones():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("kind", ["planted", "weblog"])
def test_inputs_follow_the_seed(kind):
    sets = wl.collection(kind, wl.SMOKE_N_SETS)
    assert wl.digest(sets) == wl.digest(wl.collection(kind, wl.SMOKE_N_SETS))
    pool = wl.query_pool(sets, 5, 128)
    assert wl.digest(pool) == wl.digest(wl.query_pool(sets, 5, 128))
    assert wl.digest(pool) != wl.digest(wl.query_pool(sets, 6, 128))
    assert wl.digest(wl.churn_inserts(sets, 5, 32)) != wl.digest(wl.churn_inserts(sets, 6, 32))
    kinds = [
        "empty" if not q else "exact" if q in set(sets)
        else "foreign" if min(q) >= wl.FOREIGN_BASE else "perturbed"
        for q in pool
    ]
    counts = {k: kinds.count(k) for k in ("perturbed", "exact", "foreign", "empty")}
    # A perturbed copy that drew no swap is an exact copy.
    assert counts["perturbed"] + counts["exact"] == 128 - 11 - 1
    assert 25 <= counts["exact"] <= 30 and (counts["foreign"], counts["empty"]) == (11, 1)


def test_oracle_against_set_arithmetic():
    oracle.self_test(seed=11)
    assert oracle.check_answers([(3, 0.5)], {3: 0.5, 4: 0.75}) == (True, 1)
    assert oracle.check_answers([(3, 0.5000001)], {3: 0.5})[0] is False
    assert oracle.check_answers([(9, 0.5)], {3: 0.5})[0] is False
    assert oracle.check_answers([(3, 0.5), (3, 0.5)], {3: 0.5})[0] is False


def test_every_metric_is_printed_with_its_unit(suite):
    blocks = re.split(r"(?m)^\{.*\}$", suite)
    results = [json.loads(line) for line in suite.splitlines() if line.startswith("{")]
    assert len(results) == 2 * len(SPEC["workloads"])
    for i, result in enumerate(results):
        key = "per_layer" if i % 2 else "end_to_end"
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
        for m in SPEC[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            line = re.search(
                rf"(?m)^{re.escape(m['name'])} (\S+) {re.escape(m['unit'])}$", blocks[i]
            )
            assert line, f"{m['name']} not printed in run {i}"
            float(line.group(1))
    for name in (w["name"] for w in SPEC["workloads"]):
        record = json.loads(
            (BENCH_DIR / "results" / f"{name}-seed3-trace0.json").read_text()
        )
        assert record["host"]["driver_affinity"] and "qps" in record["raw"]
        traced = json.loads((BENCH_DIR / "results" / f"{name}-seed3-trace1.json").read_text())
        assert len(traced["detail"]["ledgers"]) == 5
        for rows in traced["detail"]["ledgers"].values():
            total = sum(r["normalised"] for r in rows[:-1])
            assert total == pytest.approx(rows[-1]["normalised"], rel=1e-6)
        assert (ROOT / traced["detail"]["chrome_trace"]).is_file()


def _summary(values, spread):
    cells = {m["name"]: {"median": 1.0, "spread": 0.0, "values": [1.0]}
             for m in SPEC["end_to_end"]}
    cells["qps"] = {"median": sorted(values)[len(values) // 2], "spread": spread,
                    "values": values}
    return {"workloads": {w["name"]: {"end_to_end": cells} for w in SPEC["workloads"]}}


def test_compare_verdicts(tmp_path):
    def run(a, b):
        rows = list(compare.compare(a, b, SPEC, {}, layers=False))
        return {r[4] for r in rows if r[2] == "qps"}

    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "qps")
    tight, wide = bound / 5, bound * 2
    base = _summary([100.0, 101.0, 99.0], tight)
    near = 100.0 * (1 - bound / 2)
    far = 100.0 * (1 - bound * 1.5)
    assert run(base, _summary([near, near + 1, near - 1], tight)) == {"ok"}
    assert run(base, _summary([far, far + 1, far - 1], tight)) == {"worse"}
    assert run(base, _summary([far, 120.0, 100.0], wide)) == {"unresolved"}
    # Wider than the bound, but every run better than every run of A.
    assert run(base, _summary([130.0, 190.0, 150.0], wide)) == {"ok"}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(_summary([far, far + 1, far - 1], tight)))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1


LEAKY = """
import multiprocessing, subprocess, sys
from concurrent.futures import ProcessPoolExecutor
sys.path.insert(0, sys.argv[1])
import procs
if __name__ == "__main__":
    sweep = sys.argv[2] == "sweep"
    if sweep:
        procs.adopt_orphans()
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        pool.submit(abs, -1).result()          # starts the resource tracker
    subprocess.run(["sh", "-c", "sleep 300 & sleep 300 &"])   # two orphans
    if sweep:
        assert procs.stop_descendants() == 2 and not procs.children()
"""


def test_no_process_outlives_the_sweep():
    assert procs.adopt_orphans() and not _strays()
    for mode, expect_strays in (("leak", True), ("sweep", False)):
        proc = subprocess.run([sys.executable, "-c", LEAKY, str(BENCH_DIR), mode], timeout=60)
        assert proc.returncode == 0
        assert bool(_strays()) is expect_strays, mode


def test_sigterm_stops_the_run_and_its_children():
    assert procs.adopt_orphans() and not _strays()
    proc = subprocess.Popen(
        RUN + ["--workload", "serve_weblog", "--smoke", "--seconds", "30"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    deadline = time.monotonic() + 60
    while len(procs.children(proc.pid)) < 3 and time.monotonic() < deadline:
        time.sleep(0.05)        # two clock helpers and the server
    assert len(procs.children(proc.pid)) >= 3
    proc.terminate()
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 128 + 15 and not out.strip().endswith("}")
    assert not _strays()


def test_driver_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "batch_planted", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_driver_fails_on_a_wrong_answer():
    proc = subprocess.run(
        RUN + ["--workload", "batch_planted", "--smoke", "--seconds", "1",
               "--self-check", "wrong-answer"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "INCORRECT" in proc.stderr
