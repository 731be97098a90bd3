"""What every workload's run shares: sizes, the work directory, the
reference clock, answer checking, and turning raw intervals into the
reported (normalised, raw) pairs."""

from __future__ import annotations

import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle as oracle_mod
import refclock
import workloads as wl

clock = time.perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

#: A single query is shorter than the gap between two reference-clock
#: readings; its slowness is read over this much time around it.
LATENCY_WINDOW_S = 0.1


@dataclass(frozen=True)
class Sizes:
    """How much one run measures.  ``smoke`` is for the test suite only:
    its numbers mean nothing."""

    n_sets: int = wl.N_SETS
    pool: int = wl.POOL_SIZE
    setup_reps: int = 3
    latency_samples: int = 480
    cold_reps: int = 7
    cold_min_s: float = 3.0
    is_smoke: bool = False

    @classmethod
    def smoke(cls) -> "Sizes":
        return cls(
            n_sets=wl.SMOKE_N_SETS, pool=wl.SMOKE_POOL_SIZE, setup_reps=1,
            latency_samples=40, cold_reps=2, cold_min_s=0.0, is_smoke=True,
        )


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) -- always a sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(np.ceil(q * len(ordered))) - 1))]


def host_facts(driver_cpus) -> dict:
    return {
        "nproc": os.cpu_count(),
        "driver_affinity": sorted(driver_cpus),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": Path("/proc/loadavg").read_text().split()[:3],
        "platform": platform.platform(),
    }


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Checker:
    """Operations attempted and failed, and the oracle's recall tally."""

    attempted: int = 0
    failed: int = 0
    true_total: int = 0
    true_found: int = 0
    first_failure: str = ""

    def answers(self, returned, expected: dict[int, float], what: str = "") -> None:
        self.attempted += 1
        self.true_total += len(expected)
        ok, found = oracle_mod.check_answers(returned, expected)
        if ok:
            self.true_found += found
        else:
            self.fail_one(f"wrong answer {what}: {list(returned)[:4]} vs oracle")

    def op(self, ok: bool = True, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail_one(what)

    def fail_one(self, what: str) -> None:
        self.failed += 1
        self.first_failure = self.first_failure or what

    @property
    def recall(self) -> float:
        return self.true_found / self.true_total if self.true_total else 1.0


@dataclass
class Timed:
    """One timed interval: ``n`` operations between ``t0`` and ``t1``
    (for an open-loop request ``t0`` is when it was due)."""

    t0: float
    t1: float
    n: int = 1

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


@dataclass
class Context:
    """One run's shared state.  Use as a context manager: it pins the
    driver, starts the reference clock, and on exit stops the clock and
    removes the work directory."""

    workload: wl.Workload
    seed: int
    seconds: float
    sizes: Sizes
    started: float
    #: The traced pass runs sections on every CPU, so it clocks them all.
    all_cpus: bool = False
    #: Test-suite switch: drop one true answer from the oracle, so the
    #: program's (right) answer must be reported wrong.
    corrupt_oracle: bool = False
    checker: Checker = field(default_factory=Checker)

    def __enter__(self) -> "Context":
        nproc = os.cpu_count() or 1
        self.driver_cpus = {c % nproc for c in self.workload.driver_cpus}
        self.program_cpus = sorted({c % nproc for c in self.workload.program_cpus})
        os.sched_setaffinity(0, self.driver_cpus)
        self.workdir = RESULTS_DIR / f"work-{self.workload.name}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        clocked = self.driver_cpus | set(self.program_cpus)
        self.rc = refclock.RefClock(
            range(nproc) if self.all_cpus else sorted(clocked), self.workdir
        )
        try:
            self.rc.__enter__()
        except BaseException:
            shutil.rmtree(self.workdir, ignore_errors=True)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            self.rc.__exit__(exc_type, exc, tb)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        return False

    def inputs(self):
        """``(sets, pool, oracle)`` for this run's workload and seed."""
        sets = wl.collection(self.workload.collection, self.sizes.n_sets)
        pool = wl.query_pool(sets, self.seed, self.sizes.pool)
        oracle = oracle_mod.Oracle(sets)
        if self.corrupt_oracle:
            answers = next(a for q in pool if (a := oracle.answers(q, *wl.RANGE)))
            oracle.remove(next(iter(answers)))
        return sets, pool, oracle

    # -- normalisation -----------------------------------------------------

    def normalised(self, intervals: list[Timed], cpus=None,
                   window: float = 0.0) -> list[float]:
        """Each interval's seconds divided by the host's slowness over
        it (widened by ``window`` on both sides)."""
        readings = self.rc.snapshot()
        cpus = cpus or self.program_cpus
        return [
            t.seconds / readings.slowness(t.t0 - window, t.t1 + window, cpus)
            for t in intervals
        ]

    def pair(self, intervals: list[Timed], reduce, cpus=None,
             window: float = 0.0) -> tuple[float, float]:
        """``(normalised, raw)`` of ``reduce`` over the intervals' seconds."""
        return (
            reduce(self.normalised(intervals, cpus, window)),
            reduce([t.seconds for t in intervals]),
        )


def middle_mean(values) -> float:
    """Mean of the middle three fifths: a stall or a lucky burst does
    not move it, and over rounds as uneven as a server's micro-batches
    it spreads half as much from run to run as the median does."""
    ordered = sorted(values)
    cut = len(ordered) // 5
    kept = ordered[cut : len(ordered) - cut]
    return sum(kept) / len(kept)


def rate_pair(ctx: Context, rounds: list[Timed], cpus=None) -> tuple[float, float]:
    """Operations per second as ``n`` over the typical round time
    (:func:`middle_mean`), normalised and raw.  Rounds must share ``n``."""
    n = rounds[0].n
    norm, raw = ctx.pair(rounds, middle_mean, cpus)
    return n / norm, n / raw


def import_repro() -> None:
    """Put this checkout's ``src`` first on the path and insist that
    ``repro`` comes from it."""
    sys.path.insert(0, str(SRC_DIR))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC_DIR):
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC_DIR}")
