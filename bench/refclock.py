"""Reference clock: how fast is each CPU right now, relative to a constant.

Wall time on a shared host is not a property of the program alone: on
the host this benchmark was written on, one fixed numpy kernel takes
0.77x to 1.3x its median from one 10 ms slice to the next and 0.9x to
1.1x from one 4 s slice to the next, per core, and CPU time moves with
it (core speed, not stolen time).  A batch loop measured raw spreads
20% between runs of the same code.

So every timed interval is divided by the host's slowness over that
same interval.  One helper process per CPU, pinned, runs a fixed kernel
a few times, ``hz`` times a second, and appends ``(start, cpu_seconds)``
to a file the driver has mapped; :meth:`Readings.slowness` averages the
readings that fall inside an interval and divides by :data:`NOMINAL_S`.
The helper shares the CPU with the program it measures beside, so its
readings are taken in the gaps of that very program and cost it about a
tenth of the CPU -- a constant tax, the same on every commit.

The kernel imports nothing from ``repro``: a change under ``src/``
cannot make the reference faster.
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: CPU seconds one reading (``BURST`` kernel calls) takes on the nominal
#: host.  Any constant would do -- commits are compared on one host --
#: this one makes a slowness of 1.0 mean "the host the baseline was
#: recorded on, on an average second".
NOMINAL_S = 0.0045

#: Readings a second, per CPU, and kernel calls per reading.
DEFAULT_HZ = 20.0
BURST = 3

#: Readings an interval must hold before its mean is trusted; shorter
#: intervals are widened symmetrically until they hold this many.
MIN_READINGS = 3

_HEADER = struct.Struct("<q")
_RECORD = struct.Struct("<dd")
_CAPACITY = 1 << 16

clock = time.perf_counter


def make_kernel_state():
    rng = np.random.default_rng(20011)
    haystack = np.sort(rng.integers(0, 1 << 62, 4000, dtype=np.uint64))
    needles = rng.integers(0, 1 << 62, 5000, dtype=np.uint64)
    sets = [frozenset(rng.integers(0, 50000, 40).tolist()) for _ in range(3000)]
    order = rng.permutation(len(sets))[:200].tolist()
    return haystack, needles, sets, order


def kernel(state) -> int:
    """The fixed unit of work, half numpy and half interpreter, like the
    program: binary searches, a gather and a prefix sum (its verify and
    probe kernels), then set intersections and unions over objects
    scattered through the heap (its candidate algebra).  On the host
    this was written on, the program's slowdown tracks this mix with
    slope 1.0-1.1; either half alone is off by 20%."""
    haystack, needles, sets, order = state
    pos = np.searchsorted(haystack, needles)
    found = haystack[np.minimum(pos, len(haystack) - 1)] == needles
    total = int(np.cumsum(found)[-1])
    query, seen = sets[0], set()
    for i in order:
        member = sets[i]
        total += len(member & query)
        seen.update(member)
    return total + len(seen)


def _helper_main(cpu: int, path: str, hz: float) -> int:
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    state = make_kernel_state()
    period = 1.0 / hz
    with open(path, "r+b") as f, mmap.mmap(f.fileno(), 0) as buf:
        n = 0
        while n < _CAPACITY and os.getppid() == parent:
            start = clock()
            c0 = time.thread_time()
            for _ in range(BURST):
                kernel(state)
            cpu_s = time.thread_time() - c0
            _RECORD.pack_into(buf, _HEADER.size + n * _RECORD.size, start, cpu_s)
            n += 1
            _HEADER.pack_into(buf, 0, n)
            time.sleep(max(0.0, period - (clock() - start)))
    return 0


class RefClock:
    """Helpers on ``cpus``; use as a context manager so they are always
    stopped and waited for."""

    def __init__(self, cpus, workdir: Path, hz: float = DEFAULT_HZ):
        self.cpus = sorted(cpus)
        self.hz = hz
        self._workdir = Path(workdir)
        self._procs: dict[int, subprocess.Popen] = {}
        self._files: dict[int, Path] = {}
        self._maps: dict[int, mmap.mmap] = {}
        self._handles = []

    def __enter__(self) -> "RefClock":
        self._workdir.mkdir(parents=True, exist_ok=True)
        size = _HEADER.size + _CAPACITY * _RECORD.size
        try:
            for cpu in self.cpus:
                path = self._workdir / f".refclock-{os.getpid()}-cpu{cpu}.bin"
                with open(path, "wb") as f:
                    f.truncate(size)
                self._files[cpu] = path
                handle = open(path, "rb")
                self._handles.append(handle)
                self._maps[cpu] = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
                self._procs[cpu] = subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()),
                     str(cpu), str(path), str(self.hz)],
                    stdin=subprocess.DEVNULL,
                )
            deadline = clock() + 10.0
            while any(self._count(cpu) < MIN_READINGS for cpu in self.cpus):
                if clock() > deadline:
                    raise RuntimeError("reference clock helpers did not start")
                time.sleep(0.02)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        for proc in self._procs.values():
            proc.terminate()
        for proc in self._procs.values():
            proc.wait()
        for buf in self._maps.values():
            buf.close()
        for handle in self._handles:
            handle.close()
        for path in self._files.values():
            path.unlink(missing_ok=True)
        self._procs.clear()
        self._maps.clear()
        self._handles.clear()
        self._files.clear()
        return False

    def _count(self, cpu: int) -> int:
        return _HEADER.unpack_from(self._maps[cpu], 0)[0]

    def snapshot(self) -> "Readings":
        """The readings so far, copied out of the shared files."""
        per_cpu = {}
        for cpu in self.cpus:
            n = self._count(cpu)
            flat = np.frombuffer(
                self._maps[cpu], dtype="<f8", count=2 * n, offset=_HEADER.size
            )
            per_cpu[cpu] = flat.reshape(n, 2).copy()
        return Readings(per_cpu)


class Readings:
    """``{cpu: (n, 2) array of (start, cpu_seconds)}`` with interval means."""

    def __init__(self, per_cpu: dict[int, np.ndarray]):
        self.per_cpu = per_cpu
        self._sums = {
            cpu: np.concatenate([[0.0], np.cumsum(r[:, 1])])
            for cpu, r in per_cpu.items()
        }

    def slowness(self, t0: float, t1: float, cpus=None) -> float:
        """Mean kernel reading over ``[t0, t1]`` divided by the nominal
        constant, averaged over ``cpus`` (default: all).  Above 1 the
        host was slower than nominal; divide a raw time by it.  An
        interval holding fewer than :data:`MIN_READINGS` readings is
        widened symmetrically until it holds that many."""
        values = []
        for cpu in cpus or sorted(self.per_cpu):
            starts = self.per_cpu[cpu][:, 0]
            a = int(np.searchsorted(starts, t0, side="left"))
            b = int(np.searchsorted(starts, t1, side="right"))
            short = MIN_READINGS - (b - a)
            if short > 0:
                a = max(0, a - (short + 1) // 2)
                b = min(len(starts), max(b, a + MIN_READINGS))
                a = max(0, min(a, b - MIN_READINGS))
            sums = self._sums[cpu]
            values.append((sums[b] - sums[a]) / (b - a) / NOMINAL_S)
        return float(sum(values) / len(values))

    def speed_range(self) -> tuple[float, float]:
        """Slowest and fastest one-second mean of any CPU, as nominal
        over reading (1.0 is nominal speed, below it the host was slow)."""
        lo, hi = float("inf"), 0.0
        for r in self.per_cpu.values():
            seconds = np.floor(r[:, 0] - r[0, 0]).astype(np.int64)
            counts = np.bincount(seconds)
            means = np.bincount(seconds, weights=r[:, 1])[counts > 0] / counts[counts > 0]
            lo = min(lo, NOMINAL_S / float(means.max()))
            hi = max(hi, NOMINAL_S / float(means.min()))
        return lo, hi


if __name__ == "__main__":
    sys.exit(_helper_main(int(sys.argv[1]), sys.argv[2], float(sys.argv[3])))
