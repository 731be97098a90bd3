"""No process outlives a run.

Every child the benchmark starts itself -- reference-clock helpers,
``repro serve`` -- is stopped and waited for by its own context manager.
This module is the net under those: the program may start processes the
benchmark never sees (the ``backend="process"`` pool spawns through
``multiprocessing``, whose resource tracker lives until its parent is
gone and is then nobody's to wait for), and a run may be told to stop
half way.

``adopt_orphans`` makes this process the one that inherits whatever a
child leaves behind; ``stop_descendants`` ends and reaps everything
below it; ``exit_on_sigterm`` turns a polite kill into an exit, so the
context managers and the sweep still run.  Standard library only: this
must work before anything else could be imported.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
from pathlib import Path

_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


def _prctl(option: int, value: int) -> bool:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(option, value, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def adopt_orphans() -> bool:
    """Orphaned descendants become this process's children (Linux child
    subreaper), so :func:`stop_descendants` can wait for them."""
    return _prctl(_PR_SET_CHILD_SUBREAPER, 1)


def die_with_parent() -> bool:
    """SIGTERM to this process when the thread that started it exits;
    survives ``exec``.  For children that would not notice otherwise."""
    return _prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


def exit_on_sigterm() -> None:
    def handler(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def children(pid: int | None = None) -> list[int]:
    """Pids whose parent is ``pid`` (default: this process), zombies too."""
    pid = os.getpid() if pid is None else pid
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            found.append(int(stat.parent.name))
    return found


def _reap() -> None:
    """Collect every child that has already exited."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(grace_s: float = 5.0) -> int:
    """End and wait for everything below this process; the number of
    processes that were still there.  With :func:`adopt_orphans` in
    force a grandchild whose parent is stopped here turns up as a child
    on the next pass, so the loop runs until nothing is left."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        # It ignores SIGTERM; closing its pipe is how it is told to go.
        try:
            tracker._resource_tracker._stop()
        except Exception:
            pass
    seen: set[int] = set()
    deadline = time.monotonic() + grace_s
    while True:
        _reap()
        alive = children()
        if not alive:
            return len(seen)
        force = time.monotonic() > deadline
        for pid in alive:
            if pid not in seen or force:
                try:
                    os.kill(pid, signal.SIGKILL if force else signal.SIGTERM)
                except ProcessLookupError:
                    pass
            seen.add(pid)
        time.sleep(0.01)
