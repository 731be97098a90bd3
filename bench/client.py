"""The benchmark's own client for ``repro serve``, and its launcher.

The wire format is written out here instead of imported from
``repro.serve.protocol`` or ``loadgen``, so an edit under
``src/repro/serve/`` cannot change what is sent or how replies are read:

request   ``{"id": 7, "op": "query", "set": [1, 2, 3], "low": 0.5, "high": 1.0}\\n``
reply     ``{"id": 7, "ok": true, "answers": [[12, 0.8333], ...],
             "n_candidates": 9, "batch_size": 16, "queue_ms": 1.2}\\n``
failure   ``{"id": 7, "ok": false, "error": {"type": "overloaded", "message": "..."}}\\n``

One thread, non-blocking sockets, ``selectors``.  Two ways to drive:
:meth:`Client.closed_loop` keeps a fixed number of requests in flight on
every connection; :meth:`Client.open_loop` sends on a schedule whatever
the server does, times each request from the instant it was *due*, and
reports how late it actually went out.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

clock = time.perf_counter

_SERVING = re.compile(rb"# serving .*:(\d+) --")
REPLY_TIMEOUT_S = 20.0


class ServerError(RuntimeError):
    pass


class Server:
    """``python -m repro.cli serve --snapshot DIR --port 0`` as a child
    pinned to ``cpu``; the port is read from its ``# serving`` stderr
    line.  Exit sends SIGTERM (the server drains) and waits; the child
    also gets SIGTERM should this process die without doing so."""

    def __init__(self, snapshot_dir: Path, src_dir: Path, log_path: Path, cpu: int):
        self.snapshot_dir = snapshot_dir
        self.src_dir = src_dir
        self.log_path = log_path
        self.cpu = cpu
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.spawned_at = 0.0
        self.ready_at = 0.0

    def __enter__(self) -> "Server":
        env = dict(os.environ, PYTHONPATH=str(self.src_dir))
        # This file pins itself, then becomes the server (same pid).
        argv = [sys.executable, str(Path(__file__).resolve()), str(self.cpu),
                sys.executable, "-m", "repro.cli", "serve",
                "--snapshot", str(self.snapshot_dir), "--port", "0"]
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.log_path, "wb") as log:
            self.spawned_at = clock()
            self.proc = subprocess.Popen(
                argv, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        try:
            deadline = self.spawned_at + 60.0
            while True:
                match = _SERVING.search(self.log_path.read_bytes())
                if match:
                    break
                if self.proc.poll() is not None or clock() > deadline:
                    raise ServerError(
                        "repro serve did not come up: "
                        + self.log_path.read_text(errors="replace")[-2000:]
                    )
                time.sleep(0.005)
            self.ready_at = clock()
            self.port = int(match.group(1))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=15.0)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc = None
        return False

    def family(self) -> list[int]:
        """The server's pid and its descendants' (normally just one)."""
        pids = [self.proc.pid]
        for pid in pids:
            try:
                kids = Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
            except OSError:
                continue
            pids.extend(int(k) for k in kids)
        return pids

    def cpu_seconds(self) -> float:
        """User + system CPU of the server family, from ``/proc/<pid>/stat``."""
        ticks = 0
        for pid in self.family():
            try:
                fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            ticks += int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """Summed peak RSS (``VmHWM``) of the server family."""
        total_kb = 0
        for pid in self.family():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"VmHWM:\s+(\d+) kB", status)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0


def encode_request(rid: int, elements, low: float, high: float) -> bytes:
    body = json.dumps(
        {"id": rid, "op": "query", "set": sorted(elements), "low": low, "high": high},
        separators=(",", ":"),
    )
    return body.encode() + b"\n"


@dataclass
class Reply:
    """One request as the client saw it.  ``due`` is when it should have
    been sent (equal to ``sent`` in a closed loop)."""

    tag: object
    due: float
    sent: float
    done: float = 0.0
    ok: bool = False
    error: str = ""
    answers: list = field(default_factory=list)
    batch_size: int = 0
    queue_ms: float = 0.0


class _Conn:
    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.out = bytearray()
        self.inp = bytearray()
        self.in_flight = 0


class Client:
    """``connections`` sockets to one server.  A request is ``(tag,
    elements, low, high)``; ``tag`` comes back on the :class:`Reply`."""

    def __init__(self, port: int, connections: int):
        self._sel = selectors.DefaultSelector()
        self._conns = []
        self._next_id = 0
        self._pending: dict[int, tuple[Reply, _Conn]] = {}
        for _ in range(connections):
            sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = _Conn(sock)
            self._conns.append(conn)
            self._sel.register(sock, selectors.EVENT_READ, conn)

    def close(self) -> None:
        for conn in self._conns:
            try:
                self._sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conn.sock.close()
        self._sel.close()
        self._conns = []

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _send(self, conn: _Conn, request, due: float | None) -> Reply:
        tag, elements, low, high = request
        rid = self._next_id
        self._next_id += 1
        conn.out += encode_request(rid, elements, low, high)
        now = clock()
        reply = Reply(tag=tag, due=now if due is None else due, sent=now)
        self._pending[rid] = (reply, conn)
        conn.in_flight += 1
        self._flush(conn)
        return reply

    def _flush(self, conn: _Conn) -> None:
        while conn.out:
            try:
                n = conn.sock.send(conn.out)
            except BlockingIOError:
                self._sel.modify(
                    conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn
                )
                return
            del conn.out[:n]
        self._sel.modify(conn.sock, selectors.EVENT_READ, conn)

    def _pump(self, timeout: float) -> list[tuple[Reply, _Conn]]:
        """Wait up to ``timeout`` for socket events; completed replies."""
        finished = []
        for key, mask in self._sel.select(max(0.0, timeout)):
            conn = key.data
            if mask & selectors.EVENT_WRITE:
                self._flush(conn)
            if not mask & selectors.EVENT_READ:
                continue
            try:
                chunk = conn.sock.recv(1 << 16)
            except BlockingIOError:
                continue
            if not chunk:
                raise ServerError("server closed the connection")
            done = clock()
            conn.inp += chunk
            while True:
                end = conn.inp.find(b"\n")
                if end < 0:
                    break
                line = bytes(conn.inp[:end])
                del conn.inp[: end + 1]
                obj = json.loads(line)
                reply, owner = self._pending.pop(obj["id"])
                reply.done = done
                reply.ok = obj.get("ok") is True
                if reply.ok:
                    reply.answers = [(int(s), float(v)) for s, v in obj["answers"]]
                    reply.batch_size = int(obj["batch_size"])
                    reply.queue_ms = float(obj["queue_ms"])
                else:
                    reply.error = str(obj.get("error", {}).get("type", "unknown"))
                owner.in_flight -= 1
                finished.append((reply, owner))
        return finished

    def _drain(self) -> None:
        """Wait for everything in flight; what never answers is marked
        ``timeout``."""
        deadline = clock() + REPLY_TIMEOUT_S
        while self._pending and clock() < deadline:
            self._pump(0.05)
        for reply, conn in self._pending.values():
            reply.done = clock()
            reply.error = "timeout"
            conn.in_flight -= 1
        self._pending.clear()

    def closed_loop(self, requests, depth: int, seconds: float | None = None,
                    count: int | None = None) -> list[Reply]:
        """Keep ``depth`` requests in flight per connection, cycling
        ``requests``, until ``seconds`` have passed or ``count`` requests
        were sent; then wait for the stragglers."""
        replies: list[Reply] = []
        cursor = 0
        t_end = None if seconds is None else clock() + seconds

        def more() -> bool:
            if count is not None and cursor >= count:
                return False
            return t_end is None or clock() < t_end

        for conn in self._conns:
            while conn.in_flight < depth and more():
                replies.append(self._send(conn, requests[cursor % len(requests)], None))
                cursor += 1
        progress = clock()
        while more() and clock() - progress < REPLY_TIMEOUT_S:
            for _, conn in self._pump(0.05):
                progress = clock()
                if conn.in_flight < depth and more():
                    replies.append(
                        self._send(conn, requests[cursor % len(requests)], None)
                    )
                    cursor += 1
        self._drain()
        return replies

    def open_loop(self, requests, due_offsets) -> list[Reply]:
        """Send ``requests[i]`` at ``start + due_offsets[i]`` whether or
        not earlier ones were answered, round-robin over connections."""
        replies: list[Reply] = []
        start = clock() + 0.01
        for i, offset in enumerate(due_offsets):
            due = start + offset
            while True:
                wait = due - clock()
                if wait <= 0:
                    break
                self._pump(wait)
            conn = self._conns[i % len(self._conns)]
            replies.append(self._send(conn, requests[i % len(requests)], due))
        self._drain()
        return replies


if __name__ == "__main__":
    # ``client.py CPU PROGRAM ARGS...``: pin to CPU, ask for SIGTERM when
    # the launcher dies, then exec PROGRAM.
    import procs

    os.sched_setaffinity(0, {int(sys.argv[1])})
    procs.die_with_parent()
    os.execv(sys.argv[2], sys.argv[2:])
