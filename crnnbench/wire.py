"""The server process, and the client connection that drives it.

The server runs as its own process (:mod:`crnnbench.launch`, which
serves through ``repro.serve.server.main``), so the client never shares
its interpreter lock.  It is stopped with SIGINT: a wire ``shutdown``
stops the ``CRNNServer`` but the CLI's join loop never returns (see
README, "Server lifecycle").
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from typing import Optional

from repro.core.events import ObjectUpdate, QueryUpdate
from repro.geometry.point import Point
from repro.serve.client import ServeClient

#: The server prints this prefix once its listener is bound.
READY = "[serve] listening on "
#: Seconds allowed for a server to bind, and to exit after SIGINT.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0


def to_updates(batch: list[tuple]) -> list:
    """Generator tuples -> the program's update objects."""
    out = []
    for kind, eid, x, y in batch:
        pos = None if x is None else Point(x, y)
        out.append(ObjectUpdate(eid, pos) if kind == "o" else QueryUpdate(eid, pos))
    return out


def _children(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (read from ``/proc``)."""
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        parent_of[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [pid]
    while frontier:
        cur = frontier.pop()
        kids = [p for p, pp in parent_of.items() if pp == cur]
        found.extend(kids)
        frontier.extend(kids)
    return found


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    """One ``repro.serve`` server process, launched and stopped here."""

    def __init__(self, root: str, server_args: tuple, trace_dir: Optional[str] = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
        cmd = [sys.executable, os.path.join(root, "crnnbench", "launch.py")]
        if trace_dir is not None:
            cmd += ["--trace-dir", trace_dir]
        cmd += ["--", "--tick-interval", "0", *server_args]
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
        self.host, self.port = self._wait_ready()

    def _wait_ready(self) -> tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if line.startswith(READY):
                    host, port = line[len(READY):].split()[0].rsplit(":", 1)
                    return host, int(port)
                if not line:
                    break
        self.stop()
        raise RuntimeError("server did not start")

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of the server and every process it started."""
        pids = [self.proc.pid, *_children(self.proc.pid)]
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """SIGINT (the CLI drains and closes its workers), then wait."""
        if self.proc.poll() is None:
            kids = _children(self.proc.pid)
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                # A hung server: kill it and the workers it could not close.
                for pid in (self.proc.pid, *kids):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def connect(server: Server) -> ServeClient:
    """A client subscribed to every query's events."""
    client = ServeClient(server.host, server.port, max_frame=8 << 20)
    client.subscribe(None)
    return client
