"""One benchmark run: set-up, the closed loop, the checks and the metrics.

The load is closed-loop: one client on one connection, subscribed to
every query's events, sends a tick's batch and a ``tick`` frame and
waits for the ``TickAck``.  Events share the connection's ordered
outbox with replies, so when ``tick()`` returns that tick's events have
arrived.  Only the send and the wait are timed; generating the next
batch and every check happen between the timed windows.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import shutil
import statistics
import time
from typing import Optional

from crnnbench.referee import EventFold, brute_force_rnn, compare
from crnnbench.workloads import Stream, Workload

#: Servers launched per untraced run; ``setup_s`` is their median.
LAUNCHES = 3
#: Ticks run after set-up and before timing, so lazy set-up finishes.
WARMUP_TICKS = 1
#: Timings of the noise probe per core; the median is recorded.
PROBE_REPEATS = 5
#: Queries whose ``results(qid)`` is read back at a refereed tick.
RESULTS_SAMPLE = 4


class Session:
    """One server process, one subscribed client and one input stream."""

    def __init__(self, w: Workload, seed: int, root: str, trace_dir: Optional[str] = None):
        """Launch the server and apply the initial load (timed as set-up).

        With ``trace_dir`` the server is traced, and so is this client,
        into :attr:`client_rec`.
        """
        from crnnbench import trace
        from crnnbench.wire import Server, connect, to_updates

        self.w, self.seed = w, seed
        self.stream = Stream(w, seed)
        self.fold = EventFold()
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        #: Requests sent between ticks (results read-backs).
        self.extra_requests = 0
        self.client_rec = trace.Recorder() if trace_dir is not None else None
        initial = self.stream.initial()
        updates = to_updates(initial)
        t0 = time.perf_counter()
        self.server = Server(root, w.backend_args, trace_dir)
        try:
            self.client = connect(self.server)
            if self.client_rec is not None:
                trace.install_client(self.client_rec, self.client)
            self.client.send_updates(updates)
            ack = self.client.tick()
            self.setup_s = time.perf_counter() - t0
            self.tick = ack.tick
            self._settle(ack, len(initial), check=True)
        except BaseException:
            self.server.stop()
            raise

    def close(self) -> None:
        self.client.close()
        self.server.stop()

    # -- checks -----------------------------------------------------------
    def _settle(self, ack, sent: int, check: bool) -> bool:
        """Conservation checks on one acknowledged tick; fold its events."""
        problems = []
        events = self.client.take_events()
        changes = [c for e in events for c in e.changes]
        if ack.applied != sent:
            problems.append(f"applied {ack.applied} of {sent}")
        if ack.shed != 0:
            problems.append(f"shed {ack.shed}")
        if ack.events != len(changes):
            problems.append(f"ack counts {ack.events} events, {len(changes)} arrived")
        if any(e.tick != ack.tick or e.gap for e in events):
            problems.append("event frame of another tick, or a gap")
        for err in self.client.take_errors():
            problems.append(f"unsolicited error {err.code}")
        self.fold.fold(changes)
        if check:
            problems += self.referee()
        return self._count(ack.tick, problems)

    def referee(self) -> list[str]:
        """Brute-force RNN sets against the folded events and ``results``."""
        expected = brute_force_rnn(self.stream.objects, self.stream.queries)
        problems = compare(expected, self.fold.sets) + self.fold.errors
        self.fold.errors = []
        rng = random.Random(self.seed * 1_000_003 + self.tick)
        for qid in rng.sample(sorted(self.stream.queries), RESULTS_SAMPLE):
            self.extra_requests += 1
            got = frozenset(self.client.results(qid))
            if got != expected[qid]:
                problems.append(f"results({qid}) = {sorted(got)}, want {sorted(expected[qid])}")
        return problems

    def _count(self, tick: int, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"tick {tick}: " + "; ".join(problems[:5]))
        return not problems

    # -- the closed loop ----------------------------------------------------
    def run_ticks(self, seconds: float) -> tuple[list[float], list[int]]:
        """Tick until ``seconds`` have passed; the last tick is refereed.

        Returns each timed tick's round trip (seconds) and update count.
        """
        from crnnbench.wire import to_updates
        from repro.serve.client import ServerError

        rtts: list[float] = []
        sizes: list[int] = []
        end = time.monotonic() + seconds
        while True:
            batch = self.stream.next_batch()
            updates = to_updates(batch)
            if self.client_rec is not None:
                self.client_rec.current_tick = self.tick + 1
            t0 = time.perf_counter()
            try:
                self.client.send_updates(updates)
                ack = self.client.tick()
            except ServerError as exc:
                self._count(self.tick + 1, [f"error reply {exc.code}"])
                if time.monotonic() >= end:
                    return rtts, sizes
                continue
            rtt = time.perf_counter() - t0
            if self.client_rec is not None:
                self.client_rec.current_tick = 0
            self.tick = ack.tick
            last = time.monotonic() >= end
            check = last or self.tick % self.w.check_every == 0
            self._settle(ack, len(batch), check)
            rtts.append(rtt)
            sizes.append(len(batch))
            if last:
                return rtts, sizes


# ----------------------------------------------------------------------
# Noise evidence: for reference only, gates nothing
# ----------------------------------------------------------------------
def host_fingerprint() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpu": model,
        "cpus": os.cpu_count(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _probe_loop() -> int:
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return acc


def core_probe() -> dict:
    """Median ms of a fixed pure-Python loop, timed on each core."""
    allowed = os.sched_getaffinity(0)
    out = {}
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(PROBE_REPEATS):
                t0 = time.perf_counter()
                _probe_loop()
                times.append((time.perf_counter() - t0) * 1e3)
            out[f"cpu{cpu}"] = round(statistics.median(times), 3)
    finally:
        os.sched_setaffinity(0, allowed)
    return out


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def tail(samples: list[float], pct: int) -> tuple[float, int]:
    """The ``pct``-th percentile (nearest rank) of ``samples``.

    Returns ``(value, beyond)``: ``beyond`` counts the samples above
    that rank, so a reader can see how well the run resolved the tail.
    """
    ordered = sorted(samples)
    rank = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[rank], len(ordered) - rank - 1


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(w: Workload, seed: int, seconds: float, root: str, info: dict) -> tuple:
    """Three launches, each timed as set-up and then ticked for a third
    of ``seconds``; the tick samples of all three are pooled, so one
    run sees the server on more than one placement."""
    setups, peaks, rtts, sizes, sessions = [], [], [], [], []
    for _ in range(LAUNCHES):
        session = Session(w, seed, root)
        sessions.append(session)
        setups.append(session.setup_s)
        try:
            warm(session)
            launch_rtts, launch_sizes = session.run_ticks(seconds / LAUNCHES)
            peaks.append(session.server.peak_rss_mb())
        finally:
            session.close()
        rtts += launch_rtts
        sizes += launch_sizes
    tail_value, beyond = tail(rtts, w.tail_percentile)
    info.update(
        ticks=len(rtts),
        tail_percentile=w.tail_percentile,
        tail_samples_beyond=beyond,
        setup_samples_s=[round(s, 4) for s in setups],
    )
    metrics = {
        "updates_per_s": _metric(sum(sizes) / sum(rtts), "1/s"),
        "tick_rtt_p50_ms": _metric(statistics.median(rtts) * 1e3, "ms"),
        "tick_rtt_tail_ms": _metric(tail_value * 1e3, "ms"),
        "peak_rss_mb": _metric(max(peaks), "MB"),
        "setup_s": _metric(statistics.median(setups), "s"),
    }
    return metrics, sessions


def warm(session: Session) -> None:
    """Run (and check) the untimed warm-up ticks."""
    for _ in range(WARMUP_TICKS):
        session.run_ticks(0.0)


def run(w: Workload, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """One full benchmark run; returns the result object."""
    info: dict = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    info["host"] = host_fingerprint()
    probe_before = core_probe()
    if trace:
        from crnnbench.layers import run_traced

        metrics, sessions = run_traced(w, seed, seconds, root, info)
    else:
        metrics, sessions = run_untraced(w, seed, seconds, root, info)
    info["probe_ms"] = {"before": probe_before, "after": core_probe()}
    problems = [p for s in sessions for p in s.problems]
    info["problems"] = problems[:20]
    print(json.dumps(info, sort_keys=True), flush=True)
    return {
        "correct": not problems,
        "attempted": sum(s.attempted for s in sessions),
        "failed": sum(s.failed for s in sessions),
        "metrics": metrics,
    }


def scratch_dir(root: str, name: str) -> str:
    """A fresh directory for run files inside the checkout."""
    path = os.path.join(root, ".bench_build", "crnnbench", name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path

