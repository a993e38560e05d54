"""Spans around the program's public entry points, recorded from outside.

:func:`install_server` wraps functions of every layer the server
process (and its forked shard workers) runs; :func:`install_client`
wraps one client's encoder and socket.  A span is ``(name, start, end,
parent, tick)``: ``parent`` is the span open on the same process when it
began and ``tick`` the serve tick the work belongs to.  Spans stay in
memory in flat arrays and each process writes its own file when it
ends; :func:`load` and :class:`Spans` read them back for the report.

A layer is the span name's prefix (``serve``, ``robustness``, ``core``,
``grid``, ``rtree``, ``perf``, ``shard``).  Its self time is its span
time minus the time its direct child spans cover.
"""

from __future__ import annotations

import asyncio
import functools
import glob
import os
import pickle
import time
from array import array
from contextlib import suppress

import numpy as np

_clock = time.perf_counter


class Recorder:
    """In-memory span store of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset(tick=1)

    def reset(self, tick: int) -> None:
        """Forget every span (a forked worker starts from a clean store)."""
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.tick = array("i")
        self.stack: list[int] = []
        #: The serve tick that work recorded now belongs to.
        self.current_tick = tick
        #: name -> [(tick, value)] for per-tick figures that are not spans.
        self.values: dict[str, list[tuple[int, float]]] = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.start.append(_clock())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.tick.append(self.current_tick)
        self.stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = _clock()
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()
        else:
            with suppress(ValueError):
                self.stack.remove(idx)

    def note(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append((self.current_tick, value))

    def payload(self, role: str) -> dict:
        """This process's spans as one picklable record."""
        return {
            "role": role,
            "names": self.names,
            "values": self.values,
            **{k: getattr(self, k).tobytes() for k in ("start", "end", "name", "parent", "tick")},
        }

    def dump(self, directory: str, role: str) -> None:
        """Write this process's spans to ``directory/<role>-<pid>.spans``."""
        path = os.path.join(directory, f"{role}-{os.getpid()}.spans")
        with open(path, "wb") as fh:
            pickle.dump(self.payload(role), fh)


def wrap(rec: Recorder, owner, attr: str, span: str) -> None:
    """Replace ``owner.attr`` by a version that records a span per call."""
    fn = getattr(owner, attr)
    nid = rec.intern(span)
    if asyncio.iscoroutinefunction(fn):

        async def wrapper(*args, **kwargs):
            idx = rec.begin(nid)
            try:
                return await fn(*args, **kwargs)
            finally:
                rec.finish(idx)

    else:

        def wrapper(*args, **kwargs):
            idx = rec.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.finish(idx)

    setattr(owner, attr, functools.wraps(fn)(wrapper))


def _wrap_generator(rec: Recorder, owner, attr: str, span: str) -> None:
    """Like :func:`wrap`, one span per step of a generator method."""
    fn = getattr(owner, attr)
    nid = rec.intern(span)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            idx = rec.begin(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                rec.finish(idx)
            yield item

    setattr(owner, attr, wrapper)


def install_server(trace_dir: str) -> Recorder:
    """Wrap the server-side layers; returns the process's recorder."""
    import multiprocessing.connection as mpc

    from repro.core import monitor as core_monitor
    from repro.core.circ_store import FurCircStore
    from repro.grid import cpm
    from repro.grid.index import GridIndex
    from repro.perf import kernels
    from repro.robustness.guard import IngestionGuard
    from repro.rtree.furtree import FURTree
    from repro.rtree.rtree import RTree
    from repro.serve import protocol, server
    from repro.shard import engine, executor
    from repro.shard.monitor import ShardedCRNNMonitor

    rec = Recorder()
    CRNNMonitor = core_monitor.CRNNMonitor

    # serve: the tick, its fanout and frame decoding.  A finished tick
    # moves the recorder on to the next one.
    wrap(rec, server.CRNNServer, "_run_tick", "serve.tick")
    run_tick = server.CRNNServer._run_tick

    async def counted_tick(*args, **kwargs):
        try:
            return await run_tick(*args, **kwargs)
        finally:
            rec.current_tick += 1

    server.CRNNServer._run_tick = functools.wraps(run_tick)(counted_tick)
    wrap(rec, server.CRNNServer, "_fanout", "serve.fanout")
    wrap(rec, server, "parse_message", "serve.decode")
    _wrap_generator(rec, protocol.FrameDecoder, "frames", "serve.decode")

    wrap(rec, IngestionGuard, "sanitize_batch", "robustness.sanitize")

    # core: the backend entry points and the phases of one tick, on the
    # single monitor and inside shard workers alike.
    wrap(rec, CRNNMonitor, "process", "core.process")
    wrap(rec, CRNNMonitor, "drain_events", "core.drain_events")
    for module in (core_monitor, engine):
        wrap(rec, module, "apply_grid_updates", "core.grid_moves")
        wrap(rec, module, "build_affected_map", "core.pies")
        wrap(rec, module, "build_affected_map_vector", "core.pies")
        wrap(rec, module, "_resolve_affected", "core.pies")
    wrap(rec, FurCircStore, "process_moves", "core.circs")
    for method in ("add_query", "update_query", "remove_query"):
        wrap(rec, CRNNMonitor, method, "core.queries")
        wrap(rec, ShardedCRNNMonitor, method, "shard.queries")
    wrap(rec, core_monitor, "init_crnn", "core.init_crnn")

    wrap(rec, cpm, "nn_search", "grid.nn_search")
    wrap(rec, cpm, "constrained_knn_search", "grid.constrained_nn_search")
    wrap(rec, GridIndex, "bulk_move_objects", "grid.bulk_move")
    wrap(rec, GridIndex, "ensure_csr", "grid.ensure_csr")

    for method in ("insert", "containment_search"):
        wrap(rec, RTree, method, f"rtree.{method}")
    for method in ("update", "update_radius", "delete_by_id"):
        wrap(rec, FURTree, method, f"rtree.{method}")

    wrap(rec, kernels, "nn_k1_vector", "perf.nn_k1_vector")
    wrap(rec, kernels, "constrained_nn_k1_vector", "perf.constrained_nn_k1_vector")
    wrap(rec, kernels.EntrySnapshot, "batch_containment_candidates", "perf.containment_prefilter")

    # shard: the coordinator's side of a tick ...
    wrap(rec, ShardedCRNNMonitor, "process", "shard.process")
    wrap(rec, ShardedCRNNMonitor, "drain_events", "shard.drain_events")
    wrap(rec, ShardedCRNNMonitor, "_merge", "shard.merge")
    wrap(rec, executor.ProcessExecutor, "tick", "shard.executor_tick")
    executor_tick = executor.ProcessExecutor.tick

    def noted_tick(self, sanitized):
        report = executor_tick(self, sanitized)
        secs = report.shard_seconds
        rec.note("shard.worker_compute", max(secs))
        rec.note("shard.imbalance", max(secs) / (sum(secs) / len(secs)))
        return report

    executor.ProcessExecutor.tick = functools.wraps(executor_tick)(noted_tick)
    send_bytes = mpc.Connection._send_bytes

    def counted_send(self, buf):
        rec.note("shard.sent_bytes", len(buf))
        return send_bytes(self, buf)

    mpc.Connection._send_bytes = counted_send

    # ... and the worker's.  Workers fork from this process, so they
    # inherit every wrapper; each starts a clean store and writes it
    # when its loop ends.
    wrap(rec, engine.ShardEngine, "tick_object_phases", "shard.engine_tick")
    wrap(rec, executor, "dispatch_op", "shard.worker_op")
    worker_op = executor.dispatch_op

    def counted_op(engine_, op, args):
        if op == "tick":
            rec.current_tick += 1
        return worker_op(engine_, op, args)

    executor.dispatch_op = functools.wraps(worker_op)(counted_op)
    worker_main = executor._worker_main

    def traced_worker(*args, **kwargs):
        rec.reset(tick=0)
        try:
            return worker_main(*args, **kwargs)
        finally:
            rec.dump(trace_dir, "worker")

    executor._worker_main = traced_worker
    return rec


def install_client(rec: Recorder, client) -> None:
    """Wrap one client's frame encoder and count its socket bytes."""
    wrap(rec, client.session, "encode", "serve.client_encode")
    send_raw, recv = client._send_raw, client._recv

    def counted_send(data):
        rec.note("serve.client_bytes", len(data))
        return send_raw(data)

    def counted_recv():
        data = recv()
        rec.note("serve.client_bytes", len(data))
        return data

    client._send_raw = counted_send
    client._recv = counted_recv


class Spans:
    """One process's spans, restricted to a range of ticks."""

    def __init__(self, payload: dict, first_tick: int, last_tick: int):
        self.role = payload["role"]
        self.names = payload["names"]
        start = np.frombuffer(payload["start"], dtype=np.float64)
        end = np.frombuffer(payload["end"], dtype=np.float64)
        name = np.frombuffer(payload["name"], dtype=np.int32)
        parent = np.frombuffer(payload["parent"], dtype=np.int32)
        tick = np.frombuffer(payload["tick"], dtype=np.int32)
        dur = np.where(end > 0, end - start, 0.0)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        keep = (tick >= first_tick) & (tick <= last_tick) & (end > 0)
        self.dur, self.self_time = dur[keep], (dur - child)[keep]
        self.name, self.outer = name[keep], (parent_name != name)[keep]
        self.values = {
            k: [v for t, v in rows if first_tick <= t <= last_tick]
            for k, rows in payload["values"].items()
        }

    def _mask(self, names: tuple[str, ...]) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def total(self, *names: str) -> float:
        """Summed time of the outermost spans of ``names`` (seconds)."""
        return float(self.dur[self._mask(names) & self.outer].sum())

    def count(self, *names: str) -> int:
        return int(np.count_nonzero(self._mask(names)))

    def layer_self(self, layer: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
        return float(self.self_time[np.isin(self.name, ids)].sum())


def load(trace_dir: str, first_tick: int, last_tick: int) -> list[Spans]:
    """Every process's spans in ``trace_dir``, restricted to the ticks."""
    out = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "*.spans"))):
        with open(path, "rb") as fh:
            out.append(Spans(pickle.load(fh), first_tick, last_tick))
    return out
