"""The traced run and its per-layer report.

A traced run launches the server twice with the same inputs: once
plain, to time ``tick_rtt_p50_ms`` without tracing, and once through
:func:`crnnbench.trace.install_server`.  Times come from the spans of
the second run's timed ticks; counts come from the ``StatsReply``
counters, read before and after those ticks.  The difference between
the two medians is the tracing overhead.
"""

from __future__ import annotations

import shutil
import statistics

from crnnbench import trace

#: Every per-layer metric: name -> unit.  Times are per tick unless the
#: name says otherwise; counts are per update.  A layer a workload does
#: not run (``shard`` outside ``table1-k2``) reads 0.
PER_LAYER = {
    "serve.client_encode_ms": "ms",
    "serve.server_decode_ms": "ms",
    "serve.fanout_ms": "ms",
    "serve.wire_wait_ms": "ms",
    "serve.frames_per_tick": "count",
    "serve.wire_bytes_per_update": "B",
    "serve.tick_process_ms": "ms",
    "robustness.sanitize_ms": "ms",
    "core.grid_moves_ms": "ms",
    "core.pies_ms": "ms",
    "core.circs_ms": "ms",
    "core.queries_ms": "ms",
    "core.init_crnn_ms": "ms",
    "core.pie_case1": "count/update",
    "core.pie_case2": "count/update",
    "core.pie_case3": "count/update",
    "core.containment_queries": "count/update",
    "core.query_recomputations": "count/update",
    "core.result_changes": "count/update",
    "core.circ_nn_trigger_ratio": "ratio",
    "grid.nn_search_us": "us",
    "grid.nn_searches": "count/update",
    "grid.constrained_nn_searches": "count/update",
    "grid.cells_visited": "count/update",
    "grid.heap_pops": "count/update",
    "rtree.fur_node_accesses": "count/update",
    "rtree.fur_bottom_up_updates": "count/update",
    "rtree.fur_topdown_reinserts": "count/update",
    "rtree.partial_insert_hits": "count/update",
    "perf.vector_nn_kernel_calls": "count/update",
    "perf.vector_nn_kernel_fallbacks": "count/update",
    "perf.pie_prefilter_skip_ratio": "ratio",
    "shard.tick_ms": "ms",
    "shard.worker_compute_ms": "ms",
    "shard.protocol_ms": "ms",
    "shard.merge_ms": "ms",
    "shard.queries_ms": "ms",
    "shard.imbalance": "ratio",
    "shard.request_bytes_per_tick": "B",
    "serve.self_ms": "ms",
    "robustness.self_ms": "ms",
    "core.self_ms": "ms",
    "grid.self_ms": "ms",
    "rtree.self_ms": "ms",
    "perf.self_ms": "ms",
    "shard.self_ms": "ms",
    "trace.overhead_ms": "ms",
}

#: Per-update counters: metric name -> ``StatCounters`` field.
COUNTERS = {
    "core.pie_case1": "pie_case1",
    "core.pie_case2": "pie_case2",
    "core.pie_case3": "pie_case3",
    "core.containment_queries": "containment_queries",
    "core.query_recomputations": "query_recomputations",
    "core.result_changes": "result_changes",
    "grid.nn_searches": "nn_searches",
    "grid.constrained_nn_searches": "constrained_nn_searches",
    "grid.cells_visited": "cells_visited",
    "grid.heap_pops": "heap_pops",
    "rtree.fur_node_accesses": "fur_node_accesses",
    "rtree.fur_bottom_up_updates": "fur_bottom_up_updates",
    "rtree.fur_topdown_reinserts": "fur_topdown_reinserts",
    "rtree.partial_insert_hits": "partial_insert_hash_hits",
    "perf.vector_nn_kernel_calls": "vector_nn_kernel_calls",
    "perf.vector_nn_kernel_fallbacks": "vector_nn_kernel_fallbacks",
}

#: The core phases, reported per tick and per process that runs them.
PHASES = ("grid_moves", "pies", "circs", "queries")
LAYERS = ("serve", "robustness", "core", "grid", "rtree", "perf", "shard")
BACKEND_SPANS = ("core.process", "core.drain_events", "shard.process", "shard.drain_events")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _frames(serve: dict) -> float:
    return serve["crnn_serve_frames_in_total"] + serve["crnn_serve_frames_out_total"]


def run_traced(w, seed: int, seconds: float, root: str, info: dict) -> tuple:
    """Plain half, traced half; returns ``(metrics, sessions)``."""
    from crnnbench.bench import Session, scratch_dir, warm

    plain = Session(w, seed, root)
    try:
        warm(plain)
        plain_rtts, _ = plain.run_ticks(seconds / 2)
    finally:
        plain.close()

    trace_dir = scratch_dir(root, "trace")
    traced = Session(w, seed, root, trace_dir)
    try:
        warm(traced)
        before = traced.client.stats()
        extra0, first = traced.extra_requests, traced.tick + 1
        rtts, sizes = traced.run_ticks(seconds / 2)
        extra, last = traced.extra_requests - extra0, traced.tick
        after = traced.client.stats()
    finally:
        traced.close()

    procs = trace.load(trace_dir, first, last)
    shutil.rmtree(trace_dir)
    client = trace.Spans(traced.client_rec.payload("client"), first, last)
    server = next(p for p in procs if p.role == "server")
    workers = [p for p in procs if p.role == "worker"]
    n, updates = len(rtts), sum(sizes)
    info.update(ticks=n, traced_ticks=[first, last], processes=len(procs) + 1)

    def per_tick_ms(seconds_total: float) -> float:
        return seconds_total / n * 1e3

    def phase_ms(span: str) -> float:
        running = [p for p in procs if p.count(span)]
        return _ratio(per_tick_ms(sum(p.total(span) for p in running)), len(running))

    delta = {k: after.counters[k] - before.counters[k] for k in after.counters}
    m: dict[str, float] = {}
    m["serve.client_encode_ms"] = per_tick_ms(client.total("serve.client_encode"))
    m["serve.server_decode_ms"] = per_tick_ms(server.total("serve.decode"))
    m["serve.fanout_ms"] = per_tick_ms(server.total("serve.fanout"))
    m["serve.wire_wait_ms"] = (
        statistics.fmean(rtts) * 1e3 - per_tick_ms(server.total("serve.tick"))
    )
    # Between the two stats snapshots the counters also saw the first
    # snapshot's reply, the second's request, and each results read-back.
    frames = _frames(after.serve) - _frames(before.serve) - 2 - 2 * extra
    m["serve.frames_per_tick"] = frames / n
    m["serve.wire_bytes_per_update"] = sum(client.values.get("serve.client_bytes", [])) / updates
    m["serve.tick_process_ms"] = per_tick_ms(server.total(*BACKEND_SPANS))
    m["robustness.sanitize_ms"] = per_tick_ms(sum(p.total("robustness.sanitize") for p in procs))
    for phase in PHASES:
        m[f"core.{phase}_ms"] = phase_ms(f"core.{phase}")
    init_calls = sum(p.count("core.init_crnn") for p in procs)
    m["core.init_crnn_ms"] = _ratio(sum(p.total("core.init_crnn") for p in procs), init_calls) * 1e3
    for name, field in COUNTERS.items():
        m[name] = delta[field] / updates
    m["core.circ_nn_trigger_ratio"] = _ratio(
        delta["circ_nn_searches_triggered"], delta["circ_lazy_radius_updates"]
    )
    nn_spans = ("grid.nn_search", "grid.constrained_nn_search")
    m["grid.nn_search_us"] = _ratio(
        sum(p.total(*nn_spans) for p in procs), sum(p.count(*nn_spans) for p in procs)
    ) * 1e6
    skips = delta["vector_pie_prefilter_skips"]
    m["perf.pie_prefilter_skip_ratio"] = _ratio(skips, skips + delta["vector_pie_prefilter_hits"])

    compute = server.values.get("shard.worker_compute", [])
    m["shard.tick_ms"] = per_tick_ms(server.total("shard.executor_tick"))
    m["shard.worker_compute_ms"] = _ratio(sum(compute), len(compute)) * 1e3
    m["shard.protocol_ms"] = m["shard.tick_ms"] - m["shard.worker_compute_ms"] if workers else 0.0
    m["shard.merge_ms"] = per_tick_ms(server.total("shard.merge"))
    m["shard.queries_ms"] = per_tick_ms(server.total("shard.queries"))
    imbalance = server.values.get("shard.imbalance", [])
    m["shard.imbalance"] = _ratio(sum(imbalance), len(imbalance))
    m["shard.request_bytes_per_tick"] = (
        sum(server.values.get("shard.sent_bytes", [])) / n if workers else 0.0
    )
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = per_tick_ms(sum(p.layer_self(layer) for p in [*procs, client]))
    m["trace.overhead_ms"] = (statistics.median(rtts) - statistics.median(plain_rtts)) * 1e3
    metrics = {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return metrics, [plain, traced]
