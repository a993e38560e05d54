"""Tests of the benchmark itself.

Run from the root of the checkout::

    PYTHONPATH=src:. python -m pytest -q crnnbench/tests
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys

import pytest

from crnnbench import bench
from crnnbench.layers import PER_LAYER
from crnnbench.referee import EventFold, brute_force_rnn, compare
from crnnbench.run import ROOT
from crnnbench.workloads import WORKLOADS, Stream
from repro.core.oracle import brute_force_rnn as oracle_rnn
from repro.geometry.point import Point

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY = {"objects": 300, "queries": 20, "batch_size": 20}


def _tiny_stream(seed: int = 3, ticks: int = 5) -> Stream:
    stream = Stream(WORKLOADS["small-ticks"].scaled(**TINY), seed)
    stream.initial()
    for _ in range(ticks):
        stream.next_batch()
    return stream


def _folded(expected: dict) -> EventFold:
    fold = EventFold()
    fold.fold((qid, oid, True) for qid, members in expected.items() for oid in members)
    return fold


def test_referee_agrees_with_the_programs_oracle():
    stream = _tiny_stream()
    objects = {oid: Point(*p) for oid, p in stream.objects.items()}
    expected = brute_force_rnn(stream.objects, stream.queries)
    for qid, q in stream.queries.items():
        assert expected[qid] == oracle_rnn(objects, Point(*q))


def test_referee_fails_a_flipped_event():
    stream = _tiny_stream()
    expected = brute_force_rnn(stream.objects, stream.queries)
    assert compare(expected, _folded(expected).sets) == []
    qid = next(q for q, members in sorted(expected.items()) if members)
    lost = _folded(expected)
    lost.fold([(qid, min(expected[qid]), False)])
    assert compare(expected, lost.sets)
    outsider = next(o for o in sorted(stream.objects) if o not in expected[qid])
    gained = _folded(expected)
    gained.fold([(qid, outsider, True)])
    assert compare(expected, gained.sets)


def test_referee_fails_a_dropped_object():
    stream = _tiny_stream()
    expected = brute_force_rnn(stream.objects, stream.queries)
    qid = next(q for q, members in sorted(expected.items()) if members)
    objects = dict(stream.objects)
    del objects[min(expected[qid])]
    assert compare(brute_force_rnn(objects, stream.queries), _folded(expected).sets)


def test_event_fold_flags_an_inconsistent_stream():
    fold = EventFold()
    fold.fold([(1, 2, True), (1, 2, True), (1, 3, False)])
    assert len(fold.errors) == 2


def test_streams_are_seeded_and_keep_objects_off_query_points():
    a, b = _tiny_stream(seed=9, ticks=20), _tiny_stream(seed=9, ticks=20)
    assert a.objects == b.objects and a.queries == b.queries
    assert a.objects != _tiny_stream(seed=10, ticks=20).objects
    assert not set(a.objects.values()) & set(a.queries.values())


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_runs_to_its_end_at_a_tiny_size(name, trace):
    result = bench.run(WORKLOADS[name].scaled(**TINY), 5, 1.0, trace, ROOT)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 + bench.WARMUP_TICKS
    section = "per_layer" if trace else "end_to_end"
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC[section])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif name == "table1-k2":
        assert result["metrics"]["shard.worker_compute_ms"]["value"] > 0


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert SPEC["paths"] == ["crnnbench"]


@pytest.mark.parametrize("trace", [0, 1])
def test_the_command_prints_exactly_the_named_metrics(trace):
    cmd = [*SPEC["command"], "--workload", "small-ticks", "--seed", "4",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "crnnbench"), tmp_path / "crnnbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "crnnbench/run.py", "--workload", "small-ticks",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_server_stops_on_sigint_even_when_started_with_sigint_ignored():
    from crnnbench.wire import Server

    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        server = Server(ROOT, WORKLOADS["small-ticks"].backend_args)
    finally:
        signal.signal(signal.SIGINT, previous)
    server.stop()
    assert server.proc.returncode == 0


def test_tail_is_a_fixed_nearest_rank_percentile():
    samples = [float(i) for i in range(1, 101)]
    random.Random(0).shuffle(samples)
    assert bench.tail(samples, 85) == (85.0, 15)
    # More samples move the count beyond, not the statistic reported.
    assert bench.tail([float(i) for i in range(1, 201)], 85) == (170.0, 30)
