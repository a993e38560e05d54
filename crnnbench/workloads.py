"""Seeded input generator and the workload definitions.

The benchmark makes its own inputs, so a later change to
``repro.mobility`` cannot change what is measured.  Everything here is
plain Python driven by one ``random.Random(seed)``: the same seed gives
the same road graph, the same initial load and the same tick batches
on every host.

Updates are plain ``(kind, id, x, y)`` tuples (``kind`` is ``"o"`` or
``"q"``; ``x is None`` is a delete); :mod:`crnnbench.wire` turns them
into the program's update objects.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

#: The program's default data space is ``[0, 10000]^2``.
SPACE = 10_000.0
#: Query ids live in their own range, away from object ids.
QUERY_BASE = 1_000_000
#: Speed classes as fractions of the space diagonal per tick (slow,
#: medium and fast vehicles, as in the paper's Brinkhoff generator).
SPEED_CLASSES = (0.002, 0.005, 0.01)
#: Share of objects and of queries that move per tick on the Table-1
#: workloads (the paper's default mobility).
TABLE1_MOBILITY = 0.10
#: Cumulative thresholds of one update's kind in a mixed batch: 2%
#: object deletes, 2% object inserts, 3% query moves, the rest object
#: moves -- the mix of ``repro.serve.bench.serve_stream``.
MIXED_DELETE, MIXED_INSERT, MIXED_QUERY_MOVE = 0.02, 0.04, 0.07
#: The road graph: a ``ROAD_SIDE`` x ``ROAD_SIDE`` street grid whose
#: junctions are jittered by up to ``ROAD_JITTER`` of a block.
ROAD_SIDE = 24
ROAD_JITTER = 0.3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its population, tick shape and backend."""

    name: str
    objects: int
    queries: int
    #: ``"table1"``: a share of objects and queries moves per tick;
    #: ``"mixed"``: fixed-size batches of object moves, inserts and
    #: deletes and query moves (the ``serve_stream`` mix).
    kind: str
    #: Server command-line arguments selecting the backend.
    backend_args: tuple
    #: The percentile ``tick_rtt_tail_ms`` reports.  It is fixed, so
    #: every commit reports the same statistic; it is chosen so that a
    #: run on the reference host has at least 10 samples beyond it.
    tail_percentile: int
    batch_size: int = 0
    #: Every ``check_every``-th tick is refereed by brute force (the last
    #: tick always is).
    check_every: int = 8

    def scaled(self, objects: int, queries: int, batch_size: int) -> "Workload":
        """The same workload at another size (the tests run tiny ones)."""
        return replace(self, objects=objects, queries=queries, batch_size=batch_size)


SERIAL = ("--backend", "serial")
PROCESS_K2 = ("--backend", "sharded", "--executor", "process", "--shards", "2")

#: ``table1-single`` (the same Table-1 inputs on the serial backend) is
#: not here: its timings did not hold steady on the reference host (see
#: README, "Dropped workload").
WORKLOADS = {
    w.name: w
    for w in (
        Workload("table1-k2", 4_000, 200, "table1", PROCESS_K2, 90),
        Workload("small-ticks", 2_000, 50, "mixed", SERIAL, 95, batch_size=50, check_every=25),
    )
}


class RoadGraph:
    """A fixed street grid with jittered junctions and a few diagonals."""

    def __init__(self, rng: random.Random):
        side, jitter = ROAD_SIDE, ROAD_JITTER
        step = SPACE / side
        lo, hi = 1.0, SPACE - 1.0
        self.nodes: list[tuple[float, float]] = []
        for r in range(side + 1):
            for c in range(side + 1):
                x = c * step + rng.uniform(-jitter, jitter) * step
                y = r * step + rng.uniform(-jitter, jitter) * step
                self.nodes.append((min(max(x, lo), hi), min(max(y, lo), hi)))
        self.edges: list[tuple[int, int, float]] = []
        self.adj: list[list[int]] = [[] for _ in self.nodes]

        def nid(r: int, c: int) -> int:
            return r * (side + 1) + c

        for r in range(side + 1):
            for c in range(side + 1):
                if c < side:
                    self._add(nid(r, c), nid(r, c + 1))
                if r < side:
                    self._add(nid(r, c), nid(r + 1, c))
                if r < side and c < side and rng.random() < 0.1:
                    self._add(nid(r, c), nid(r + 1, c + 1))

    def _add(self, a: int, b: int) -> None:
        (ax, ay), (bx, by) = self.nodes[a], self.nodes[b]
        eid = len(self.edges)
        self.edges.append((a, b, math.hypot(bx - ax, by - ay)))
        self.adj[a].append(eid)
        self.adj[b].append(eid)

    def point(self, eid: int, from_node: int, offset: float) -> tuple[float, float]:
        """The point ``offset`` along edge ``eid`` away from ``from_node``."""
        a, b, length = self.edges[eid]
        to_node = b if from_node == a else a
        (fx, fy), (tx, ty) = self.nodes[from_node], self.nodes[to_node]
        t = offset / length
        return fx + (tx - fx) * t, fy + (ty - fy) * t


#: The road graph is fixed, like the paper's road map; the seed places
#: and moves the objects and queries on it.
ROAD_GRAPH = RoadGraph(random.Random(2006))


class Mover:
    """One entity travelling along the road graph at a fixed speed."""

    __slots__ = ("eid", "from_node", "offset", "speed")

    def __init__(self, graph: RoadGraph, rng: random.Random):
        self.eid = rng.randrange(len(graph.edges))
        a, b, length = graph.edges[self.eid]
        self.from_node = a if rng.random() < 0.5 else b
        self.offset = rng.uniform(0.0, length)
        self.speed = rng.choice(SPEED_CLASSES) * SPACE * math.sqrt(2.0)

    def advance(self, graph: RoadGraph, rng: random.Random) -> tuple[float, float]:
        """Travel one tick's distance, turning at random at junctions."""
        remaining = self.speed
        while True:
            a, b, length = graph.edges[self.eid]
            to_end = length - self.offset
            if remaining < to_end:
                self.offset += remaining
                return graph.point(self.eid, self.from_node, self.offset)
            remaining -= to_end
            node = b if self.from_node == a else a
            choices = [e for e in graph.adj[node] if e != self.eid] or [self.eid]
            self.eid = rng.choice(choices)
            self.from_node = node
            self.offset = 0.0


class Stream:
    """The seeded update stream of one workload.

    :meth:`initial` is the set-up load (every object insert and every
    query registration); :meth:`next_batch` yields one tick's batch at a
    time, for as many ticks as the run lasts.  No object is ever placed
    exactly on a query point (README "Known preconditions" of the
    program): a coinciding position is nudged before it is emitted.
    """

    def __init__(self, workload: Workload, seed: int):
        self.w = workload
        self.rng = random.Random(seed)
        self.graph = ROAD_GRAPH
        self.objects: dict[int, tuple[float, float]] = {}
        self.queries: dict[int, tuple[float, float]] = {}
        self._movers: dict[int, Mover] = {}
        self._next_oid = workload.objects
        #: Occupied points, for the no-object-on-a-query-point rule.
        self._object_points: dict[tuple[float, float], int] = {}
        self._query_points: set = set()

    # -- positions ------------------------------------------------------
    def _spawn(self, eid: int) -> tuple[float, float]:
        mover = Mover(self.graph, self.rng)
        self._movers[eid] = mover
        return self.graph.point(mover.eid, mover.from_node, mover.offset)

    def _forget_object(self, oid: int) -> None:
        old = self.objects.pop(oid, None)
        if old is not None:
            left = self._object_points[old] - 1
            if left:
                self._object_points[old] = left
            else:
                del self._object_points[old]

    def _place_object(self, oid: int, p: tuple[float, float]) -> tuple:
        while p in self._query_points:
            p = (p[0] + 1e-3, p[1])
        self._forget_object(oid)
        self.objects[oid] = p
        self._object_points[p] = self._object_points.get(p, 0) + 1
        return ("o", oid, p[0], p[1])

    def _place_query(self, qid: int, p: tuple[float, float]) -> tuple:
        while p in self._object_points:
            p = (p[0], p[1] + 1e-3)
        self._query_points.discard(self.queries.get(qid))
        self.queries[qid] = p
        self._query_points.add(p)
        return ("q", qid, p[0], p[1])

    # -- the stream -----------------------------------------------------
    def initial(self) -> list[tuple]:
        """The set-up load: insert every object, register every query."""
        batch = [self._place_object(oid, self._spawn(oid)) for oid in range(self.w.objects)]
        for i in range(self.w.queries):
            qid = QUERY_BASE + i
            batch.append(self._place_query(qid, self._spawn(qid)))
        return batch

    def _move(self, eid: int) -> tuple[float, float]:
        return self._movers[eid].advance(self.graph, self.rng)

    def next_batch(self) -> list[tuple]:
        """One tick's updates, applied to this stream's own positions."""
        if self.w.kind == "table1":
            return self._table1_batch()
        return self._mixed_batch()

    def _table1_batch(self) -> list[tuple]:
        rng = self.rng
        n_obj = round(len(self.objects) * TABLE1_MOBILITY)
        n_qry = round(len(self.queries) * TABLE1_MOBILITY)
        batch = [
            self._place_object(oid, self._move(oid))
            for oid in sorted(rng.sample(range(len(self.objects)), n_obj))
        ]
        qids = sorted(rng.sample(sorted(self.queries), n_qry))
        batch.extend(self._place_query(qid, self._move(qid)) for qid in qids)
        return batch

    def _mixed_batch(self) -> list[tuple]:
        rng = self.rng
        batch: list[tuple] = []
        touched: set = set()
        live = sorted(self.objects)
        for _ in range(self.w.batch_size):
            roll = rng.random()
            if roll < MIXED_DELETE and len(self.objects) > self.w.objects // 2:
                oid = rng.choice(live)
                if oid in touched:
                    continue
                touched.add(oid)
                self._forget_object(oid)
                del self._movers[oid]
                batch.append(("o", oid, None, None))
            elif roll < MIXED_INSERT:
                oid = self._next_oid
                self._next_oid += 1
                touched.add(oid)
                batch.append(self._place_object(oid, self._spawn(oid)))
            elif roll < MIXED_QUERY_MOVE:
                qid = rng.choice(sorted(self.queries))
                batch.append(self._place_query(qid, self._move(qid)))
            else:
                oid = rng.choice(live)
                if oid in touched:
                    continue
                touched.add(oid)
                batch.append(self._place_object(oid, self._move(oid)))
        return batch
