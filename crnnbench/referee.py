"""The brute-force referee: RNN sets from the definition, by NumPy/SciPy.

Object ``o`` is a reverse nearest neighbour of query ``q`` iff no other
object is strictly nearer to ``o`` than ``q`` is (the definition
``repro.core.oracle.brute_force_rnn`` implements).  The referee works
from the benchmark's own copy of the positions, never from the
program's state.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

#: Relative band around ``d(o, q) == NN(o)`` inside which NumPy's
#: rounding could differ from ``math.hypot``; members of the band are
#: decided again with ``math.hypot`` against every other object.
TIE_BAND = 1e-9


def brute_force_rnn(
    objects: dict[int, tuple[float, float]], queries: dict[int, tuple[float, float]]
) -> dict[int, frozenset[int]]:
    """Every query's exact monochromatic RNN set over ``objects``."""
    oids = np.fromiter(objects, dtype=np.int64, count=len(objects))
    pts = np.array([objects[o] for o in objects], dtype=np.float64).reshape(-1, 2)
    if len(oids) < 2:
        return {qid: frozenset(int(o) for o in oids) for qid in queries}
    nn_dist = cKDTree(pts).query(pts, k=2)[0][:, 1]
    out: dict[int, frozenset[int]] = {}
    for qid, (qx, qy) in queries.items():
        d = np.hypot(pts[:, 0] - qx, pts[:, 1] - qy)
        sure = d < nn_dist * (1.0 - TIE_BAND)
        near = ~sure & (d <= nn_dist * (1.0 + TIE_BAND))
        members = {int(o) for o in oids[sure]}
        for i in np.flatnonzero(near):
            if _is_rnn_exact(objects, int(oids[i]), (qx, qy)):
                members.add(int(oids[i]))
        out[qid] = frozenset(members)
    return out


def _is_rnn_exact(objects: dict, oid: int, q: tuple[float, float]) -> bool:
    ox, oy = objects[oid]
    d_oq = math.hypot(ox - q[0], oy - q[1])
    return not any(
        math.hypot(ox - x, oy - y) < d_oq for other, (x, y) in objects.items() if other != oid
    )


class EventFold:
    """Result sets folded from the event stream, exactly as delivered.

    A gain of a member already present, or a loss of one absent, is an
    inconsistent stream and is recorded in :attr:`errors`.
    """

    def __init__(self) -> None:
        self.sets: dict[int, set[int]] = {}
        self.errors: list[str] = []

    def fold(self, changes) -> None:
        for qid, oid, gained in changes:
            members = self.sets.setdefault(qid, set())
            if gained == (oid in members):
                self.errors.append(f"q{qid} {'gain' if gained else 'loss'} of o{oid} repeated")
            if gained:
                members.add(oid)
            else:
                members.discard(oid)


def compare(
    expected: dict[int, frozenset[int]], folded: dict[int, set[int]]
) -> list[str]:
    """Human-readable differences between expected and folded results."""
    diffs = []
    for qid in sorted(set(expected) | {q for q, s in folded.items() if s}):
        want = expected.get(qid, frozenset())
        got = folded.get(qid, set())
        if want != got:
            diffs.append(
                f"q{qid}: missing {sorted(want - got)} extra {sorted(got - want)}"
            )
    return diffs
