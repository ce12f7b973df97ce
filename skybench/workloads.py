"""Seeded inputs of the three workloads.

Everything a run feeds the program is generated here, in one process,
before any clock starts: the base point sets, the query rectangles, the
write streams and the per-client operation lists.  The same seed gives
the same inputs.  Generation also guarantees that no operation can fail:
inserts never collide with a live coordinate (the service requires
general position) and every delete names a point that is live at that
position of the single ordered write stream.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from repro.core.point import Point
from repro.core.queries import RangeQuery
from repro.workloads import uniform_points, zipf_x_points

UNIVERSE = 1_000_000.0

# serve-zipf's closed-loop client threads: one per vCPU of the 2-vCPU
# machine the benchmark targets.
CLIENTS = 2

# serve-zipf sends this share of its inserts to the top TOP_BAND of a
# subscription's x range.  A uniform insert into 20,000 points almost
# never changes a skyline, so without them the subscriptions would get no
# deltas at all.
SUBSCRIBED_SHARE = 0.1
TOP_BAND = 0.01

# One operation: ("q", RangeQuery), ("i", Point) or ("d", Point).
Op = Tuple[str, object]


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark run.

    ``static_prefix`` and ``churn_prefix`` are the deterministic prefixes
    of the single-caller runs: the block metrics, ``space_blocks`` and
    churn's crash point are taken there, so they repeat exactly for a
    seed however fast the machine is.  A single-caller timed phase runs
    for the requested seconds and at least through its prefix.
    read-static's is long enough for its write probe (one insert per
    ``probe_every`` reads) to reach the LSM merges.  churn's block
    metrics skip its first ``churn_warmup`` operations, while the
    tombstones the reads rescan around are still few and the cost of a
    read depends on where the first deletes fell.
    ``serve_sample_stride`` is how many reads a serve-zipf client sends
    per read it keeps for the oracle, and the inserts among the first
    ``serve_replay_ops`` operations of each client's list are the write
    stream its block metric replays.
    """

    static_points: int
    churn_points: int
    serve_points: int
    max_ops: int
    static_prefix: int
    churn_prefix: int
    churn_warmup: int
    serve_sample_stride: int
    serve_replay_ops: int
    replay_ops: int
    probe_every: int
    oracle_samples: int
    setups: int
    rect_pool: int
    subscriptions: int


FULL = Scale(
    static_points=40_000,
    churn_points=20_000,
    serve_points=20_000,
    max_ops=60_000,
    static_prefix=4_000,
    churn_prefix=3_000,
    churn_warmup=1_000,
    serve_sample_stride=80,
    serve_replay_ops=10_000,
    replay_ops=300,
    probe_every=4,
    oracle_samples=48,
    setups=5,
    rect_pool=512,
    subscriptions=4,
)

# For the smoke test: every code path, in a few seconds.
TINY = Scale(
    static_points=2_000,
    churn_points=2_000,
    serve_points=2_000,
    max_ops=4_000,
    static_prefix=400,
    churn_prefix=300,
    churn_warmup=100,
    serve_sample_stride=20,
    serve_replay_ops=500,
    replay_ops=50,
    probe_every=4,
    oracle_samples=8,
    setups=3,
    rect_pool=64,
    subscriptions=2,
)

SHAPES = ("top-open", "4-sided", "right-open", "dominance", "anti-dominance")


def _rect(rng: random.Random, shape: str) -> RangeQuery:
    width = rng.uniform(0.1, 0.3) * UNIVERSE
    height = rng.uniform(0.1, 0.3) * UNIVERSE
    x0 = rng.uniform(0.0, UNIVERSE - width)
    y0 = rng.uniform(0.0, UNIVERSE - height)
    if shape == "top-open":
        return RangeQuery(x_lo=x0, x_hi=x0 + width, y_lo=y0)
    if shape == "4-sided":
        return RangeQuery(x_lo=x0, x_hi=x0 + width, y_lo=y0, y_hi=y0 + height)
    if shape == "right-open":
        return RangeQuery(x_lo=x0, y_lo=y0, y_hi=y0 + height)
    if shape == "dominance":
        return RangeQuery(x_lo=x0, y_lo=y0)
    return RangeQuery(x_hi=x0 + width, y_hi=y0 + height)


def mixed_rects(rng: random.Random, count: int) -> List[RangeQuery]:
    """Distinct rectangles cycling through the five shapes."""
    return [_rect(rng, SHAPES[i % len(SHAPES)]) for i in range(count)]


class _Coordinates:
    """Keeps generated inserts in general position with everything live."""

    def __init__(self, points: List[Point]) -> None:
        self.xs: Set[float] = {p.x for p in points}
        self.ys: Set[float] = {p.y for p in points}

    def admit(self, point: Point) -> bool:
        if point.x in self.xs or point.y in self.ys:
            return False
        self.xs.add(point.x)
        self.ys.add(point.y)
        return True


def _fresh_uniform(
    rng: random.Random, used: _Coordinates, ident_base: int
) -> Iterator[Point]:
    """Uniform inserts off the base set's integer x grid."""
    ident = ident_base
    while True:
        point = Point(
            rng.randrange(int(UNIVERSE)) + 0.5, rng.uniform(0.0, UNIVERSE), ident
        )
        if used.admit(point):
            ident += 1
            yield point


def _fresh_top_band(
    rng: random.Random, used: _Coordinates, rects: Sequence[RangeQuery], ident_base: int
) -> Iterator[Point]:
    """Inserts in the top ``TOP_BAND`` of one of ``rects``' x ranges, off
    the base set's integer x grid."""
    ident = ident_base
    while True:
        rect = rng.choice(rects)
        assert rect.x_lo is not None and rect.x_hi is not None
        x = rng.randrange(math.ceil(rect.x_lo), int(rect.x_hi)) + 0.5
        point = Point(x, rng.uniform((1.0 - TOP_BAND) * UNIVERSE, UNIVERSE), ident)
        if used.admit(point):
            ident += 1
            yield point


@dataclass
class StaticInputs:
    points: List[Point]
    rects: List[RangeQuery]
    probe: List[Point]


def read_static(seed: int, scale: Scale) -> StaticInputs:
    """40,000 uniform points; distinct rectangles of the five shapes; the
    inserts of the write probe, one per ``probe_every`` reads."""
    rng = random.Random(seed)
    points = uniform_points(scale.static_points, universe=int(UNIVERSE), seed=seed)
    rects = mixed_rects(rng, scale.max_ops)
    probe = list(
        itertools.islice(
            _fresh_uniform(rng, _Coordinates(points), 10**7),
            scale.max_ops // scale.probe_every,
        )
    )
    return StaticInputs(points, rects, probe)


@dataclass
class ChurnInputs:
    points: List[Point]
    ops: List[Op]


def churn(seed: int, scale: Scale) -> ChurnInputs:
    """20% fresh top-open reads, 72% hot-band inserts, 8% deletes.

    The deletes (a tenth of the writes) pick uniformly among the points
    live at that position of the stream, so they are mostly base points
    and leave tombstones the reads must rescan around.  The reads are the
    paper's top-open queries only: every shape pays the same rescan, and
    the cheapest one keeps the run's read count high.
    """
    rng = random.Random(seed)
    points = uniform_points(scale.churn_points, universe=int(UNIVERSE), seed=seed)
    used = _Coordinates(points)
    hot = [
        p
        for p in zipf_x_points(
            scale.max_ops, universe=int(UNIVERSE), alpha=4.0,
            ident_base=10**7, seed=seed + 1,
        )
        if used.admit(p)
    ]
    live = list(points)
    ops: List[Op] = []
    next_insert = 0
    while len(ops) < scale.max_ops and next_insert < len(hot):
        draw = rng.random()
        if draw < 0.2:
            ops.append(("q", _rect(rng, "top-open")))
        elif draw < 0.28:
            index = rng.randrange(len(live))
            live[index], live[-1] = live[-1], live[index]
            ops.append(("d", live.pop()))
        else:
            point = hot[next_insert]
            next_insert += 1
            live.append(point)
            ops.append(("i", point))
    return ChurnInputs(points, ops)


@dataclass
class ServeInputs:
    points: List[Point]
    subscriptions: List[RangeQuery]
    clients: List[List[Op]]


def serve_zipf(seed: int, scale: Scale) -> ServeInputs:
    """A pool of top-open rectangles drawn with Zipf alpha 1.1 and about
    10% inserts, one operation list per client thread."""
    rng = random.Random(seed)
    points = uniform_points(scale.serve_points, universe=int(UNIVERSE), seed=seed)
    pool = [_rect(rng, "top-open") for _ in range(scale.rect_pool)]
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(pool))]
    cumulative: List[float] = []
    total = 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)
    subscriptions = []
    for _ in range(scale.subscriptions):
        x0 = rng.uniform(0.0, 0.95 * UNIVERSE)
        subscriptions.append(RangeQuery(x_lo=x0, x_hi=x0 + 0.05 * UNIVERSE, y_lo=0.0))
    per_client = scale.max_ops // CLIENTS
    used = _Coordinates(points)
    inserts = _fresh_uniform(rng, used, 10**7)
    subscribed = _fresh_top_band(rng, used, subscriptions, 2 * 10**7)
    lists: List[List[Op]] = []
    for _ in range(CLIENTS):
        ops: List[Op] = []
        for _ in range(per_client):
            if rng.random() < 0.1:
                source = subscribed if rng.random() < SUBSCRIBED_SHARE else inserts
                ops.append(("i", next(source)))
            else:
                rank = bisect.bisect_left(cumulative, rng.random() * total)
                ops.append(("q", pool[min(rank, len(pool) - 1)]))
        lists.append(ops)
    return ServeInputs(points, subscriptions, lists)


def apply_writes(live: Dict[tuple, Point], writes: Sequence[Op]) -> None:
    """Apply ``writes`` in order to a live set keyed by (x, y, ident)."""
    for kind, point in writes:
        assert isinstance(point, Point)
        key = (point.x, point.y, point.ident)
        if kind == "i":
            live[key] = point
        else:
            del live[key]


def replay_live(base: List[Point], writes: Sequence[Op]) -> Dict[tuple, Point]:
    """The live set after applying ``writes`` in order to ``base``."""
    live = {(p.x, p.y, p.ident): p for p in base}
    apply_writes(live, writes)
    return live
