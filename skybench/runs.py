"""How each of the three workloads runs.

Each run builds the program from its pre-generated inputs, runs the
timed phase against the public API, then -- outside every clock --
checks the answers and the ledgers and returns an :class:`Outcome`.
A check that fails is recorded in ``Outcome.errors``; the run then
reports ``correct: false`` and exits non-zero.

Latency percentiles are pooled over the whole timed phase, so the
program's own rare slow operations (seals, merges, folds, rescans) count
in them.

Times are scaled to the nominal host speed of :mod:`meter`, which
samples between pieces of work: before and after set-up builds and
recoveries (the memory meter), and between stretches of about
``INTERVAL_S`` of a single caller's operations (the CPU meter).
serve-zipf's timed phase is reported as measured: its latencies are
mostly the server's own timed waits (the gather window) and thread
hand-offs, which do not slow with the host, and scaling them made its
figures spread more, not less.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import math
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import (
    Point,
    QueryRequest,
    ServiceConfig,
    SkylineEngine,
    SkylineServer,
    UpdateRequest,
)
from repro.core.skyline import range_skyline
from repro.service import DurableStore, crashed_copy

from meter import INTERVAL_S, cpu_meter, memory_meter
from workloads import (
    ChurnInputs,
    Op,
    Scale,
    ServeInputs,
    StaticInputs,
    apply_writes,
    replay_live,
)

Canon = List[Tuple[float, float, Any]]

# churn's recover_s is the median of this many recoveries of its crashed
# store, each a full SkylineEngine.open of a fresh copy.
RECOVERIES = 3


def canon(points: Sequence[Point]) -> Canon:
    return sorted((p.x, p.y, p.ident) for p in points)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``0 < q <= 1``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(values: Sequence[float]) -> float:
    """The 99th percentile, or -- with fewer than 1,000 samples -- the
    highest percentile that still has ten samples beyond it."""
    return percentile(values, max(0.5, min(0.99, 1.0 - 10.0 / len(values))))


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def latency_metrics(metrics: Dict[str, float], prefix: str, seconds: Sequence[float]) -> None:
    metrics[f"{prefix}_p50_ms"] = percentile(seconds, 0.5) * 1e3
    metrics[f"{prefix}_p99_ms"] = tail(seconds) * 1e3


@dataclass
class Outcome:
    """What one run measured, before it is shaped into the result line."""

    metrics: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    # Every failed operation and every failed check, one line each.
    errors: List[str] = field(default_factory=list)
    timed_ops: int = 0
    # Set on the single-caller workloads: the main engine and its ledger
    # over the timed phase, for span reconciliation.
    engine: Optional[SkylineEngine] = None
    timed_ledger: int = 0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


class Phases:
    """Moves the tracer (when there is one) between run phases, reads the
    buffer-pool counters at the timed phase's boundaries and holds the
    run's speed meters."""

    def __init__(self, tracer: Any, pools: Any) -> None:
        self.tracer = tracer
        self.pools = pools
        self.pool_start = (0, 0)
        # One meter for the operation loops, one for builds and recoveries.
        self.meter = cpu_meter()
        self.build_meter = memory_meter()

    def timed(self, fn: Callable[[], Any], seconds: List[float]) -> Any:
        """Call ``fn`` with everything older frozen; append its nominal
        seconds.

        Frozen objects are never traversed by the collector.  The inputs
        and the engines the benchmark keeps alive then cost a build's or
        a recovery's own collections nothing, as in a process holding
        one engine, and a build does not slow down with the builds
        before it.  They are unfrozen afterwards, so that what becomes
        garbage later is still collected.
        """
        gc.collect()
        gc.freeze()
        try:
            return self.build_meter.timed(fn, seconds)
        finally:
            gc.unfreeze()

    def enter(self, phase: Optional[str]) -> None:
        if phase == "timed" and self.pools is not None:
            self.pool_start = self.pools.totals()
        if self.tracer is not None:
            self.tracer.phase = phase

    @contextlib.contextmanager
    def untraced(self) -> Iterator[None]:
        """Work that belongs to no layer figure: the write probe's side
        engine and the prefix bookkeeping."""
        phase = None if self.tracer is None else self.tracer.phase
        self.enter(None)
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.phase = phase

    def pool_hit_rate(self) -> float:
        if self.pools is None:
            return 0.0
        hits, misses = self.pools.totals()
        hits -= self.pool_start[0]
        misses -= self.pool_start[1]
        return hits / (hits + misses) if hits + misses else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def service_status(engine: SkylineEngine) -> Dict[str, Any]:
    return engine.describe()["backend"]  # type: ignore[return-value]


def space_blocks(engine: SkylineEngine, store: Optional[DurableStore]) -> int:
    """Blocks allocated on every shard and component machine, plus the
    durable store's WAL and snapshot blocks when there is one."""
    space = int(service_status(engine)["blocks_in_use"])
    return space + (store.blocks_in_use() if store is not None else 0)


def check_partition(outcome: Outcome, engine: SkylineEngine, label: str) -> None:
    lhs = engine.attributed_io() + engine.maintenance_io()
    rhs = engine.io_total() - engine.build_io
    outcome.check(
        lhs == rhs,
        f"{label}: ledger partition broken: attributed + maintenance = {lhs}, "
        f"total - build = {rhs}",
    )


def phase_counters(
    outcome: Outcome, before: Dict[str, Any], after: Dict[str, Any], io: Any
) -> None:
    """Layer counters read from ``describe()`` around the timed phase."""
    layer = outcome.layer
    ops = max(1, outcome.timed_ops)
    hits = after["result_cache"]["hits"] - before["result_cache"]["hits"]
    misses = after["result_cache"]["misses"] - before["result_cache"]["misses"]
    layer["service.cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    layer["service.lsm.merges_completed"] = (
        after["scheduler"]["merges_completed"] - before["scheduler"]["merges_completed"]
    )
    layer["em.blocks_read"] = io.reads / ops
    layer["em.blocks_written"] = io.writes / ops
    detail = after.get("durability_detail")
    layer["service.durability.snapshot_blocks"] = detail["snapshot_blocks"] if detail else 0


def check_samples(
    outcome: Outcome,
    base: List[Point],
    writes: Sequence[Op],
    samples: List[Tuple[int, Any, Canon]],
) -> None:
    """Verify sampled reads against the naive skyline of the live set at
    each read's write version: the base plus the first ``version``
    writes.  ``samples`` must be sorted by version."""
    live = replay_live(base, ())
    applied = 0
    points = list(live.values())
    for version, rect, got in samples:
        if version != applied:
            apply_writes(live, writes[applied:version])
            applied = version
            points = list(live.values())
        if got != canon(range_skyline(points, rect)):
            outcome.errors.append(f"read at version {version} of {rect} disagrees with the oracle")


# ----------------------------------------------------------------------
# Single-caller workloads (read-static, churn)
# ----------------------------------------------------------------------
@dataclass
class OpRecord:
    kind: str
    seconds: float
    blocks: int
    report: Any
    result: Optional[Canon] = None


def apply_op(engine: SkylineEngine, op: Op) -> Tuple[Any, int]:
    """Send one operation; return its response and its blocks (attributed
    plus maintenance for a write)."""
    kind, arg = op
    if kind == "q":
        result = engine.query(QueryRequest(arg, consistency="fresh"))  # type: ignore[arg-type]
        return result, result.report.blocks
    request = UpdateRequest.insert(arg) if kind == "i" else UpdateRequest.delete(arg)  # type: ignore[arg-type]
    result = engine.update(request)
    if not result.applied:
        raise RuntimeError(f"write not applied: {op}")
    return result, result.report.blocks + result.report.maintenance_blocks


def sample_positions(ops: Sequence[Op], prefix: int, count: int) -> set:
    reads = [i for i, (kind, _) in enumerate(ops[:prefix]) if kind == "q"]
    stride = max(1, len(reads) // count)
    return set(reads[::stride][:count])


@dataclass
class SingleRun:
    """The timed phase of a single-caller workload."""

    engine: SkylineEngine
    replica: SkylineEngine
    build_seconds: List[float]
    records: List[OpRecord] = field(default_factory=list)
    # Nominal seconds of the phase, off-clock work excluded.
    elapsed: float = 0.0
    # The side engine's write probe (read-static only).
    probe: List[OpRecord] = field(default_factory=list)
    at_prefix: Dict[str, Any] = field(default_factory=dict)


def closed_loop(
    run: SingleRun,
    ops: Sequence[Op],
    seconds: float,
    prefix: int,
    samples: set,
    at_prefix: Callable[[], None],
    phases: Phases,
    side: Optional[SkylineEngine] = None,
    side_ops: Sequence[Op] = (),
    side_every: int = 0,
) -> None:
    """One caller, next op after the previous reply.  Runs ``seconds``
    and at least through the prefix.

    With a ``side`` engine, the next of ``side_ops`` follows every
    ``side_every``-th op, so the side's samples spread over the whole
    phase.  Side ops and the ``at_prefix`` hook run off the phase clock
    and untraced.  The meter samples after the first op that ends
    ``INTERVAL_S`` after its last sample; the ops since then, side ops
    included, and the phase clock are scaled by that stretch's factor.
    """
    engine = run.engine
    meter = phases.meter
    every = side_every if side is not None else 0
    next_side = 0
    # The current stretch: its start, its off-clock time, its records.
    stretch_start = meter.sample()
    paused = 0.0
    unscaled: List[OpRecord] = []
    active = 0.0

    def close_stretch(now: float) -> None:
        nonlocal stretch_start, paused, active
        length = now - stretch_start - paused
        stretch_start = meter.sample()
        factor = meter.factor()
        active += length
        run.elapsed += length * factor
        for record in unscaled:
            record.seconds *= factor
        unscaled.clear()
        paused = 0.0

    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        response, blocks = apply_op(engine, op)
        record = OpRecord(op[0], time.perf_counter() - t0, blocks, response.report)
        if i in samples:
            record.result = canon(response.points)
        run.records.append(record)
        unscaled.append(record)
        if every and i % every == every - 1 and next_side < len(side_ops):
            assert side is not None
            side_op = side_ops[next_side]
            next_side += 1
            t2 = time.perf_counter()
            with phases.untraced():
                side_response, side_blocks = apply_op(side, side_op)
            side_record = OpRecord(
                side_op[0], time.perf_counter() - t2, side_blocks, side_response.report
            )
            run.probe.append(side_record)
            unscaled.append(side_record)
            paused += time.perf_counter() - t2
        if i + 1 == prefix:
            hook_start = time.perf_counter()
            with phases.untraced():
                at_prefix()
            paused += time.perf_counter() - hook_start
        now = time.perf_counter()
        if now - stretch_start >= INTERVAL_S:
            close_stretch(now)
            if i + 1 >= prefix and active >= seconds:
                return
    close_stretch(time.perf_counter())


def single_caller(
    outcome: Outcome,
    build: Callable[[], Tuple[SkylineEngine, Optional[DurableStore]]],
    ops: List[Op],
    warmup: int,
    prefix: int,
    scale: Scale,
    seconds: float,
    phases: Phases,
    side_ops: Sequence[Op] = (),
) -> SingleRun:
    """Set up, run the closed loop and summarize it.

    The set-up builds become the main engine, the replica that replays
    the first operations for the determinism check and, with
    ``side_ops``, the side engine of the write probe.  At the end of the
    deterministic prefix the loop records the space in use and, on a
    durable store, a copy of the store as a crash at that moment leaves
    it.  The block metrics cover operations ``warmup`` to ``prefix``.
    """
    phases.enter("setup")
    build_seconds: List[float] = []
    build_blocks = set()
    # Builds past the third are timed and dropped.
    builds = []
    for _ in range(scale.setups):
        built = phases.timed(build, build_seconds)
        build_blocks.add(built[0].build_io)
        if len(builds) < 3:
            builds.append(built)
        del built
    outcome.metrics["setup_s"] = median(build_seconds)
    outcome.check(len(build_blocks) == 1, "set-up builds charged different blocks")
    engine, store = builds[0]
    run = SingleRun(engine, builds[1][0], build_seconds)
    side = builds[2][0] if side_ops else None
    del builds

    def at_prefix() -> None:
        run.at_prefix["space"] = space_blocks(engine, store)
        if store is not None:
            run.at_prefix["acknowledged"] = sum(1 for op in ops[:prefix] if op[0] != "q")
            run.at_prefix["crashed"] = crashed_copy(store, store.wal_durable)

    samples = sample_positions(ops, prefix, scale.oracle_samples)
    before = service_status(engine)
    io_before = engine.backend.snapshot()  # type: ignore[attr-defined]
    gc.collect()
    phases.enter("timed")
    closed_loop(
        run, ops, seconds, prefix, samples, at_prefix, phases,
        side, side_ops, scale.probe_every,
    )
    phases.enter(None)
    outcome.layer["em.buffer_pool.hit_rate"] = phases.pool_hit_rate()
    outcome.engine = engine
    outcome.timed_ledger = engine.io_total() - engine.build_io

    records = run.records
    reads = [r for r in records if r.kind == "q"]
    writes = [r for r in records if r.kind != "q"]
    head = records[warmup:prefix]
    m = outcome.metrics
    m["ops_per_s"] = len(records) / run.elapsed
    latency_metrics(m, "query", [r.seconds for r in reads])
    m["query_blocks_mean"] = mean([r.blocks for r in head if r.kind == "q"])
    if writes:
        latency_metrics(m, "update", [r.seconds for r in writes])
        m["update_blocks_mean"] = mean([r.blocks for r in head if r.kind != "q"])
    m["space_blocks"] = run.at_prefix["space"]
    layer = outcome.layer
    layer["service.shards_visited_mean"] = mean([r.report.shards_visited for r in reads])
    layer["service.shards_pruned_mean"] = mean([r.report.shards_pruned for r in reads])
    layer["service.tombstone_fallback_share"] = mean(
        [1.0 if r.report.tombstone_fallback else 0.0 for r in reads]
    )
    outcome.timed_ops = len(records)
    outcome.attempted += len(records)
    reported = sum(r.blocks for r in records)
    outcome.check(
        reported == outcome.timed_ledger,
        f"reports charged {reported} blocks, the engine ledger {outcome.timed_ledger}",
    )
    phase_counters(
        outcome, before, service_status(engine),
        engine.backend.snapshot() - io_before,  # type: ignore[attr-defined]
    )
    return run


def finish_single(
    outcome: Outcome, run: SingleRun, base: List[Point], ops: List[Op], scale: Scale, label: str
) -> None:
    """The checks every single-caller run ends with."""
    writes = [op for op in ops if op[0] != "q"]
    write_counts = []
    seen = 0
    for op in ops[: len(run.records)]:
        write_counts.append(seen)
        if op[0] != "q":
            seen += 1
    sampled = sorted(
        (
            (write_counts[i], ops[i][1], record.result)
            for i, record in enumerate(run.records)
            if record.result is not None
        ),
        key=lambda sample: sample[0],
    )
    check_samples(outcome, base, writes, sampled)
    check_partition(outcome, run.engine, label)
    # Blocks repeat exactly: a second build replays the first ops and
    # must charge the same blocks, op for op.
    for i, op in enumerate(ops[: scale.replay_ops]):
        _, blocks = apply_op(run.replica, op)
        if blocks != run.records[i].blocks:
            outcome.errors.append(
                f"op {i} charged {blocks} blocks on the replay, "
                f"{run.records[i].blocks} in the run"
            )
            break
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()


def run_read_static(inputs: StaticInputs, scale: Scale, seconds: float, phases: Phases) -> Outcome:
    outcome = Outcome()
    config = ServiceConfig(shard_count=4)
    ops: List[Op] = [("q", rect) for rect in inputs.rects]

    def build() -> Tuple[SkylineEngine, None]:
        return SkylineEngine.sharded(inputs.points, config), None

    # The write probe gives read-static its update metrics: inserts into
    # the third set-up build, a store that is neither durable nor
    # adaptive.  One probe write follows every few reads, so the probe
    # spreads over the whole read phase, but it never touches the engine
    # the reads go to.
    probe_ops: List[Op] = [("i", point) for point in inputs.probe]
    run = single_caller(
        outcome, build, ops, 0, scale.static_prefix, scale, seconds, phases, probe_ops
    )
    outcome.attempted += len(run.probe)
    latency_metrics(outcome.metrics, "update", [r.seconds for r in run.probe])
    # The probe writes sent within the prefix, like every block metric.
    outcome.metrics["update_blocks_mean"] = mean(
        [r.blocks for r in run.probe[: scale.static_prefix // scale.probe_every]]
    )
    # A store that is not durable restarts by building from its points
    # again, which is what each set-up build timed.
    outcome.metrics["recover_s"] = median(run.build_seconds)
    outcome.check(
        canon(run.engine.backend.service.live_points()) == canon(inputs.points),  # type: ignore[attr-defined]
        "the read phase changed the live set",
    )
    finish_single(outcome, run, inputs.points, ops, scale, "read-static")
    return outcome


def run_churn(inputs: ChurnInputs, scale: Scale, seconds: float, phases: Phases) -> Outcome:
    outcome = Outcome()
    config = ServiceConfig(shard_count=4, adaptive_topology=True, durability=True)

    def build() -> Tuple[SkylineEngine, Optional[DurableStore]]:
        store = DurableStore(config.shard_em_config())
        return SkylineEngine.sharded(inputs.points, config, store=store), store

    ops = inputs.ops
    run = single_caller(
        outcome, build, ops, scale.churn_warmup, scale.churn_prefix, scale, seconds, phases
    )
    # Recover the store as a crash at the end of the prefix left it.
    crashed: DurableStore = run.at_prefix["crashed"]
    recover_seconds: List[float] = []
    for _ in range(RECOVERIES):
        disk = copy.deepcopy(crashed)
        recovered = phases.timed(lambda: SkylineEngine.open(disk), recover_seconds)
    outcome.metrics["recover_s"] = median(recover_seconds)
    # The durable prefix is exactly the writes the crashed WAL holds.
    writes = [op for op in ops if op[0] != "q"]
    logged = [
        ("i" if record.op == "insert" else "d", record.point())
        for record in copy.deepcopy(crashed).read_wal_suffix(0)
        if record.op in ("insert", "delete")
    ]
    durable = len(logged)
    outcome.check(
        logged == writes[:durable],
        "the crashed WAL does not hold the first acknowledged writes in order",
    )
    lost = run.at_prefix["acknowledged"] - durable
    outcome.check(
        0 <= lost <= config.wal_group_commit - 1,
        f"{lost} acknowledged writes lost; group commit allows at most "
        f"{config.wal_group_commit - 1}",
    )
    got = canon(recovered.backend.service.live_points())  # type: ignore[attr-defined]
    outcome.check(
        got == sorted(replay_live(inputs.points, writes[:durable])),
        "recovered live set differs from the durable write prefix",
    )
    finish_single(outcome, run, inputs.points, ops, scale, "churn")
    return outcome


# ----------------------------------------------------------------------
# serve-zipf: two closed-loop clients against a SkylineServer
# ----------------------------------------------------------------------
@dataclass
class ClientLog:
    reads: List[Tuple[Any, Any, float]] = field(default_factory=list)
    writes: List[Tuple[int, Point, Any, float]] = field(default_factory=list)
    samples: List[Tuple[int, Any, Canon]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)


def _client(
    server: SkylineServer, ops: Sequence[Op], started: float, seconds: float,
    stride: int, log: ClientLog,
) -> None:
    for i, (kind, arg) in enumerate(ops):
        t0 = time.perf_counter()
        if t0 - started >= seconds:
            return
        try:
            if kind == "q":
                served = server.query(arg)  # type: ignore[arg-type]
            else:
                served = server.insert(arg)  # type: ignore[arg-type]
        except Exception as exc:  # a shed, a timeout or a crash: all count as failed
            log.failures.append(f"{kind} op {i}: {exc!r}")
            continue
        seconds_taken = time.perf_counter() - t0
        if kind == "q":
            log.reads.append((served.serving, served.report, seconds_taken))
            if len(log.reads) % stride == 0:
                log.samples.append((served.serving.pinned_version, arg, canon(served.points)))
        else:
            log.writes.append((served.serving.pinned_version, arg, served.report, seconds_taken))


def run_serve_zipf(inputs: ServeInputs, scale: Scale, seconds: float, phases: Phases) -> Outcome:
    outcome = Outcome()
    # The engine builds inside the set-up builds, as measured; scaled
    # below by their set-up build's factor.
    build_seconds: List[float] = []

    def build() -> Tuple[SkylineServer, List[Any]]:
        started = time.perf_counter()
        engine = SkylineEngine.sharded(inputs.points)
        build_seconds.append(time.perf_counter() - started)
        server = SkylineServer(engine)
        handles = []
        for rect in inputs.subscriptions:
            bucket: List[Any] = []
            handles.append((server.subscribe(rect, callback=bucket.append), rect, bucket))
        return server, handles

    # Every build but the last is stopped as soon as it is timed, so no
    # idle server runs during a later build.  The first one's engine is
    # kept for the write replay below.
    phases.enter("setup")
    setup_seconds: List[float] = []
    spare: Optional[SkylineEngine] = None
    for i in range(scale.setups):
        server, handles = phases.timed(build, setup_seconds)
        build_seconds[-1] *= phases.build_meter.factor()
        if i < scale.setups - 1:
            server.stop()
            if spare is None:
                spare = server.engine
    assert spare is not None
    outcome.metrics["setup_s"] = median(setup_seconds)
    engine = server.engine
    before = service_status(engine)
    scans_before = server.describe()["server"]["subscriptions"]["scope_scans"]
    io_before = engine.backend.snapshot()  # type: ignore[attr-defined]
    logs = [ClientLog() for _ in inputs.clients]
    gc.collect()
    phases.enter("timed")
    started = time.perf_counter()
    threads = [
        threading.Thread(
            target=_client,
            args=(server, ops, started, seconds, scale.serve_sample_stride, log),
        )
        for ops, log in zip(inputs.clients, logs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    phases.enter(None)
    outcome.layer["em.buffer_pool.hit_rate"] = phases.pool_hit_rate()
    server.stop()

    reads = [read for log in logs for read in log.reads]
    writes = sorted((w for log in logs for w in log.writes), key=lambda w: w[0])
    outcome.errors.extend(f for log in logs for f in log.failures)
    outcome.timed_ops = len(reads) + len(writes)
    outcome.attempted = outcome.timed_ops + len(outcome.errors)
    m = outcome.metrics
    # The timed phase is wall time as measured: see the module docstring.
    m["ops_per_s"] = outcome.timed_ops / elapsed
    latency_metrics(m, "query", [r[2] for r in reads])
    latency_metrics(m, "update", [w[3] for w in writes])
    # A coalesced batch's blocks cannot be split per request; each read
    # carries an equal share of its batch.
    m["query_blocks_mean"] = mean([s.batch_blocks / s.batch_size for s, _, _ in reads])
    # In the served run, the interleaving of the two clients and the
    # run's length decide which LSM merges fall inside it, so the write
    # path's blocks are measured on a fixed stream instead: the first
    # inserts of each client's list, replayed on a spare set-up build.
    replayed = [
        op for ops in inputs.clients for op in ops[: scale.serve_replay_ops] if op[0] == "i"
    ]
    m["update_blocks_mean"] = mean([apply_op(spare, op)[1] for op in replayed])
    after = service_status(engine)
    m["space_blocks"] = after["blocks_in_use"]
    phase_counters(
        outcome, before, after,
        engine.backend.snapshot() - io_before,  # type: ignore[attr-defined]
    )

    layer = outcome.layer
    servings = [s for s, _, _ in reads]
    layer["serve.queue_wait_ms_p50"] = percentile([s.queue_wait_s for s in servings], 0.5) * 1e3
    layer["serve.queue_wait_ms_p99"] = tail([s.queue_wait_s for s in servings]) * 1e3
    layer["serve.service_ms_p50"] = percentile([s.service_s for s in servings], 0.5) * 1e3
    layer["serve.coalesce_fanin_mean"] = mean([s.coalesce_fanin for s in servings])
    layer["serve.batch_size_mean"] = mean([s.batch_size for s in servings])
    layer["service.shards_visited_mean"] = mean([r.shards_visited for _, r, _ in reads])
    layer["service.shards_pruned_mean"] = mean([r.shards_pruned for _, r, _ in reads])
    layer["stream.subscriptions.deltas"] = sum(
        1 for _, _, bucket in handles for delta in bucket if delta.revision > 0
    )
    layer["stream.subscriptions.scope_scans"] = (
        server.describe()["server"]["subscriptions"]["scope_scans"] - scans_before
    )

    # Writes come from one ordered stream: the writer lane numbers them
    # 1, 2, ... and every read names the version it executed against.
    outcome.check(
        [w[0] for w in writes] == list(range(1, len(writes) + 1)),
        "write versions are not one ordered stream",
    )
    ordered_writes: List[Op] = [("i", w[1]) for w in writes]
    samples = sorted(
        (s for log in logs for s in log.samples), key=lambda sample: sample[0]
    )
    check_samples(outcome, inputs.points, ordered_writes, samples)
    final = list(replay_live(inputs.points, ordered_writes).values())
    for _, rect, bucket in handles:
        state: Dict[tuple, Point] = {}
        for delta in sorted(bucket, key=lambda d: d.revision):
            for p in delta.left:
                state.pop((p.x, p.y, p.ident), None)
            for p in delta.entered:
                state[(p.x, p.y, p.ident)] = p
        outcome.check(
            sorted(state) == canon(range_skyline(final, rect)),
            f"subscription {rect} replays to a different skyline",
        )
    check_partition(outcome, engine, "serve-zipf")
    live = engine.backend.service.live_points()  # type: ignore[attr-defined]
    outcome.check(canon(live) == canon(final), "served live set differs from base plus inserts")
    # A store that is not durable restarts by building from its points
    # again, which is what the set-up's engine builds timed.
    m["recover_s"] = median(build_seconds)
    m["peak_rss_mb"] = peak_rss_mb()
    return outcome
