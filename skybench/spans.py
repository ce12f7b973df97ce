"""Span tracing for the traced run, installed from outside the program.

:func:`instrument` wraps the public callables of each layer where their
callers look them up (a class attribute, or the module global a caller
imported), so no file of the program changes.  Every call then leaves a
:class:`Span` in memory: name, start, end, parent, request id, and the
block-ledger delta the callee charged where the layer has a ledger.
Spans are written out once, when the run ends.

A span's self time is its duration minus the time its child spans cover.
Most children run on the caller's thread, but the serve tier's shard
worker pool runs a batch's shard queries on one thread per shard, at the
same time.  The pool's entry points are wrapped too: a task inherits the
span that submitted it as its parent, and with it the request id.
Children can therefore overlap, so the covered time is the union of
their intervals.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
import weakref
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Ledger = Callable[[tuple, dict], int]


class Span:
    __slots__ = (
        "name", "parent", "request", "phase", "start", "end", "children", "blocks",
    )

    def __init__(self, name: str, parent: Optional["Span"], request: int, phase: str) -> None:
        self.name = name
        self.parent = parent
        self.request = request
        self.phase = phase
        self.start = 0.0
        self.end = 0.0
        # (start, end) of every child span, from any thread.
        self.children: List[Tuple[float, float]] = []
        self.blocks: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """The duration less the union of the children's intervals."""
        covered = 0.0
        reach = self.start
        for start, end in sorted(self.children):
            start = max(start, reach)
            end = min(end, self.end)
            if end > start:
                covered += end - start
                reach = end
        return self.duration - covered

    def layer(self) -> str:
        return self.name.rsplit(".", 1)[0]


class Tracer:
    """Collects spans; off until :attr:`phase` is set to a phase name."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase: Optional[str] = None
        self._local = threading.local()
        self._requests = itertools.count(1)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def adopt(self, parent: Optional[Span]) -> Iterator[None]:
        """Open spans on this thread as children of ``parent``, a span of
        the thread that handed this work over."""
        if parent is None:
            yield
            return
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    def call(
        self,
        name: str,
        ledger: Optional[Ledger],
        blocks_from_result: bool,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
    ) -> Any:
        phase = self.phase
        if phase is None:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        request = parent.request if parent is not None else next(self._requests)
        span = Span(name, parent, request, phase)
        before = ledger(args, kwargs) if ledger is not None else 0
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.children.append((span.start, span.end))
            self.spans.append(span)
        if ledger is not None:
            span.blocks = ledger(args, kwargs) - before
        elif blocks_from_result:
            span.blocks = int(result)
        return result

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        ledger: Optional[Ledger] = None,
        blocks_from_result: bool = False,
    ) -> None:
        raw = owner.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, ledger, blocks_from_result, fn, args, kwargs)

        traced.__name__ = getattr(fn, "__name__", attr)
        traced.__doc__ = getattr(fn, "__doc__", None)
        setattr(owner, attr, kind(traced) if kind is not None else traced)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """One JSON line per span; ``parent`` is the parent's line index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as out:
            for span in self.spans:
                parent = None if span.parent is None else index.get(id(span.parent))
                out.write(
                    json.dumps(
                        [span.name, span.start, span.end, parent, span.request,
                         span.phase, span.blocks],
                        separators=(",", ":"),
                    )
                )
                out.write("\n")


class PoolCounter:
    """Buffer-pool hits and misses of every pool alive at some point.

    Pools die with the shard or component machine that owned them (every
    rebuild makes a new machine), so a pool's counters are banked when it
    is collected and live pools are summed on demand.  The finalizer holds
    the pool's attribute dict, which sees every counter update but does
    not keep the pool itself alive.
    """

    def __init__(self) -> None:
        self._live: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self._banked = [0, 0]

    def track(self, pool: Any) -> None:
        if pool is None:
            return
        self._live.add(pool)
        weakref.finalize(pool, self._bank, vars(pool))

    def _bank(self, state: Dict[str, Any]) -> None:
        self._banked[0] += state["hits"]
        self._banked[1] += state["misses"]

    def totals(self) -> Tuple[int, int]:
        hits, misses = self._banked
        for pool in list(self._live):
            hits += pool.hits
            misses += pool.misses
        return hits, misses


def _storage_ledger(index: int) -> Ledger:
    def ledger(args: tuple, kwargs: dict) -> int:
        storage = args[index] if len(args) > index else kwargs["storage"]
        return int(storage.stats.total)

    return ledger


def _engine_ledger(args: tuple, kwargs: dict) -> int:
    return int(args[0].backend.io_total())


def instrument(tracer: Tracer, pools: PoolCounter) -> None:
    """Wrap every layer boundary the per-layer metrics are made from."""
    from repro.em.storage import StorageManager
    from repro.engine.backends import ShardedServiceBackend
    from repro.engine.engine import SkylineEngine
    from repro.serve.workers import ShardWorkerPool
    from repro.service import merge as service_merge
    from repro.service import service as service_module
    from repro.service.durability.wal import WriteAheadLog
    from repro.service.lsm.levels import LevelManager
    from repro.service.lsm.scheduler import CompactionScheduler
    from repro.service.router import ShardRouter
    from repro.service.shard import Shard
    from repro.stream.subscriptions import SubscriptionManager
    from repro.structures import topopen_static
    from repro.structures.foursided import FourSidedStructure

    wrap = tracer.wrap
    for attr, name in (
        ("query", "engine.query"),
        ("update", "engine.update"),
        ("query_batch_shared", "engine.query_batch"),
    ):
        wrap(SkylineEngine, attr, name, _engine_ledger)
    # explain() and query() both plan through the backend.
    wrap(ShardedServiceBackend, "plan", "engine.plan")
    wrap(ShardRouter, "shards_for", "service.router.shards_for")
    shard_ledger: Ledger = lambda args, kwargs: int(args[0].stats.total)
    wrap(Shard, "query", "service.shard.query", shard_ledger)
    wrap(Shard, "rebuild", "service.shard.rebuild", shard_ledger)
    wrap(LevelManager, "seal", "service.lsm.seal")
    wrap(CompactionScheduler, "pay", "service.lsm.pay", blocks_from_result=True)
    service_ledger: Ledger = lambda args, kwargs: int(args[0].io_total())
    # The service's own work between the engine and the shards: routing
    # and merging a batch, tombstone rescans, WAL appends, memtable
    # inserts, seals and the topology checks an update triggers.
    service_class = service_module.SkylineService
    wrap(service_class, "query_many_traced", "service.execute", service_ledger)
    wrap(service_class, "insert", "service.write", service_ledger)
    wrap(service_class, "delete", "service.write", service_ledger)
    for attr, op in (
        ("fold_shard", "fold"),
        ("split_shard", "split"),
        ("merge_shards", "merge"),
        ("compact", "compact"),
    ):
        wrap(service_class, attr, f"service.topology.{op}", service_ledger)
    wrap(
        WriteAheadLog, "flush", "service.durability.wal_flush",
        lambda args, kwargs: int(args[0].store.stats.total),
    )
    # The static structure calls the PPB-tree builder through its own
    # module global, so that is the name to patch.
    wrap(topopen_static, "build_segment_ppbtree", "ppbtree.build", _storage_ledger(0))
    static = topopen_static.StaticTopOpenStructure
    wrap(static, "__init__", "structures.topopen_static.build", _storage_ledger(1))
    wrap(static, "build_sorted", "structures.topopen_static.build", _storage_ledger(1))
    query_ledger: Ledger = lambda args, kwargs: int(args[0].storage.stats.total)
    wrap(static, "query_top_open", "structures.topopen_static.query", query_ledger)
    wrap(FourSidedStructure, "__init__", "structures.foursided.build", _storage_ledger(1))
    wrap(FourSidedStructure, "query_four_sided", "structures.foursided.query", query_ledger)
    # The columnar kernels, where service.merge and service.service
    # imported them.
    wrap(service_merge, "merge_skyline_sources", "core.columns.merge")
    wrap(service_merge, "sweep_concatenated", "core.columns.merge")
    wrap(service_module, "filter_rect", "core.columns.filter")
    wrap(
        SubscriptionManager, "pump", "stream.subscriptions.pump",
        lambda args, kwargs: int(args[0].engine.backend.io_total()),
    )

    # The serve tier's shard workers run a batch's shard queries and
    # maintenance steps on threads of their own: each task adopts the span
    # that handed it over.
    pool_call = ShardWorkerPool.__dict__["__call__"]
    pool_maintenance = ShardWorkerPool.__dict__["run_maintenance"]

    def handing_call(pool: Any, worklists: Any, shard_query: Any, parallelism: int = 1) -> Any:
        parent = tracer.current()

        def adopted(sid: int, query: Any) -> Any:
            with tracer.adopt(parent):
                return shard_query(sid, query)

        return pool_call(pool, worklists, adopted, parallelism)

    def handing_maintenance(pool: Any, steps: Dict[int, Any]) -> Any:
        parent = tracer.current()

        def adopted(step: Any) -> Callable[[], Any]:
            def run() -> Any:
                with tracer.adopt(parent):
                    return step()

            return run

        return pool_maintenance(pool, {uid: adopted(step) for uid, step in steps.items()})

    ShardWorkerPool.__call__ = handing_call  # type: ignore[method-assign]
    ShardWorkerPool.run_maintenance = handing_maintenance  # type: ignore[method-assign]

    original_init = StorageManager.__dict__["__init__"]

    def tracked_init(self: Any, *args: Any, **kwargs: Any) -> None:
        original_init(self, *args, **kwargs)
        if tracer.phase is not None:
            pools.track(self.pool)

    StorageManager.__init__ = tracked_init  # type: ignore[method-assign]


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def summarize(spans: List[Span], timed_ops: int) -> Dict[str, Dict[str, float]]:
    """Per-name call counts, mean inclusive milliseconds and block sums,
    plus per-layer self time per timed operation."""
    by_name: Dict[str, Dict[str, float]] = {}
    self_ms: Dict[str, float] = {}
    for span in spans:
        row = by_name.setdefault(
            span.name, {"calls": 0, "timed_calls": 0, "ms": 0.0, "blocks": 0}
        )
        row["calls"] += 1
        row["ms"] += span.duration * 1e3
        if span.phase == "timed":
            row["timed_calls"] += 1
            if span.blocks is not None:
                row["blocks"] += span.blocks
            layer = span.layer()
            self_ms[layer] = self_ms.get(layer, 0.0) + span.self_time * 1e3
    for row in by_name.values():
        row["mean_ms"] = row["ms"] / row["calls"]
    per_op = {layer: ms / max(1, timed_ops) for layer, ms in self_ms.items()}
    return {"names": by_name, "self_ms_per_op": per_op}  # type: ignore[dict-item]
