"""One command for the skyline stack's benchmark.

    python3 skybench/run.py --workload read-static --seed 1 --seconds 10 --trace 0

Runs one workload (``read-static``, ``churn`` or ``serve-zipf``; see
``skybench/README.md`` for why each exists) against the public API in
this process, checks every answer it samples against a naive oracle,
checks the block ledgers and -- on ``churn`` -- crash recovery, and
prints the metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  A traced run first measures the same workload untraced in a child
process, to report the tracing overhead.  The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = os.path.join(ROOT, "src")

WORKLOADS = ("read-static", "churn", "serve-zipf")

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_blocks_mean", "blocks"),
    ("update_blocks_mean", "blocks"),
    ("space_blocks", "blocks"),
    ("peak_rss_mb", "MB"),
    ("recover_s", "s"),
]

# Per-layer metrics: (name, unit, source, argument).  Sources: "layer"
# reads a figure the workload run measured; "mean_ms", "count" and "blocks"
# read the spans of that name (mean inclusive milliseconds per call over
# set-up and timed phase; calls and charged blocks in the timed phase).
# The client's read tail and write latency are end to end, but spread too
# much from run to run to carry a bound (see README.md), so they are
# reported here.
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("query_p99_ms", "ms", "layer", ""),
    ("update_p50_ms", "ms", "layer", ""),
    ("update_p99_ms", "ms", "layer", ""),
    ("serve.queue_wait_ms_p50", "ms", "layer", ""),
    ("serve.queue_wait_ms_p99", "ms", "layer", ""),
    ("serve.service_ms_p50", "ms", "layer", ""),
    ("serve.coalesce_fanin_mean", "count", "layer", ""),
    ("serve.batch_size_mean", "count", "layer", ""),
    ("engine.query_ms", "ms", "mean_ms", "engine.query"),
    ("engine.update_ms", "ms", "mean_ms", "engine.update"),
    ("engine.plan_ms", "ms", "mean_ms", "engine.plan"),
    ("service.router.shards_for_ms", "ms", "mean_ms", "service.router.shards_for"),
    ("service.shards_visited_mean", "count", "layer", ""),
    ("service.shards_pruned_mean", "count", "layer", ""),
    ("service.shard.query_ms", "ms", "mean_ms", "service.shard.query"),
    ("service.shard.rebuild_ms", "ms", "mean_ms", "service.shard.rebuild"),
    ("service.shard.rebuild_count", "count", "count", "service.shard.rebuild"),
    ("service.tombstone_fallback_share", "ratio", "layer", ""),
    ("service.lsm.seal_ms", "ms", "mean_ms", "service.lsm.seal"),
    ("service.lsm.pay_ms", "ms", "mean_ms", "service.lsm.pay"),
    ("service.lsm.maintenance_blocks", "blocks", "blocks", "service.lsm.pay"),
    ("service.lsm.merges_completed", "count", "layer", ""),
    ("service.topology.fold_count", "count", "count", "service.topology.fold"),
    ("service.topology.fold_ms", "ms", "mean_ms", "service.topology.fold"),
    ("service.topology.fold_blocks", "blocks", "blocks", "service.topology.fold"),
    ("service.topology.split_count", "count", "count", "service.topology.split"),
    ("service.topology.merge_count", "count", "count", "service.topology.merge"),
    ("service.topology.compact_count", "count", "count", "service.topology.compact"),
    ("service.topology.compact_ms", "ms", "mean_ms", "service.topology.compact"),
    ("service.cache.hit_rate", "ratio", "layer", ""),
    ("service.durability.wal_flush_count", "count", "count", "service.durability.wal_flush"),
    ("service.durability.wal_flush_ms", "ms", "mean_ms", "service.durability.wal_flush"),
    ("service.durability.wal_blocks", "blocks", "blocks", "service.durability.wal_flush"),
    ("service.durability.snapshot_blocks", "blocks", "layer", ""),
    ("structures.topopen_static.build_ms", "ms", "mean_ms", "structures.topopen_static.build"),
    ("structures.topopen_static.query_ms", "ms", "mean_ms", "structures.topopen_static.query"),
    ("structures.foursided.build_ms", "ms", "mean_ms", "structures.foursided.build"),
    ("structures.foursided.query_ms", "ms", "mean_ms", "structures.foursided.query"),
    ("ppbtree.build_ms", "ms", "mean_ms", "ppbtree.build"),
    ("ppbtree.build_count", "count", "count", "ppbtree.build"),
    ("core.columns.merge_ms", "ms", "mean_ms", "core.columns.merge"),
    ("core.columns.filter_ms", "ms", "mean_ms", "core.columns.filter"),
    ("em.buffer_pool.hit_rate", "ratio", "layer", ""),
    ("em.blocks_read", "blocks/op", "layer", ""),
    ("em.blocks_written", "blocks/op", "layer", ""),
    ("stream.subscriptions.pump_ms", "ms", "mean_ms", "stream.subscriptions.pump"),
    ("stream.subscriptions.deltas", "count", "layer", ""),
    ("stream.subscriptions.scope_scans", "count", "layer", ""),
]

# Layers whose self time (span duration minus child spans) is reported
# per timed operation.
SELF_TIME_LAYERS = (
    "engine",
    "service",
    "service.router",
    "service.shard",
    "service.lsm",
    "service.topology",
    "service.durability",
    "structures.topopen_static",
    "structures.foursided",
    "ppbtree",
    "core.columns",
    "stream.subscriptions",
)

TRACE_METRICS: List[Tuple[str, str]] = [
    ("trace.overhead_ratio", "ratio"),
    ("run.error_rate", "ratio"),
]


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric a traced run prints, with its unit."""
    names = [(name, unit) for name, unit, _, _ in PER_LAYER]
    names += [(f"{layer}.self_ms_per_op", "ms/op") for layer in SELF_TIME_LAYERS]
    return names + TRACE_METRICS


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input sizes; tiny is for the smoke test",
    )
    return parser.parse_args(argv)


def reference_ops_per_s(args: argparse.Namespace) -> float:
    """The untraced throughput of the same workload, in a fresh process."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
        "--scale", args.scale,
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170, check=False
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError("the untraced reference run failed")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return float(result["metrics"]["ops_per_s"]["value"])


def run(args: argparse.Namespace, tracer: Any, pools: Any) -> Any:
    import runs
    import workloads

    scale = workloads.FULL if args.scale == "full" else workloads.TINY
    phases = runs.Phases(tracer, pools)
    if args.workload == "read-static":
        inputs: Any = workloads.read_static(args.seed, scale)
        runner: Any = runs.run_read_static
    elif args.workload == "churn":
        inputs = workloads.churn(args.seed, scale)
        runner = runs.run_churn
    else:
        inputs = workloads.serve_zipf(args.seed, scale)
        runner = runs.run_serve_zipf
    gc.collect()
    return runner(inputs, scale, args.seconds, phases)


def reconcile(outcome: Any, spans: List[Any]) -> None:
    """On a single caller, the blocks the top-level engine spans saw must
    equal the engine's ledger over the timed phase (which the workload run
    has already matched with the sum of the per-request reports)."""
    charged = 0
    for span in spans:
        if span.phase != "timed" or span.name not in ("engine.query", "engine.update"):
            continue
        parent = span.parent
        while parent is not None and not parent.name.startswith("engine."):
            parent = parent.parent
        if parent is None:
            charged += span.blocks
    outcome.check(
        charged == outcome.timed_ledger,
        f"spans charged {charged} blocks, the engine ledger {outcome.timed_ledger}",
    )


def layer_metrics(outcome: Any, tracer: Any, overhead: float) -> Dict[str, float]:
    from spans import summarize

    summary = summarize(tracer.spans, outcome.timed_ops)
    names = summary["names"]
    values: Dict[str, float] = {}
    for name, _, source, span in PER_LAYER:
        row = names.get(span)
        if source == "layer":
            values[name] = float(outcome.layer.get(name, outcome.metrics.get(name, 0.0)))
        elif row is None:
            values[name] = 0.0
        elif source == "mean_ms":
            values[name] = row["mean_ms"]
        elif source == "count":
            values[name] = float(row["timed_calls"])
        else:
            values[name] = float(row["blocks"])
    for layer in SELF_TIME_LAYERS:
        values[f"{layer}.self_ms_per_op"] = summary["self_ms_per_op"].get(layer, 0.0)
    values["trace.overhead_ratio"] = overhead
    return values


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SOURCES, "repro", "__init__.py")):
        sys.stderr.write(
            f"skybench: the program's sources are missing ({SOURCES}/repro); "
            "run from the root of a full checkout\n"
        )
        return 2
    sys.path[:0] = [SOURCES, HERE]

    tracer = pools = None
    if args.trace:
        from spans import PoolCounter, Tracer, instrument

        ops_untraced = reference_ops_per_s(args)
        tracer, pools = Tracer(), PoolCounter()
        instrument(tracer, pools)
    outcome = run(args, tracer, pools)

    if args.trace:
        if outcome.engine is not None:
            reconcile(outcome, tracer.spans)
        overhead = outcome.metrics["ops_per_s"] / ops_untraced
        values = layer_metrics(outcome, tracer, overhead)
        values["run.error_rate"] = len(outcome.errors) / max(1, outcome.attempted)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}
        out_dir = os.path.join(ROOT, ".skybench")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in END_TO_END
        }
    for name, metric in metrics.items():
        print(f"{args.workload:12s} {name:40s} {metric['value']:14.6g} {metric['unit']}")
    for error in outcome.errors[:20]:
        sys.stderr.write(f"skybench: {error}\n")
    correct = not outcome.errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": len(outcome.errors),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
