"""Metric names and the per-layer summary of a traced window."""

from __future__ import annotations

from collections import defaultdict

from inputs import RSR, SMARTS
from tracer import UNATTRIBUTED, blocking_path

#: End-to-end metrics: (name, unit).  Every workload reports every one.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("minstr_per_s", "Minstr/s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("rsr_wall_speedup", "x"),
    ("rsr_work_speedup", "x"),
    ("ipc_error_pct", "%"),
    ("shard_ipc_dev_pct", "%"),
)

#: Layers the blocking path of an operation is split over.
PATH_LAYERS = (
    "sampling.run", "sampling.stack_build", "sampling.prefix",
    "core.skip", "warmup.skip", "core.reconstruct", "timing.hot",
    "store.get", "store.put", "harness.map_tasks", "harness.run_shard",
    "harness.true_run", "harness.result_cache", "workloads.build",
    "api.execute_request", "service.queue_wait", "service.run",
)

#: Per-layer metrics: (name, unit).  Reported by the traced run only.
PER_LAYER = (
    ("setup.import_s", "s"),
    ("workloads.build_s", "s"),
    ("sampling.stack_build_s", "s"),
    ("sampling.stack_builds", "count"),
    ("sampling.prefix_s", "s"),
    ("core.skip_s", "s"),
    ("core.skip_minstr_per_s", "Minstr/s"),
    ("warmup.skip_s", "s"),
    ("warmup.skip_minstr_per_s", "Minstr/s"),
    ("core.reconstruct_s", "s"),
    ("timing.hot_s", "s"),
    ("timing.hot_kinstr_per_s", "kinstr/s"),
    ("core.log_records", "count"),
    ("core.applied_updates", "count"),
    ("core.useful_ratio", "ratio"),
    ("warmup.applied_updates", "count"),
    ("cache.l1d_misses", "count"),
    ("cache.l2_misses", "count"),
    ("branch.mispredicts", "count"),
    ("store.get_s", "s"),
    ("store.hits", "count"),
    ("store.bytes_read", "bytes"),
    ("store.put_s", "s"),
    ("store.bytes_written", "bytes"),
    ("sampling.handoff_bytes", "bytes"),
    ("sampling.handoff_pickle_s", "s"),
    ("harness.phase_b_s", "s"),
    ("harness.worker_busy_s", "s"),
    ("harness.pool_idle_ratio", "ratio"),
    ("service.queue_wait_s", "s"),
    ("service.run_s", "s"),
    ("service.http_rtt_s", "s"),
    ("harness.cache_hit_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.minstr_per_s_delta", "Minstr/s"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_ratio", "ratio"),
    *((f"path.{layer}_s", "s") for layer in PATH_LAYERS),
)

def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _rate(spans, scale: float) -> float:
    seconds = sum(span.duration for span in spans)
    work = sum(span.attrs.get("instructions", 0) for span in spans)
    return work / seconds / scale if seconds > 0 else 0.0


def cost_metrics(costs) -> dict:
    """WarmupCost counts summed over one run of each distinct input.

    `costs` maps an input key to ``(method name, cost dict)``.
    """
    rsr = [cost for method, cost in costs.values() if method == RSR]
    smarts = [cost for method, cost in costs.values() if method == SMARTS]
    log_records = sum(cost["log_records"] for cost in rsr)
    applied = sum(cost["cache_updates"] + cost["predictor_updates"]
                  for cost in rsr)
    return {
        "core.log_records": log_records,
        "core.applied_updates": applied,
        "core.useful_ratio": applied / log_records if log_records else 0.0,
        "warmup.applied_updates": sum(
            cost["cache_updates"] + cost["predictor_updates"]
            for cost in smarts),
    }


def layer_metrics(ops, spans) -> dict:
    """Per-layer figures for the traced operations `ops`.

    Times ending in ``_s`` are seconds per operation that calls the
    layer (per call for set-up work: workload builds and store puts);
    hot-cluster counts are summed over the first operation of each
    distinct input, so they repeat exactly from run to run.
    """
    by_op = defaultdict(list)
    for span in spans:
        if span.op is not None:
            by_op[span.op].append(span)
    named = defaultdict(list)      # layer -> spans inside operations
    per_op = []                    # [{layer: seconds}] per operation
    for op in ops:
        totals = defaultdict(float)
        for span in by_op[op.span.op]:
            if span is op.span:
                continue
            named[span.name].append(span)
            totals[span.name] += span.duration
        per_op.append(totals)

    def per_op_mean(layer):
        return _mean(totals[layer] for totals in per_op if layer in totals)

    def attr_per_op(layer, attr):
        values = defaultdict(float)
        for span in named[layer]:
            values[span.op] += span.attrs.get(attr, 0)
        return _mean(values.values())

    first_of_key = {}
    for op in ops:
        first_of_key.setdefault(op.key, op.span.op)
    firsts = set(first_of_key.values())
    hot_firsts = [span for span in named["timing.hot"] if span.op in firsts]
    map_spans = named["harness.map_tasks"]
    busy = sum(span.attrs.get("worker_busy", 0.0) for span in map_spans)
    capacity = sum(span.duration * span.attrs.get("jobs", 1)
                   for span in map_spans)
    builds = [span for span in spans if span.name == "workloads.build"]
    puts = [span for span in spans if span.name == "store.put"]
    ops_calling_build = len({span.op for span in
                             named["sampling.stack_build"]})

    metrics = {
        "workloads.build_s": _mean(span.duration for span in builds),
        "sampling.stack_build_s": per_op_mean("sampling.stack_build"),
        "sampling.stack_builds": (len(named["sampling.stack_build"])
                                  / ops_calling_build
                                  if ops_calling_build else 0.0),
        "sampling.prefix_s": per_op_mean("sampling.prefix"),
        "core.skip_s": per_op_mean("core.skip"),
        "core.skip_minstr_per_s": _rate(named["core.skip"], 1e6),
        "warmup.skip_s": per_op_mean("warmup.skip"),
        "warmup.skip_minstr_per_s": _rate(named["warmup.skip"], 1e6),
        "core.reconstruct_s": per_op_mean("core.reconstruct"),
        "timing.hot_s": per_op_mean("timing.hot"),
        "timing.hot_kinstr_per_s": _rate(named["timing.hot"], 1e3),
        "cache.l1d_misses": sum(span.attrs["l1d_misses"]
                                for span in hot_firsts),
        "cache.l2_misses": sum(span.attrs["l2_misses"]
                               for span in hot_firsts),
        "branch.mispredicts": sum(span.attrs["mispredicts"]
                                  for span in hot_firsts),
        "store.get_s": per_op_mean("store.get"),
        "store.hits": attr_per_op("store.get", "hit"),
        "store.bytes_read": attr_per_op("store.get", "bytes"),
        "store.put_s": _mean(span.duration for span in puts),
        "store.bytes_written": sum(span.attrs.get("bytes", 0)
                                   for span in puts),
        "sampling.handoff_bytes": attr_per_op("harness.map_tasks",
                                              "handoff_bytes"),
        "sampling.handoff_pickle_s": attr_per_op("harness.map_tasks",
                                                 "handoff_pickle_s"),
        "harness.phase_b_s": per_op_mean("harness.map_tasks"),
        "harness.worker_busy_s": attr_per_op("harness.map_tasks",
                                             "worker_busy"),
        "harness.pool_idle_ratio": (1.0 - busy / capacity
                                    if capacity > 0 else 0.0),
    }

    path = defaultdict(float)
    wall = 0.0
    for op in ops:
        wall += op.span.duration
        for layer, seconds in blocking_path(by_op[op.span.op],
                                            op.span).items():
            path[layer] += seconds
    count = max(len(ops), 1)
    for layer in PATH_LAYERS:
        metrics[f"path.{layer}_s"] = path.get(layer, 0.0) / count
    metrics["trace.unattributed_s"] = path.get(UNATTRIBUTED, 0.0) / count
    metrics["trace.unattributed_ratio"] = (
        path.get(UNATTRIBUTED, 0.0) / wall if wall > 0 else 0.0)
    unknown = set(path) - set(PATH_LAYERS) - {UNATTRIBUTED}
    if unknown:
        raise RuntimeError(f"blocking path has unlisted layers {unknown}")
    return metrics

