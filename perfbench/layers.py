"""Benchmark-side wrappers around each layer's public calls.

:func:`install` swaps the wrapped callables into the ``repro`` modules
and classes that call them; :func:`uninstall` restores the originals.
Nothing under ``src/`` changes: the wrappers only record spans into the
module's :data:`TRACER` and read counters the program already keeps.

Pool workers are forked from the process that installed the wrappers,
so they run wrapped code too; :func:`traced_run_shard` ships each
worker's spans back inside its shard result, and the ``map_tasks``
wrapper merges them under its own span.
"""

from __future__ import annotations

import functools
import pickle
import time
from dataclasses import dataclass, fields

import repro.api
import repro.harness.experiment
import repro.harness.parallel
import repro.sampling.controller
import repro.sampling.pipeline
import repro.service.server
from repro.core.method import ReverseStateReconstruction
from repro.harness.cache import ResultCache
from repro.sampling.pipeline import ShardResult
from repro.store.checkpoint import CheckpointStore
from repro.timing.core import TimingSimulator
from repro.warmup.fixed_period import SmartsWarmup

from tracer import Tracer

#: The recorder every wrapper writes to.
TRACER = Tracer()

#: (owner, attribute) -> the callable each wrapper calls, while installed.
_ORIGINALS: dict = {}
#: (owner, attribute) -> the owner's own entry before install (None when
#: the attribute was inherited, as ``SmartsWarmup.skip`` is).
_OWN: dict = {}

#: ShardTask lists handed to map_tasks, pickled by :func:`handoff_probe`
#: after the operation so the probe's cost stays out of its wall time.
PENDING_HANDOFFS: list = []


@dataclass(frozen=True)
class TracedShardResult(ShardResult):
    """A shard result carrying the spans its worker recorded."""

    spans: tuple = ()


def _skipped(method) -> int:
    return method.cost.functional_instructions


def _skip_measure(method, before, _result) -> dict:
    return {"instructions": _skipped(method) - before}


def _timing_state(simulator) -> tuple:
    hierarchy = simulator.hierarchy
    predictor = simulator.predictor.stats
    return (hierarchy.l1d.stats.misses, hierarchy.l2.stats.misses,
            predictor.mispredictions + predictor.target_mispredictions)


def _timing_measure(simulator, before, result) -> dict:
    after = _timing_state(simulator)
    return {"instructions": result.instructions,
            "l1d_misses": after[0] - before[0],
            "l2_misses": after[1] - before[1],
            "mispredicts": after[2] - before[2]}


def _store_get_measure(store, before, result) -> dict:
    return {"hit": result is not None,
            "bytes": store.stats.bytes_read - before}


def _store_put_measure(store, before, result) -> dict:
    return {"bytes": int(result)}


def _cache_get_measure(cache, before, result) -> dict:
    return {"hit": result is not None}


def _traced(name, original, before=None, measure=None):
    """A wrapper recording one span per call of `original`.

    `before(first_arg)` snapshots state ahead of the call and
    `measure(first_arg, snapshot, result)` returns span attributes.
    """

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        snapshot = before(args[0]) if before is not None else None
        span = TRACER.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            TRACER.close(span)
        if measure is not None:
            span.attrs.update(measure(args[0], snapshot, result))
        return result

    return wrapper


def traced_map_tasks(worker, tasks, jobs, *args, **kwargs):
    """``harness.parallel.map_tasks`` with worker spans merged back."""
    tasks = list(tasks)
    original = _ORIGINALS[(repro.harness.parallel, "map_tasks")]
    span = TRACER.open("harness.map_tasks", jobs=jobs, tasks=len(tasks))
    try:
        results = original(worker, tasks, jobs, *args, **kwargs)
    finally:
        TRACER.close(span)
    busy = 0.0
    for result in results:
        if isinstance(result, TracedShardResult):
            TRACER.adopt(result.spans, span)
            busy += sum(values[2] - values[1] for values in result.spans
                        if values[4] is None)
    span.attrs["worker_busy"] = busy
    PENDING_HANDOFFS.append((span, tasks))
    return results


def traced_run_shard(task):
    """``sampling.pipeline.run_shard`` recording into a private span list.

    Runs in a pool worker (or in-process when the pool falls back); the
    spans travel back to the parent inside the result.
    """
    original = _ORIGINALS[(repro.sampling.pipeline, "run_shard")]
    stack = TRACER.stack()
    saved_spans, saved_stack = TRACER.spans, list(stack)
    TRACER.spans = []
    stack.clear()
    try:
        with TRACER.span("harness.run_shard", shard=task.shard.index):
            result = original(task)
        records = tuple(span.to_tuple() for span in TRACER.spans)
    finally:
        TRACER.spans = saved_spans
        stack[:] = saved_stack
    values = {item.name: getattr(result, item.name)
              for item in fields(ShardResult)}
    return TracedShardResult(**values, spans=records)


def handoff_probe() -> None:
    """Pickle the ShardTasks stashed by ``map_tasks``; record size and time."""
    while PENDING_HANDOFFS:
        span, tasks = PENDING_HANDOFFS.pop()
        start = time.perf_counter()
        size = sum(len(pickle.dumps(task)) for task in tasks)
        span.attrs["handoff_bytes"] = size
        span.attrs["handoff_pickle_s"] = time.perf_counter() - start


def _patch_table():
    return [
        (repro.sampling.pipeline, "build_simulation",
         _traced("sampling.stack_build",
                 repro.sampling.pipeline.build_simulation)),
        (repro.sampling.controller.SimulationStack, "warm_prefix",
         _traced("sampling.prefix",
                 repro.sampling.controller.SimulationStack.warm_prefix)),
        (repro.sampling.controller.SampledSimulator, "run",
         _traced("sampling.run",
                 repro.sampling.controller.SampledSimulator.run)),
        (ReverseStateReconstruction, "skip",
         _traced("core.skip", ReverseStateReconstruction.skip,
                 _skipped, _skip_measure)),
        (ReverseStateReconstruction, "pre_cluster",
         _traced("core.reconstruct",
                 ReverseStateReconstruction.pre_cluster)),
        (ReverseStateReconstruction, "post_cluster",
         _traced("core.reconstruct",
                 ReverseStateReconstruction.post_cluster)),
        (SmartsWarmup, "skip",
         _traced("warmup.skip", SmartsWarmup.skip, _skipped,
                 _skip_measure)),
        (TimingSimulator, "run",
         _traced("timing.hot", TimingSimulator.run, _timing_state,
                 _timing_measure)),
        (CheckpointStore, "get",
         _traced("store.get", CheckpointStore.get,
                 lambda store: store.stats.bytes_read, _store_get_measure)),
        (CheckpointStore, "put",
         _traced("store.put", CheckpointStore.put, None,
                 _store_put_measure)),
        (ResultCache, "get",
         _traced("harness.result_cache", ResultCache.get, None,
                 _cache_get_measure)),
        (ResultCache, "put",
         _traced("harness.result_cache", ResultCache.put)),
        (repro.api, "build_workload",
         _traced("workloads.build", repro.api.build_workload)),
        (repro.harness.experiment, "build_workload",
         _traced("workloads.build",
                 repro.harness.experiment.build_workload)),
        (repro.api, "true_run_for",
         _traced("harness.true_run", repro.api.true_run_for)),
        (repro.service.server, "execute_request",
         _traced("api.execute_request",
                 repro.service.server.execute_request)),
        (repro.harness.parallel, "map_tasks", traced_map_tasks),
        (repro.sampling.pipeline, "run_shard", traced_run_shard),
    ]


def install() -> None:
    """Swap every wrapper in (idempotent)."""
    if _ORIGINALS:
        return
    for owner, name, wrapper in _patch_table():
        _OWN[(owner, name)] = owner.__dict__.get(name)
        _ORIGINALS[(owner, name)] = getattr(owner, name)
        setattr(owner, name, wrapper)


def uninstall() -> None:
    """Restore every original."""
    for (owner, name), own in _OWN.items():
        if own is None:
            delattr(owner, name)
        else:
            setattr(owner, name, own)
    _OWN.clear()
    _ORIGINALS.clear()
    PENDING_HANDOFFS.clear()
