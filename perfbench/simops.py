"""Timed in-process sampled runs, shared by the two simulation workloads."""

from __future__ import annotations

import itertools
import time

from repro.warmup import WarmupCost, resolve_method

from common import Op, host_scale

_op_ids = itertools.count()


def fingerprint(result) -> tuple:
    """What a repeated run must reproduce: cluster IPCs and WarmupCost."""
    return tuple(result.cluster_ipcs), tuple(result.cost.as_dict().items())


def population(result, scale) -> int:
    """Population instructions a run covers: prefix, skipped and hot."""
    cost = result.cost
    return (scale.warmup_prefix + cost.functional_instructions
            + cost.hot_instructions)


def work_units(cost: dict) -> float:
    return WarmupCost(**cost).work_units()


def run_once(simulator, method_name: str):
    """An untimed run with a fresh method instance (set-up work)."""
    return simulator.run(resolve_method(method_name))


def timed_run(simulator, method_name: str, key, traced: bool):
    """Run one fresh method instance; returns ``(result, Op)``.

    The wall time covers the ``run()`` call only and is scaled by the
    mean of host speed probes taken just before and just after it.  In a traced window the call is the
    root span of its operation, and the shard hand-off probe runs after
    the clock stops.
    """
    method = resolve_method(method_name)
    before = host_scale()
    if not traced:
        start = time.perf_counter()
        result = simulator.run(method)
        wall = time.perf_counter() - start
        scale = (before + host_scale()) / 2
        return result, Op(key=key, wall=wall * scale)

    import layers

    tracer = layers.TRACER
    tracer.op = f"op-{next(_op_ids)}"
    span = tracer.open("op", key=repr(key))
    try:
        result = simulator.run(method)
    finally:
        tracer.close(span)
        tracer.op = None
    scale = (before + host_scale()) / 2
    layers.handoff_probe()
    return result, Op(key=key, wall=span.duration * scale, span=span)


class SimWorkload:
    """Shared plumbing of the two in-process simulation workloads."""

    def __init__(self, seed: int, outcome) -> None:
        self.seed = seed
        self.outcome = outcome

    def throughput(self, window) -> float:
        return window.minstr_per_s()

    def trace_view(self, window):
        """The traced ops and every span recorded in this process."""
        import layers

        return window.ops, layers.TRACER.spans

    def layer_extras(self, window) -> dict:
        return {}

    def teardown(self) -> None:
        pass
