"""The repository's standing benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rsr-vs-smarts --seed 1 \
        --seconds 15 --trace 0

Workloads: ``rsr-vs-smarts``, ``core-sweep``, ``service-mix`` (see
``perfbench/README.md``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  The traced run measures an untraced window first, then
the same window traced, and reports the difference as tracing overhead.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

from common import (  # noqa: E402
    Outcome, clear_repro_env, import_seconds, peak_rss_mb, remove_scratch,
    write_spans,
)
from report import (  # noqa: E402
    END_TO_END, PER_LAYER, cost_metrics, layer_metrics,
)
from stats import share  # noqa: E402

WORKLOADS = ("rsr-vs-smarts", "core-sweep", "service-mix")


def _workload(name: str, seed: int, outcome):
    if name == "rsr-vs-smarts":
        from wl_rsr import RsrVsSmarts

        return RsrVsSmarts(seed, outcome)
    if name == "core-sweep":
        from wl_sweep import CoreSweep

        return CoreSweep(seed, outcome)
    from wl_service import ServiceMix

    return ServiceMix(seed, outcome)


def end_to_end(workload, seconds: float) -> dict:
    workload.setup()
    setup_s = time.perf_counter() - STARTED
    window = workload.measure(seconds, traced=False)
    metrics = {"setup_s": setup_s, **workload.headline(window)}
    # Stop (and wait for) the service and any workers first: getrusage
    # only counts children that have been waited for.
    workload.teardown()
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def per_layer(workload, seconds: float, trace_name: str) -> dict:
    import layers

    layers.install()
    try:
        workload.setup()
    finally:
        layers.uninstall()
    plain = workload.measure(seconds, traced=False)
    layers.install()
    try:
        traced = workload.measure(seconds, traced=True)
    finally:
        layers.uninstall()
    ops, spans = workload.trace_view(traced)
    write_spans(spans, trace_name)
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update(layer_metrics(ops, spans))
    metrics.update(cost_metrics(workload.costs()))
    metrics.update(workload.layer_extras(traced))
    metrics["setup.import_s"] = import_seconds()
    plain_rate = workload.throughput(plain)
    traced_rate = workload.throughput(traced)
    metrics["trace.overhead_pct"] = share(plain_rate - traced_rate,
                                          plain_rate) * 100.0
    metrics["trace.minstr_per_s_delta"] = traced_rate - plain_rate
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    clear_repro_env()

    outcome = Outcome()
    workload = _workload(args.workload, args.seed, outcome)
    try:
        if args.trace:
            values = per_layer(workload, args.seconds,
                               f"{args.workload}-seed{args.seed}")
            units = dict(PER_LAYER)
        else:
            values = end_to_end(workload, args.seconds)
            units = dict(END_TO_END)
    finally:
        workload.teardown()
        remove_scratch()
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {set(values) ^ set(units)}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(values[name]),
                           "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
