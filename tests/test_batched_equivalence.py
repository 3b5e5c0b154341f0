"""End-to-end equivalence: the production core vs the oracles in full runs.

Production runs the span interpreter and vectorized reverse scans; the
per-step interpreter and per-reference scans in `tests.oracles` are the
literal forms they must equal.  These tests run complete sampled
simulations both ways (`oracle_core` patches the oracles in) — raw and
compacted skip-log sources, serial and cluster-sharded topologies; the
sharded runs prove the patch reaches forked shard workers — and require
bit-identical per-cluster IPCs,
identical WarmupCost ledgers, identical IPC estimates, and identical
telemetry event counters (which subsume the gap-log record counts and
the reconstruction scan/apply/skip accounting).

The full nine-workload matrix runs in `benchmarks/test_perf_vectorized_core.py`;
this tier-1 subset keeps the guarantee under the fast test suite.
"""

from __future__ import annotations

import contextlib
import multiprocessing

import pytest

from repro.core import ReverseStateReconstruction, SkipRegionLog
from repro.harness import scale_from_env
from repro.sampling import SampledSimulator
from repro.telemetry import Telemetry
from repro.workloads import build_workload
from tests.oracles import oracle_core

WORKLOADS = ("gcc", "mcf")
#: Skip-log source factories by name (None: the production compacted log).
SOURCES = {"raw": SkipRegionLog, "compacted": None}
TOPOLOGIES = {"serial": None, "sharded": 2}


def _run(workload_name: str, source: str, cluster_jobs, batched: bool):
    scale = scale_from_env(default="ci")
    workload = build_workload(workload_name, mem_scale=scale.mem_scale)
    simulator = SampledSimulator(
        workload, scale.regimen(), scale.configs(),
        warmup_prefix=scale.warmup_prefix,
        detail_ramp=scale.detail_ramp,
        telemetry=Telemetry,
        cluster_jobs=cluster_jobs,
    )
    with contextlib.nullcontext() if batched else oracle_core():
        result = simulator.run(
            ReverseStateReconstruction(fraction=1.0, source=SOURCES[source])
        )
    snapshot = result.extra["telemetry"]
    return {
        "cluster_ipcs": result.cluster_ipcs,
        "cost": result.cost.as_dict(),
        "estimate": result.estimate.mean,
        "counters": dict(snapshot.counters),
    }


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_batched_run_is_bit_identical(workload_name, source, topology):
    cluster_jobs = TOPOLOGIES[topology]
    if cluster_jobs:
        # Shard workers see the oracle patch only when forked.
        assert multiprocessing.get_start_method() == "fork"
    scalar = _run(workload_name, source, cluster_jobs, batched=False)
    batched = _run(workload_name, source, cluster_jobs, batched=True)
    label = f"{workload_name}/{source}/{topology}"
    assert scalar["cluster_ipcs"] == batched["cluster_ipcs"], (
        f"{label}: per-cluster IPCs diverge between scalar and batched"
    )
    assert scalar["cost"] == batched["cost"], (
        f"{label}: WarmupCost ledger diverges between scalar and batched"
    )
    assert scalar["estimate"] == batched["estimate"], (
        f"{label}: IPC estimate diverges between scalar and batched"
    )
    assert scalar["counters"] == batched["counters"], (
        f"{label}: telemetry counters diverge between scalar and batched"
    )
