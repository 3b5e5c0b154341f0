"""Perf bench: the vectorized core versus the scalar oracles.

Runs R$BP on the production core (span interpreter + vectorized reverse
reconstruction) and under ``tests.oracles.oracle_core`` (the per-step
`step()` loop and per-reference reverse scans) across the
full equivalence matrix — all nine paper workloads x {raw, compacted}
skip-log sources x {serial, cluster-sharded} topologies — and records
``BENCH_pr6.json`` at the repo root for the trajectory gate.

Equivalence booleans (asserted, and gated in ``benchmarks/TRAJECTORY.json``
— they must never flip): per-cluster IPCs, the full WarmupCost ledger,
the IPC estimate, and the telemetry event counters (which subsume the
gap-log record counts and the reconstruction scan/apply/skip accounting)
are bit-identical between the two modes in every cell.

Headline speedup (asserted): the phases the oracle swap actually
replaces — the cold functional simulation of skip regions (``cold_skip``,
plus the functional ``prefix``) and reverse reconstruction
(``reconstruct``) — run >= 2x faster batched than scalar, aggregated
over the whole matrix at the bench tier.  The detailed hot-simulation
phase (``hot_sim``) is reported alongside but not part of the gated
aggregate: its speedups from this PR (predecoded program columns and
array-backed cache stores) are structural and present in both modes, so
a same-build A/B cannot expose them.  Whole-run wall-clock speedup is
recorded as an informational metric.
"""

from __future__ import annotations

import contextlib
import json
import pathlib

from conftest import emit
from repro.core import ReverseStateReconstruction, SkipRegionLog
from repro.harness import format_table
from repro.sampling import SampledSimulator
from repro.telemetry import Telemetry
from repro.workloads import PAPER_WORKLOADS, build_workload
from tests.oracles import oracle_core

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_pr6.json"
#: Skip-log source factories by name (None: the production compacted log).
SOURCES = {"raw": SkipRegionLog, "compacted": None}
TOPOLOGIES = (("serial", None), ("sharded", 2))
#: Phases whose engine the oracle swap replaces.
GATED_PHASES = ("cold_skip", "prefix", "reconstruct")


def _run_cell(simulator, source: str, batched: bool) -> dict:
    with contextlib.nullcontext() if batched else oracle_core():
        result = simulator.run(
            ReverseStateReconstruction(fraction=1.0, source=SOURCES[source])
        )
    snapshot = result.extra["telemetry"]
    phases = dict(snapshot.phase_seconds)
    return {
        "mode": "batched" if batched else "scalar",
        "source": source,
        "estimate": result.estimate.mean,
        "cluster_ipcs": result.cluster_ipcs,
        "cost": result.cost.as_dict(),
        "counters": dict(snapshot.counters),
        "phase_seconds": phases,
        "gated_seconds": sum(phases.get(name, 0.0)
                             for name in GATED_PHASES),
        "hot_sim_seconds": phases.get("hot_sim", 0.0),
        "wall_seconds": result.wall_seconds,
    }


def test_perf_vectorized_core(benchmark, scale):
    cells = []
    rows = []
    equivalence = {
        "identical_cluster_ipcs": True,
        "identical_costs": True,
        "identical_estimates": True,
        "identical_telemetry_counters": True,
    }
    for workload_name in PAPER_WORKLOADS:
        workload = build_workload(workload_name, mem_scale=scale.mem_scale)
        for topology, cluster_jobs in TOPOLOGIES:
            simulator = SampledSimulator(
                workload, scale.regimen(), scale.configs(),
                warmup_prefix=scale.warmup_prefix,
                detail_ramp=scale.detail_ramp,
                telemetry=Telemetry,
                cluster_jobs=cluster_jobs,
            )
            for source in SOURCES:
                scalar = _run_cell(simulator, source, batched=False)
                batched = _run_cell(simulator, source, batched=True)
                label = f"{workload_name}/{source}/{topology}"
                checks = (
                    ("identical_cluster_ipcs", "cluster_ipcs"),
                    ("identical_costs", "cost"),
                    ("identical_estimates", "estimate"),
                    ("identical_telemetry_counters", "counters"),
                )
                for flag, key in checks:
                    if scalar[key] != batched[key]:
                        equivalence[flag] = False
                    assert scalar[key] == batched[key], (
                        f"{label}: {key} diverges between scalar and "
                        f"batched cores"
                    )
                for cell in (scalar, batched):
                    cells.append({
                        "workload": workload_name,
                        "topology": topology,
                        **{key: value for key, value in cell.items()
                           if key not in ("cluster_ipcs", "counters")},
                    })
                if topology == "serial":
                    rows.append([
                        workload_name, source,
                        f"{scalar['gated_seconds']:.3f}s",
                        f"{batched['gated_seconds']:.3f}s",
                        f"{scalar['gated_seconds'] / batched['gated_seconds']:.2f}x",
                        f"{scalar['hot_sim_seconds']:.3f}s",
                        f"{scalar['wall_seconds'] / batched['wall_seconds']:.2f}x",
                    ])

    def aggregate(key: str, mode: str) -> float:
        return sum(c[key] for c in cells if c["mode"] == mode)

    def speedup(key: str) -> float:
        batched_total = aggregate(key, "batched")
        return (aggregate(key, "scalar") / batched_total
                if batched_total else float("inf"))

    batch_phase_speedup = speedup("gated_seconds")
    wall_speedup = speedup("wall_seconds")
    simulation_seconds = {
        mode: sum(c["gated_seconds"] + c["hot_sim_seconds"]
                  for c in cells if c["mode"] == mode)
        for mode in ("scalar", "batched")
    }
    simulation_phase_speedup = (
        simulation_seconds["scalar"] / simulation_seconds["batched"]
        if simulation_seconds["batched"] else float("inf")
    )

    # The ci tier's tiny regions leave less straight-line span for the
    # batch interpreter to amortize over, so the smoke bar is lower; the
    # committed trajectory baseline comes from the bench tier.
    bar = 2.0 if scale.name == "bench" else 1.5
    assert batch_phase_speedup >= bar, (
        f"batch-gated phase speedup {batch_phase_speedup:.2f}x below the "
        f"{bar:.1f}x bar at the {scale.name} tier"
    )

    payload = {
        "bench": "vectorized_core",
        "scale": scale.name,
        "workloads": list(PAPER_WORKLOADS),
        "sources": list(SOURCES),
        "topologies": [name for name, _ in TOPOLOGIES],
        "gated_phases": list(GATED_PHASES),
        "summary": {
            **equivalence,
            "batch_phase_speedup": batch_phase_speedup,
            "simulation_phase_speedup": simulation_phase_speedup,
            "wall_speedup": wall_speedup,
        },
        "cells": [
            {key: value for key, value in cell.items() if key != "cost"}
            for cell in cells
        ],
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")

    def render():
        return format_table(
            ["workload", "source", "scalar gated", "batched gated",
             "gated speedup", "hot_sim", "wall speedup"],
            rows,
            title=f"Vectorized batch core ({scale.name} tier, serial "
                  f"rows): gated phases {batch_phase_speedup:.2f}x, "
                  f"wall {wall_speedup:.2f}x, all cells bit-identical",
        )

    text = benchmark.pedantic(render, rounds=3, iterations=1)
    emit("perf_vectorized_core", text)
