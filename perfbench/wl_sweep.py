"""`core-sweep`: store-backed sharded R$BP (20%) over core configs.

Every timed run is a checkpoint-store hit, so the cold scan is bypassed
and the time goes to shard hand-off, pool start, store reads and hot
simulation in two pool workers.  The skip log is serialized and shipped
here rather than consumed in place, so a log format that speeds in-place
reconstruction but bloats hand-off shows on this workload.

Each round also times one serial S$BP run per workload on the base core
for `rsr_wall_speedup`; those reference runs are checked like the rest
but kept out of the sweep's own metrics.
"""

from __future__ import annotations

import dataclasses
import os

import repro.api
from repro.harness.experiment import SCALES
from repro.sampling import SampledSimulator, measure_true_ipc
from repro.store.checkpoint import STORE_ENV_VAR
from repro.timing import CoreConfig

from common import (
    Window, op_latency, round_count, run_rounds, scratch_dir,
)
from inputs import CORE_VARIANTS, RSR, SMARTS, sweep_rounds
from simops import (
    SimWorkload, fingerprint, population, run_once, timed_run, work_units,
)
from stats import median

DESIGN = "bench"
WORKLOADS = ("gcc", "mcf")
CLUSTER_JOBS = 2
BASE = CORE_VARIANTS[0]
#: One round (six store-hit runs and two serial S$BP reference runs) on
#: a 2-CPU x86 sandbox.
NOMINAL_ROUND_S = 5.0


class CoreSweep(SimWorkload):
    def setup(self) -> None:
        scale = self.scale = SCALES[DESIGN]
        base = scale.configs()
        self.store = scratch_dir() / "store"
        self.simulators = {}
        self.reference = {}
        self.estimate = {}
        self.true_ipc = {}
        self.serial_ipc = {}
        self.serial = {}
        self.smarts = {}
        for name in WORKLOADS:
            workload = repro.api.build_workload(name,
                                                mem_scale=scale.mem_scale)
            self.true_ipc[name] = measure_true_ipc(
                workload, scale.total_instructions, base,
                warmup_prefix=scale.warmup_prefix).ipc
            serial = SampledSimulator(
                workload, scale.regimen(), base,
                warmup_prefix=scale.warmup_prefix,
                detail_ramp=scale.detail_ramp, cluster_jobs=1)
            self.serial_ipc[name] = run_once(serial, RSR).estimate.mean
            self.serial[name] = serial
            result = run_once(serial, SMARTS)
            self.smarts[name] = (fingerprint(result),
                                 result.cost.as_dict())
            for rob, width in CORE_VARIANTS:
                configs = dataclasses.replace(base, core=CoreConfig(
                    rob_entries=rob, issue_width=width))
                self.simulators[(name, (rob, width))] = SampledSimulator(
                    workload, scale.regimen(), configs,
                    warmup_prefix=scale.warmup_prefix,
                    detail_ramp=scale.detail_ramp,
                    cluster_jobs=CLUSTER_JOBS)
        # Reference runs scan live: the base config's primes the store
        # (a miss); the other configs run without a store, which is the
        # same cold scan.  One stored Phase A then serves every config.
        for (name, variant), simulator in self.simulators.items():
            if variant == BASE:
                os.environ[STORE_ENV_VAR] = str(self.store)
            else:
                os.environ.pop(STORE_ENV_VAR, None)
            result = run_once(simulator, RSR)
            expected = "miss" if variant == BASE else None
            self.outcome.setup_check(
                result.extra.get("checkpoint_store") == expected,
                f"{name} {variant}: reference run reported store "
                f"{result.extra.get('checkpoint_store')!r}")
            self.reference[(name, variant)] = fingerprint(result)
            self.estimate[(name, variant)] = result
        os.environ[STORE_ENV_VAR] = str(self.store)
        # One discarded store-hit run per distinct input.
        for key, simulator in self.simulators.items():
            result = run_once(simulator, RSR)
            self.outcome.setup_check(self._ok(key, result),
                                     f"{key}: warm-up run is not a valid "
                                     f"store hit")

    def _ok(self, key, result) -> bool:
        return (result.extra.get("checkpoint_store") == "hit"
                and fingerprint(result) == self.reference[key])

    def measure(self, seconds: float, traced: bool) -> Window:
        window = Window()

        def run_op(key):
            name, variant = key
            if variant == SMARTS:
                result, op = timed_run(self.serial[name], SMARTS, key,
                                       traced)
                window.reference.append(op)
                self.outcome.record(
                    fingerprint(result) == self.smarts[name][0],
                    f"{name} S$BP: cluster IPCs or WarmupCost differ "
                    f"from its first run")
                return
            result, op = timed_run(self.simulators[key], RSR, key, traced)
            op.instructions = population(result, self.scale)
            window.ops.append(op)
            self.outcome.record(
                self._ok(key, result),
                f"{key}: not a store hit, or cluster IPCs / WarmupCost "
                f"differ from the store-miss run of the same config")

        count = round_count(seconds, NOMINAL_ROUND_S,
                            len(self.simulators))
        run_rounds(sweep_rounds(self.seed, WORKLOADS), count, run_op)
        return window

    def headline(self, window: Window) -> dict:
        wall = []
        work = []
        error = []
        deviation = []
        for name in WORKLOADS:
            sharded = self.estimate[(name, BASE)]
            smarts_cost = self.smarts[name][1]
            smarts_walls = [op.wall for op in window.reference
                            if op.key == (name, SMARTS)]
            wall.append(median(smarts_walls)
                        / median(window.walls((name, BASE))))
            work.append(work_units(smarts_cost)
                        / work_units(sharded.cost.as_dict()))
            true = self.true_ipc[name]
            error.append(abs(sharded.estimate.mean - true) / true * 100.0)
            serial = self.serial_ipc[name]
            deviation.append(abs(sharded.estimate.mean - serial)
                             / serial * 100.0)
        count = len(WORKLOADS)
        return {
            **op_latency(window),
            "minstr_per_s": window.minstr_per_s(),
            "rsr_wall_speedup": sum(wall) / count,
            "rsr_work_speedup": sum(work) / count,
            "ipc_error_pct": sum(error) / count,
            "shard_ipc_dev_pct": sum(deviation) / count,
        }

    def costs(self) -> dict:
        """(method, WarmupCost) of one run per distinct input."""
        return {key: (RSR, result.cost.as_dict())
                for key, result in self.estimate.items()}

    def teardown(self) -> None:
        os.environ.pop(STORE_ENV_VAR, None)
