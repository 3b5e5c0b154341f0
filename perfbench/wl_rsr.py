"""`rsr-vs-smarts`: the paper's comparison, serial, at `bench` scale.

S$BP and R$BP (20%) alternate on gcc (branchy, large code footprint)
and mcf (pointer-chasing, cache-hostile).  Cold scan, logging and
reverse reconstruction do most of the work; pickling, the store, the
pool and the service do none.
"""

from __future__ import annotations

import repro.api
from repro.harness.experiment import SCALES
from repro.sampling import SampledSimulator, measure_true_ipc

from common import Window, op_latency, round_count, run_rounds
from inputs import RSR, SMARTS, rsr_cycles
from simops import (
    SimWorkload, fingerprint, population, run_once, timed_run, work_units,
)
from stats import median

DESIGN = "bench"
WORKLOADS = ("gcc", "mcf")
METHODS = (SMARTS, RSR)
#: One cycle (four runs) on a 2-CPU x86 sandbox.
NOMINAL_ROUND_S = 2.9


class RsrVsSmarts(SimWorkload):
    def setup(self) -> None:
        scale = self.scale = SCALES[DESIGN]
        configs = scale.configs()
        self.true_ipc = {}
        self.simulators = {}
        self.sharded_ipc = {}
        for name in WORKLOADS:
            workload = repro.api.build_workload(name,
                                                mem_scale=scale.mem_scale)
            self.true_ipc[name] = measure_true_ipc(
                workload, scale.total_instructions, configs,
                warmup_prefix=scale.warmup_prefix).ipc
            self.simulators[name] = SampledSimulator(
                workload, scale.regimen(), configs,
                warmup_prefix=scale.warmup_prefix,
                detail_ramp=scale.detail_ramp, cluster_jobs=1)
            sharded = SampledSimulator(
                workload, scale.regimen(), configs,
                warmup_prefix=scale.warmup_prefix,
                detail_ramp=scale.detail_ramp, cluster_jobs=2)
            self.sharded_ipc[name] = run_once(sharded, RSR).estimate.mean
        # One discarded run per distinct input: its result is the
        # reference every timed repeat must reproduce.
        self.first = {}
        self._costs = {}
        self.estimate = {}
        for name in WORKLOADS:
            for method in METHODS:
                result = run_once(self.simulators[name], method)
                self.first[(name, method)] = fingerprint(result)
                self._costs[(name, method)] = (method,
                                              result.cost.as_dict())
                self.estimate[(name, method)] = result.estimate.mean

    def measure(self, seconds: float, traced: bool) -> Window:
        window = Window()

        def run_op(item):
            name, method = item
            result, op = timed_run(self.simulators[name], method, item,
                                   traced)
            op.instructions = population(result, self.scale)
            window.ops.append(op)
            self.outcome.record(
                fingerprint(result) == self.first[item],
                f"{name} {method}: cluster IPCs or WarmupCost differ "
                f"from its first run")

        count = round_count(seconds, NOMINAL_ROUND_S,
                            len(WORKLOADS) * len(METHODS))
        run_rounds(rsr_cycles(self.seed, WORKLOADS), count, run_op)
        return window

    def headline(self, window: Window) -> dict:
        wall = []
        work = []
        error = []
        deviation = []
        for name in WORKLOADS:
            wall.append(median(window.walls((name, SMARTS)))
                        / median(window.walls((name, RSR))))
            work.append(work_units(self._costs[(name, SMARTS)][1])
                        / work_units(self._costs[(name, RSR)][1]))
            true = self.true_ipc[name]
            serial = self.estimate[(name, RSR)]
            error.append(abs(serial - true) / true * 100.0)
            deviation.append(abs(self.sharded_ipc[name] - serial)
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
        return self._costs
