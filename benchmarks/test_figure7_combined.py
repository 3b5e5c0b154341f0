"""Figure 7: cache and branch-predictor warm-up combined.

The paper's headline figure: average relative error and simulation cost
for no warm-up, fixed-period warm-up at 20/40/80%, SMARTS (S$BP), and
Reverse State Reconstruction at 20/40/80/100%.  Expected shape:

- no warm-up: lowest cost, highest error (paper ~23%);
- SMARTS: lowest error, highest cost;
- R$BP: SMARTS-like error as the fraction grows, at reduced cost
  (paper speedups 1.64 / 1.51 / 1.25 at 20 / 40 / 80%).
"""

from conftest import emit
from repro.harness import (
    average_over_workloads,
    format_method_summary,
    format_per_workload,
    format_speedups,
)
from repro.sampling import SampledSimulator
from repro.warmup import resolve_method
from repro.workloads import build_workload

METHODS = [
    "None", "FP (20%)", "FP (40%)", "FP (80%)", "S$BP",
    "R$BP (20%)", "R$BP (40%)", "R$BP (80%)", "R$BP (100%)",
]


def test_figure7_combined(benchmark, scale, matrix):
    def representative_run():
        simulator = SampledSimulator(
            build_workload("twolf"), scale.regimen(), scale.configs(),
            warmup_prefix=scale.warmup_prefix,
        )
        return simulator.run(resolve_method("R$BP (20%)"))

    benchmark.pedantic(representative_run, rounds=1, iterations=1)

    summary = format_method_summary(
        matrix, METHODS,
        "Figure 7: cache + branch-predictor warm-up (averages)",
    )
    grid = format_per_workload(
        matrix, METHODS, value="error",
        title="Figure 7: relative error per workload",
    )
    speedups = format_speedups(
        matrix, "R$BP (20%)",
        title="Figure 7: R$BP (20%) speedup over S$BP",
    )
    emit("figure7_combined", "\n\n".join([summary, grid, speedups]))

    none_error, none_work, _ = average_over_workloads(matrix, "None")
    smarts_error, smarts_work, _ = average_over_workloads(matrix, "S$BP")

    # No warm-up: least overhead, highest error.
    for name in METHODS:
        if name == "None":
            continue
        _error, work, _wall = average_over_workloads(matrix, name)
        assert none_work < work, name
    assert none_error > smarts_error
    assert none_error > 0.10  # substantial non-sampling bias exists

    # SMARTS is the accuracy reference; RSR converges to it.
    r100_error, r100_work, _ = average_over_workloads(matrix, "R$BP (100%)")
    assert abs(r100_error - smarts_error) < 0.04

    # Every RSR fraction is cheaper than SMARTS (the paper's speedup),
    # with cost increasing in the fraction.
    previous_work = 0.0
    for name in ("R$BP (20%)", "R$BP (40%)", "R$BP (80%)", "R$BP (100%)"):
        _error, work, _wall = average_over_workloads(matrix, name)
        assert work < smarts_work, name
        assert work >= previous_work * 0.98, name  # non-decreasing cost
        previous_work = work

    # Accuracy improves (or holds) as more of the log is consumed.
    r20_error, _w, _t = average_over_workloads(matrix, "R$BP (20%)")
    assert r100_error <= r20_error + 0.02
