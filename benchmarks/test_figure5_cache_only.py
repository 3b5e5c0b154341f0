"""Figure 5: cache warm-up only.

Relative error and simulation cost for the reverse cache reconstruction
at 20/40/80/100% of the logged stream versus SMARTS cache warming (S$).
Expected shape: R$ accuracy approaches S$ as the fraction grows, at a
fraction of the cache updates; diminishing returns beyond the point where
the log tail covers the cache capacity.
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

METHODS = ["R$ (20%)", "R$ (40%)", "R$ (80%)", "R$ (100%)", "S$"]


def test_figure5_cache_only(benchmark, scale, matrix):
    def representative_run():
        simulator = SampledSimulator(
            build_workload("vpr"), scale.regimen(), scale.configs(),
            warmup_prefix=scale.warmup_prefix,
        )
        return simulator.run(resolve_method("R$ (20%)"))

    benchmark.pedantic(representative_run, rounds=1, iterations=1)

    summary = format_method_summary(
        matrix, METHODS, "Figure 5: cache warm-up only (averages)",
    )
    grid = format_per_workload(
        matrix, METHODS, value="error",
        title="Figure 5: relative error per workload",
    )
    speedups = format_speedups(
        matrix, "R$ (20%)", baseline="S$",
        title="Figure 5: R$ (20%) speedup over S$ (cache warm-up only)",
    )
    emit("figure5_cache_only", "\n\n".join([summary, grid, speedups]))

    # Shape assertions.
    smarts_error, smarts_work, _ = average_over_workloads(matrix, "S$")
    r100_error, r100_work, _ = average_over_workloads(matrix, "R$ (100%)")
    r20_error, r20_work, _ = average_over_workloads(matrix, "R$ (20%)")

    # Full-log reverse reconstruction matches SMARTS cache accuracy.
    assert abs(r100_error - smarts_error) < 0.05
    # Every reverse variant costs less than SMARTS on the work metric.
    for name in ("R$ (20%)", "R$ (40%)", "R$ (80%)", "R$ (100%)"):
        _error, work, _wall = average_over_workloads(matrix, name)
        assert work < smarts_work, name
    # The update savings are dramatic (paper: most of the skip region is
    # ineffectual).
    smarts_updates = sum(
        e.outcomes["S$"].run.cost.cache_updates for e in matrix.values()
    )
    r20_updates = sum(
        e.outcomes["R$ (20%)"].run.cost.cache_updates
        for e in matrix.values()
    )
    assert r20_updates < smarts_updates / 5
