"""Table 2: the sixteen warm-up configurations under evaluation.

Regenerates the method matrix (names, what each warms, its parameters)
and smoke-times one representative configuration end to end.
"""

from conftest import emit
from repro.harness import format_table
from repro.sampling import SampledSimulator
from repro.warmup import paper_method_suite, resolve_method
from repro.workloads import build_workload


def test_table2_method_matrix(benchmark, scale):
    workload = build_workload("ammp")

    def one_sampled_run():
        simulator = SampledSimulator(
            workload, scale.regimen(), scale.configs(),
            warmup_prefix=scale.warmup_prefix,
        )
        return simulator.run(resolve_method("R$BP (20%)"))

    result = benchmark.pedantic(one_sampled_run, rounds=1, iterations=1)
    assert len(result.cluster_ipcs) == scale.num_clusters

    rows = []
    for method in paper_method_suite():
        fraction = getattr(method, "fraction", None)
        rows.append([
            method.name,
            "yes" if method.warms_cache else "no",
            "yes" if method.warms_predictor else "no",
            type(method).__name__,
            f"{fraction:.0%}" if fraction is not None else "-",
        ])
    text = format_table(
        ["name", "warms cache", "warms BP", "class", "fraction"],
        rows,
        title="Table 2: warm-up method experiments",
    )
    emit("table2_methods", text)
    assert len(rows) == 16
