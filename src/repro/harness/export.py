"""Machine-readable export of experiment results (CSV / JSON).

The plain-text formatters in :mod:`repro.harness.reporting` target
humans; these exporters feed downstream tooling (plotting, regression
tracking of the reproduction itself).
"""

from __future__ import annotations

import csv
import io
import json

from .experiment import WorkloadExperiment
from .reporting import audit_rows, audit_summary, compaction_stats


def matrix_rows(matrix: dict[str, WorkloadExperiment]) -> list[dict]:
    """Flatten a (workload x method) grid into one dict per cell."""
    rows: list[dict] = []
    for workload_name, experiment in matrix.items():
        for method_name, outcome in experiment.outcomes.items():
            run = outcome.run
            snapshot = run.extra.get("telemetry")
            phases = snapshot.phase_seconds if snapshot is not None else {}
            log_stats = (
                compaction_stats(snapshot)
                if snapshot is not None
                and "log.stored_records" in snapshot.counters
                else {}
            )
            # A cell snapshot audits exactly one (workload, method), so
            # its summary has at most one aggregate row.
            audit_summaries = (
                audit_summary(snapshot) if snapshot is not None else []
            )
            audit_stats = audit_summaries[0] if audit_summaries else {}
            rows.append({
                "workload": workload_name,
                "method": method_name,
                "true_ipc": experiment.true_ipc,
                "estimated_ipc": run.estimate.mean,
                "harmonic_ipc": run.extra.get("harmonic_mean_ipc"),
                "std_error": run.estimate.std_error,
                "relative_error": outcome.relative_error,
                "ci_pass": outcome.passes_confidence,
                "num_clusters": run.regimen.num_clusters,
                "cluster_size": run.regimen.cluster_size,
                # Two-phase pipeline provenance: False/1 for the serial
                # walk, so the column set is stable either way.
                "sharded": bool(run.extra.get("sharded", False)),
                "cluster_jobs": run.extra.get("cluster_jobs", 1),
                "functional_instructions":
                    run.cost.functional_instructions,
                "hot_instructions": run.cost.hot_instructions,
                "log_records": run.cost.log_records,
                "cache_updates": run.cost.cache_updates,
                "predictor_updates": run.cost.predictor_updates,
                "work_units": run.cost.work_units(),
                "wall_seconds": run.wall_seconds,
                # Telemetry phase split (None for untraced runs, so the
                # column set is stable whether or not tracing was on).
                "cold_skip_seconds": phases.get("cold_skip"),
                "reconstruct_seconds": phases.get("reconstruct"),
                "hot_sim_seconds": phases.get("hot_sim"),
                "trace_records":
                    len(snapshot.trace_records)
                    if snapshot is not None else None,
                # Skip-log retention (None for untraced runs, same
                # stable-column rationale as the phase split above).
                "log_raw_records": log_stats.get("raw_records"),
                "log_stored_records": log_stats.get("stored_records"),
                "log_stored_bytes": log_stats.get("stored_bytes"),
                "log_dedup_ratio": log_stats.get("dedup_ratio"),
                # Accuracy audit aggregates (None unless REPRO_AUDIT was
                # on for the run, same stable-column rationale).
                "audit_clusters": audit_stats.get("clusters"),
                "audit_cold_start_bias":
                    audit_stats.get("cold_start_bias"),
                "audit_sampling_bias": audit_stats.get("sampling_bias"),
                "audit_l1d_tag_agreement":
                    audit_stats.get("mean_l1d_tag_agreement"),
                "audit_pht_counter_agreement":
                    audit_stats.get("mean_pht_counter_agreement"),
            })
    return rows


def matrix_to_csv(matrix: dict[str, WorkloadExperiment]) -> str:
    """Render a grid as CSV text (header + one row per cell)."""
    rows = matrix_rows(matrix)
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def matrix_to_json(matrix: dict[str, WorkloadExperiment],
                   indent: int = 2) -> str:
    """Render a grid as a JSON array of cell objects."""
    return json.dumps(matrix_rows(matrix), indent=indent)


def audit_to_json(snapshot, indent: int = 2) -> str:
    """Render a snapshot's audit records as canonical JSON text.

    The payload — per-(workload, method) summaries plus the per-cluster
    rows in :data:`~.reporting.AUDIT_COLUMNS` order — contains only
    deterministic quantities (no timing, no log-representation fields)
    and is serialised with sorted keys, so two runs that reconstruct
    identical state produce byte-identical text.  That is the form in
    which the raw==compacted and serial==parallel equivalence claims
    are asserted by the test suite.
    """
    payload = {
        "schema": "repro-audit-v1",
        "summary": audit_summary(snapshot),
        "clusters": audit_rows(snapshot),
    }
    return json.dumps(payload, indent=indent, sort_keys=True)


def save_audit(snapshot, path) -> None:
    """Write a snapshot's audit report to `path` as JSON."""
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(audit_to_json(snapshot) + "\n")


def save_matrix(matrix: dict[str, WorkloadExperiment], path) -> None:
    """Write a grid to `path`; format chosen by extension (.csv/.json)."""
    path_text = str(path)
    if path_text.endswith(".csv"):
        payload = matrix_to_csv(matrix)
    elif path_text.endswith(".json"):
        payload = matrix_to_json(matrix)
    else:
        raise ValueError("path must end with .csv or .json")
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(payload)
