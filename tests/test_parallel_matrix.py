"""Tests for the parallel experiment engine (harness/parallel.py).

The load-bearing property is serial/parallel equivalence: the engine
must reassemble exactly the grid the serial ``run_matrix`` produces —
same regimen seed, same cluster IPCs, bit-identical estimates — whether
cells ran in a process pool, in-process (``jobs=1``), or through one of
the graceful fallbacks (unpicklable factory, pool unavailable).
"""

from __future__ import annotations

import pytest

from repro.harness import (
    SCALES,
    ResultCache,
    execute_matrix,
    run_matrix,
)
from repro.harness import executor as executor_module
from repro.harness.parallel import CellProgress
from repro.warmup import resolve_method

CI = SCALES["ci"]
WORKLOADS = ("ammp", "gcc")
METHOD_NAMES = ("None", "S$BP", "R$BP (20%)")


def small_suite():
    """A picklable module-level factory covering all three method families."""
    return [resolve_method(name) for name in METHOD_NAMES]


def assert_grids_identical(expected, actual):
    assert list(expected) == list(actual)
    for workload_name in expected:
        left = expected[workload_name]
        right = actual[workload_name]
        assert left.true_run == right.true_run
        assert list(left.outcomes) == list(right.outcomes)
        for method_name in left.outcomes:
            a = left.outcomes[method_name]
            b = right.outcomes[method_name]
            assert a.run.cluster_ipcs == b.run.cluster_ipcs
            assert a.run.estimate == b.run.estimate
            assert a.run.regimen == b.run.regimen
            assert a.true_ipc == b.true_ipc
            assert a.relative_error == b.relative_error
            assert a.passes_confidence == b.passes_confidence
            assert a.work_units == b.work_units


@pytest.fixture(scope="module")
def serial_grid():
    return run_matrix(small_suite, workload_names=WORKLOADS, scale=CI)


class TestEquivalence:
    def test_pool_matches_serial(self, serial_grid):
        parallel_grid = execute_matrix(
            small_suite, workload_names=WORKLOADS, scale=CI, jobs=2,
        )
        assert_grids_identical(serial_grid, parallel_grid)

    def test_jobs_1_runs_in_process_and_matches(self, serial_grid,
                                                monkeypatch):
        def no_pool(*args, **kwargs):  # jobs=1 must never build a pool
            raise AssertionError("ProcessPoolExecutor used with jobs=1")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", no_pool)
        grid = execute_matrix(
            small_suite, workload_names=WORKLOADS, scale=CI, jobs=1,
        )
        assert_grids_identical(serial_grid, grid)

    def test_unpicklable_factory_falls_back_to_serial(self, serial_grid):
        factory = lambda: small_suite()  # noqa: E731 — deliberately unpicklable
        grid = execute_matrix(
            factory, workload_names=WORKLOADS, scale=CI, jobs=2,
        )
        assert_grids_identical(serial_grid, grid)

    def test_pool_unavailable_falls_back_to_serial(self, serial_grid,
                                                   monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no process pools on this platform")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor",
                            broken_pool)
        grid = execute_matrix(
            small_suite, workload_names=WORKLOADS, scale=CI, jobs=4,
        )
        assert_grids_identical(serial_grid, grid)


class TestProgress:
    def test_progress_events_cover_every_task(self):
        events: list[CellProgress] = []
        execute_matrix(
            small_suite, workload_names=WORKLOADS, scale=CI, jobs=1,
            progress=events.append,
        )
        total = len(WORKLOADS) * (1 + len(METHOD_NAMES))
        assert len(events) == total
        assert [event.completed for event in events] == \
            list(range(1, total + 1))
        assert all(event.total == total for event in events)
        assert sum(event.kind == "true" for event in events) == len(WORKLOADS)
        cell_events = [event for event in events if event.kind == "cell"]
        assert {event.method_name for event in cell_events} == \
            set(METHOD_NAMES)
        assert all(event.cost is not None for event in cell_events)
        assert not any(event.cached for event in events)
        assert all("x" in event.describe() for event in cell_events)

    def test_cached_events_flagged(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        execute_matrix(
            small_suite, workload_names=("ammp",), scale=CI, jobs=1,
            cache=cache,
        )
        events: list[CellProgress] = []
        execute_matrix(
            small_suite, workload_names=("ammp",), scale=CI, jobs=1,
            cache=cache, progress=events.append,
        )
        assert events and all(event.cached for event in events)
        assert all(event.wall_seconds == 0.0 for event in events)
        assert all("cache" in event.describe() for event in events)


class TestCachedExecution:
    def test_second_run_is_pure_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = execute_matrix(
            small_suite, workload_names=("ammp",), scale=CI, jobs=1,
            cache=cache,
        )
        tasks = 1 + len(METHOD_NAMES)
        assert cache.stats.misses == tasks
        assert cache.stats.writes == tasks
        warm = execute_matrix(
            small_suite, workload_names=("ammp",), scale=CI, jobs=1,
            cache=cache,
        )
        assert cache.stats.hits == tasks
        assert_grids_identical(cold, warm)

    def test_scale_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        execute_matrix(
            small_suite, workload_names=("ammp",), scale=CI, jobs=1,
            cache=cache,
        )
        other = SCALES["ci"].__class__(
            "ci-reseeded", CI.total_instructions, CI.num_clusters,
            CI.cluster_size, seed=CI.seed + 1,
            warmup_prefix=CI.warmup_prefix,
        )
        hits_before = cache.stats.hits
        execute_matrix(
            small_suite, workload_names=("ammp",), scale=other, jobs=1,
            cache=cache,
        )
        assert cache.stats.hits == hits_before  # every key differs
