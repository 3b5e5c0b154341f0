"""End-to-end tests of the Reverse State Reconstruction warm-up method."""

import pytest

from repro.branch import BranchPredictor, PredictorConfig
from repro.cache import MemoryHierarchy, paper_hierarchy_config
from repro.core import (
    CompactedSkipRegionLog,
    ReconstructionSource,
    ReverseStateReconstruction,
    SkipRegionLog,
)
from repro.warmup import SimulationContext, SmartsWarmup
from repro.workloads import build_workload


def make_context(workload_name="twolf"):
    workload = build_workload(workload_name)
    return SimulationContext(
        machine=workload.make_machine(),
        hierarchy=MemoryHierarchy(paper_hierarchy_config(scale=16)),
        predictor=BranchPredictor(PredictorConfig(1024, 256, 8)),
    )


class TestConstruction:
    def test_names(self):
        assert ReverseStateReconstruction(0.2).name == "R$BP (20%)"
        assert ReverseStateReconstruction(1.0).name == "R$BP (100%)"
        assert ReverseStateReconstruction(
            0.4, warm_predictor=False).name == "R$ (40%)"
        assert ReverseStateReconstruction(
            warm_cache=False).name == "RBP"

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            ReverseStateReconstruction(0.0)
        with pytest.raises(ValueError):
            ReverseStateReconstruction(1.2)
        with pytest.raises(ValueError):
            ReverseStateReconstruction(0.5, warm_cache=False,
                                       warm_predictor=False)

    @pytest.mark.parametrize("kind", ["raw", "compacted", "auto"])
    def test_source_kind_strings_rejected(self, kind):
        """The log is chosen by factory, never by a string kind."""
        with pytest.raises(TypeError, match="factory"):
            ReverseStateReconstruction(source=kind)

    def test_source_factory_selects_the_log(self):
        context = make_context()
        default = ReverseStateReconstruction()
        default.bind(context)
        assert isinstance(default.log, CompactedSkipRegionLog)
        raw = ReverseStateReconstruction(source=SkipRegionLog)
        raw.bind(make_context())
        assert isinstance(raw.log, SkipRegionLog)
        # The factory-built log reports to the run's telemetry session.
        assert raw.log.telemetry is raw.telemetry

    def test_array_queries_are_required(self):
        """The reverse scans read only the bulk queries; a source that
        lacks them fails loudly instead of falling back."""
        with pytest.raises(NotImplementedError):
            ReconstructionSource().memory_reverse_arrays(1.0)
        with pytest.raises(NotImplementedError):
            ReconstructionSource().btb_claims_arrays(1.0)


class TestSkipAndLogging:
    def test_skip_logs_without_touching_state(self):
        context = make_context()
        method = ReverseStateReconstruction(0.2)
        method.bind(context)
        method.skip(4000)
        # Paper: "During logging, the state of the cache is left stale" —
        # no cache or predictor updates until pre_cluster.
        assert context.hierarchy.total_updates() == 0
        assert context.predictor.total_updates() == 0
        assert method.cost.log_records > 0
        assert method.log.record_count() == method.cost.log_records

    def test_cache_only_logs_no_branches(self):
        context = make_context()
        method = ReverseStateReconstruction(0.2, warm_predictor=False)
        method.bind(context)
        method.skip(2000)
        assert method.log.branch_record_count() == 0
        assert method.log.memory_record_count() > 0

    def test_bp_only_logs_no_memory(self):
        context = make_context()
        method = ReverseStateReconstruction(warm_cache=False)
        method.bind(context)
        method.skip(2000)
        assert method.log.memory_record_count() == 0
        assert method.log.branch_record_count() > 0


class TestPreAndPostCluster:
    def test_pre_cluster_reconstructs_caches(self):
        context = make_context()
        method = ReverseStateReconstruction(1.0)
        method.bind(context)
        method.skip(4000)
        method.pre_cluster()
        assert method.cost.cache_updates > 0
        assert context.hierarchy.l1d.contents()  # state repaired

    def test_pre_cluster_returns_hook_for_bp(self):
        context = make_context()
        method = ReverseStateReconstruction(1.0)
        method.bind(context)
        method.skip(2000)
        hook = method.pre_cluster()
        assert callable(hook)

    def test_cache_only_has_no_hook(self):
        context = make_context()
        method = ReverseStateReconstruction(1.0, warm_predictor=False)
        method.bind(context)
        method.skip(2000)
        assert method.pre_cluster() is None

    def test_eager_mode_drains_before_cluster(self):
        context = make_context()
        method = ReverseStateReconstruction(1.0, on_demand=False)
        method.bind(context)
        method.skip(2000)
        hook = method.pre_cluster()
        assert hook is None
        assert method._branch_reconstructor._cursor < 0  # fully drained

    def test_post_cluster_discards_log(self):
        # Paper: "data are kept only for the current cluster of execution".
        context = make_context()
        method = ReverseStateReconstruction(0.2)
        method.bind(context)
        method.skip(2000)
        method.pre_cluster()
        method.post_cluster()
        assert method.log.record_count() == 0

    def test_cache_stats_history_recorded(self):
        context = make_context()
        method = ReverseStateReconstruction(1.0)
        method.bind(context)
        for _ in range(3):
            method.skip(1000)
            method.pre_cluster()
            method.post_cluster()
        assert len(method.cache_stats_history) == 3
        assert all(s.scanned >= s.applied for s in method.cache_stats_history)


class TestAccuracyAgainstSmarts:
    def test_full_fraction_l1d_matches_smarts_loads(self):
        """With a 100% log the reconstructed L1/L2 must closely match the
        SMARTS-warmed caches (exact for allocate-on-reference streams; the
        deliberate WTNA write-allocation makes reconstruction a superset)."""
        rsr_context = make_context("vpr")
        rsr = ReverseStateReconstruction(1.0)
        rsr.bind(rsr_context)
        rsr.skip(8000)
        rsr.pre_cluster()

        smarts_context = make_context("vpr")
        smarts = SmartsWarmup()
        smarts.bind(smarts_context)
        smarts.skip(8000)

        rsr_lines = rsr_context.hierarchy.l1d.contents()
        smarts_lines = smarts_context.hierarchy.l1d.contents()
        union = rsr_lines | smarts_lines
        overlap = len(rsr_lines & smarts_lines) / len(union)
        assert overlap > 0.85

    def test_reconstruction_update_count_far_below_smarts(self):
        rsr_context = make_context("vpr")
        rsr = ReverseStateReconstruction(0.2)
        rsr.bind(rsr_context)
        rsr.skip(8000)
        rsr.pre_cluster()

        smarts_context = make_context("vpr")
        smarts = SmartsWarmup()
        smarts.bind(smarts_context)
        smarts.skip(8000)

        assert rsr.cost.cache_updates < smarts.cost.cache_updates / 3

    def test_ghr_matches_smarts(self):
        rsr_context = make_context("gcc")
        rsr = ReverseStateReconstruction(1.0)
        rsr.bind(rsr_context)
        rsr.skip(5000)
        rsr.pre_cluster()

        smarts_context = make_context("gcc")
        smarts = SmartsWarmup()
        smarts.bind(smarts_context)
        smarts.skip(5000)

        assert rsr_context.predictor.pht.history == \
            smarts_context.predictor.pht.history

    def test_load_only_stream_reconstructs_l1d_exactly(self):
        """For a pure-load workload, the full-log reverse reconstruction
        must reproduce the SMARTS-warmed L1D bit-exactly (the property
        test's guarantee, demonstrated end-to-end through the method)."""
        from repro.functional import Memory
        from repro.isa import ProgramBuilder
        from repro.workloads import Workload
        import numpy as np
        from repro.workloads import init_pointer_chain

        builder = ProgramBuilder()
        builder.jmp("main")
        builder.label("chase")
        builder.load(1, 1, 0)
        builder.addi(2, 2, -1)
        builder.bne(2, 0, "chase")
        builder.ret()
        builder.label("main")
        memory = Memory()
        head = init_pointer_chain(memory, 0x1000_0000, 4096,
                                  np.random.default_rng(3))
        builder.li(1, head)
        builder.label("loop")
        builder.li(2, 256)
        builder.call("chase")
        builder.jmp("loop")
        builder.entry("main")
        workload = Workload("loads-only", builder.build(), memory)

        def run(method):
            ctx = SimulationContext(
                machine=workload.make_machine(),
                hierarchy=MemoryHierarchy(paper_hierarchy_config(scale=32)),
                predictor=BranchPredictor(PredictorConfig(1024, 256, 8)),
            )
            method.bind(ctx)
            method.skip(20_000)
            method.pre_cluster()
            return ctx.hierarchy

        rsr_hierarchy = run(ReverseStateReconstruction(1.0))
        smarts_hierarchy = run(SmartsWarmup())
        assert rsr_hierarchy.l1d.state_fingerprint() == \
            smarts_hierarchy.l1d.state_fingerprint()

    def test_work_units_ordering(self):
        """None < RSR < SMARTS in total warm-up work."""
        from repro.warmup import NoWarmup
        results = {}
        for method in (NoWarmup(), ReverseStateReconstruction(0.2),
                       SmartsWarmup()):
            context = make_context("vpr")
            method.bind(context)
            method.skip(6000)
            method.pre_cluster()
            results[method.name] = method.cost.work_units()
        assert results["None"] < results["R$BP (20%)"] < results["S$BP"]
