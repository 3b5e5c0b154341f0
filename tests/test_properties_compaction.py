"""Property tests: compacted-log reconstruction == raw reverse scan.

The online compaction engine (repro/core/compaction.py) claims that every
ReconstructionSource query answers bit-identically to a reverse scan of
the raw stream, for every tail fraction and both reconstruction modes.
These tests drive randomized gap streams through both sources via the
same hook calls and compare the *reconstructed state* — cache tags, LRU
order and dirty bits, GHR, BTB, RAS, and PHT counters — plus the raw
equality of the direct queries.
"""

import random
from dataclasses import replace

import pytest

from repro.branch import BranchPredictor, PredictorConfig
from repro.cache import MemoryHierarchy, paper_hierarchy_config
from repro.cache.config import WritePolicy
from repro.core import (
    CompactedSkipRegionLog,
    ReverseBranchReconstructor,
    ReverseCacheReconstructor,
    ReverseStateReconstruction,
    SkipRegionLog,
    default_table,
)
from repro.sampling import SampledSimulator, SamplingRegimen
from repro.workloads import build_workload

FRACTIONS = (1.0, 0.8, 0.5, 0.33, 0.2)

PHT_ENTRIES = 64
BTB_ENTRIES = 16
RAS_ENTRIES = 4
HISTORY_BITS = PredictorConfig(PHT_ENTRIES, BTB_ENTRIES,
                               RAS_ENTRIES).history_bits


class FakeInst:
    def __init__(self, kind):
        self.is_cond_branch = kind == "cond"
        self.is_call = kind == "call"
        self.is_ret = kind == "ret"


INSTS = {kind: FakeInst(kind) for kind in ("cond", "call", "ret", "jump")}


def make_pair():
    """A raw and a compacted log sized to the shared test geometry."""
    raw = SkipRegionLog()
    compacted = CompactedSkipRegionLog(
        line_bytes=64,
        pht_entries=PHT_ENTRIES,
        history_bits=HISTORY_BITS,
        max_history=default_table().max_history,
        index_pht=True,
        store_conditionals=True,
    )
    return raw, compacted


def feed_random_stream(logs, rng, memory_events=600, branch_events=600):
    """Drive identical randomized hook calls into every log in `logs`."""
    mem_hooks = [(log.make_mem_hook(), log.make_ifetch_hook())
                 for log in logs]
    branch_hooks = [log.make_branch_hook() for log in logs]
    # Small pools force heavy aliasing: repeated blocks, repeated branch
    # pcs mapping onto the same PHT/BTB entries.
    addresses = [0x1000 + 64 * rng.randrange(24) + rng.randrange(64)
                 for _ in range(memory_events)]
    for address in addresses:
        roll = rng.random()
        if roll < 0.3:
            for _mem, ifetch in mem_hooks:
                ifetch(address)
        else:
            is_store = roll < 0.6
            for mem, _ifetch in mem_hooks:
                mem(0, 0, address, is_store)
    depth = 0
    for _ in range(branch_events):
        roll = rng.random()
        if roll < 0.5:
            kind, taken = "cond", rng.random() < 0.5
        elif roll < 0.7:
            kind, taken = "call", True
        elif roll < 0.9:
            # Orphan returns (popping past every logged call) included.
            kind, taken = "ret", True
        else:
            kind, taken = "jump", rng.random() < 0.9
        if kind == "call":
            depth += 1
        elif kind == "ret":
            depth = max(0, depth - 1)
        pc = 0x4000 + rng.randrange(40)
        target = 0x8000 + rng.randrange(40)
        for hook in branch_hooks:
            hook(pc, target, INSTS[kind], taken)
    return logs


def cache_state(cache):
    """Fingerprint plus per-set (tag, dirty) pairs — the full visible state."""
    dirty = tuple(
        frozenset(
            (cache.tags[set_index][way], cache.dirty[set_index][way])
            for way in range(cache.associativity)
            if cache.tags[set_index][way] is not None
        )
        for set_index in range(cache.num_sets)
    )
    return cache.state_fingerprint(), dirty


def predictor_state(predictor):
    return (
        tuple(predictor.pht.counters),
        predictor.pht.history,
        tuple(predictor.pht.reconstructed),
        tuple(predictor.btb.tags),
        tuple(predictor.btb.targets),
        tuple(predictor.ras.contents_from_top()),
    )


class TestCacheEquivalence:
    @pytest.mark.parametrize("fraction", FRACTIONS)
    @pytest.mark.parametrize("l1d_policy", [WritePolicy.WTNA,
                                            WritePolicy.WBWA])
    def test_reconstructed_hierarchy_identical(self, fraction, l1d_policy):
        rng = random.Random(int(fraction * 100)
                            + (1000 if l1d_policy is WritePolicy.WBWA else 0))
        raw, compacted = feed_random_stream(make_pair(), rng)
        config = paper_hierarchy_config(scale=64)
        config = replace(config, l1d=replace(config.l1d,
                                             write_policy=l1d_policy))
        states = []
        for source in (raw, compacted):
            hierarchy = MemoryHierarchy(config)
            ReverseCacheReconstructor(hierarchy).reconstruct(source, fraction)
            states.append(tuple(
                cache_state(level)
                for level in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
            ))
        assert states[0] == states[1]

    def test_compacted_scans_fewer_references(self):
        rng = random.Random(7)
        raw, compacted = feed_random_stream(make_pair(), rng)
        config = paper_hierarchy_config(scale=64)
        stats = []
        for source in (raw, compacted):
            reconstructor = ReverseCacheReconstructor(MemoryHierarchy(config))
            stats.append(reconstructor.reconstruct(source, 1.0))
        assert stats[1].scanned < stats[0].scanned
        assert stats[1].applied == stats[0].applied


class TestBranchEquivalence:
    @pytest.mark.parametrize("fraction", FRACTIONS)
    def test_direct_queries_identical(self, fraction):
        rng = random.Random(int(fraction * 100))
        raw, compacted = feed_random_stream(make_pair(), rng)
        assert (raw.recent_conditional_outcomes(fraction, HISTORY_BITS)
                == compacted.recent_conditional_outcomes(fraction,
                                                         HISTORY_BITS))
        for capacity in (1, RAS_ENTRIES, 64):
            assert (raw.ras_tail_contents(fraction, capacity)
                    == compacted.ras_tail_contents(fraction, capacity))
        assert (raw.conditional_history(fraction, HISTORY_BITS)
                == compacted.conditional_history(fraction, HISTORY_BITS))

    @pytest.mark.parametrize("fraction", FRACTIONS)
    @pytest.mark.parametrize("mode", ["eager", "on_demand"])
    def test_reconstructed_predictor_identical(self, fraction, mode):
        rng = random.Random(int(fraction * 100)
                            + (1000 if mode == "eager" else 0))
        raw, compacted = feed_random_stream(make_pair(), rng)
        demand_entries = [rng.randrange(PHT_ENTRIES) for _ in range(40)]
        states = []
        writes = []
        for source in (raw, compacted):
            predictor = BranchPredictor(
                PredictorConfig(PHT_ENTRIES, BTB_ENTRIES, RAS_ENTRIES))
            reconstructor = ReverseBranchReconstructor(predictor)
            reconstructor.prepare(source, fraction)
            if mode == "on_demand":
                # The same probe sequence a hot cluster would issue,
                # followed by the post-cluster residual drain.
                for entry in demand_entries:
                    reconstructor.demand(entry)
            reconstructor.drain()
            states.append(predictor_state(predictor))
            writes.append(reconstructor.counter_writes)
        assert states[0] == states[1]
        assert writes[0] == writes[1]

    def test_window_mode_walks_less(self):
        """At full fraction the compacted source serves bounded windows,
        so a sparse demand sequence walks far fewer log steps."""
        rng = random.Random(99)
        # Long enough that entries see far more outcomes than the
        # inference window can consume — the regime compaction targets.
        raw, compacted = feed_random_stream(make_pair(), rng,
                                            branch_events=6000)
        steps = []
        for source in (raw, compacted):
            predictor = BranchPredictor(
                PredictorConfig(PHT_ENTRIES, BTB_ENTRIES, RAS_ENTRIES))
            reconstructor = ReverseBranchReconstructor(predictor)
            reconstructor.prepare(source, 1.0)
            reconstructor.demand(0)
            reconstructor.drain()
            steps.append(reconstructor.log_walk_steps)
        assert steps[1] < steps[0]


class TestRasEdgeCases:
    def test_deep_nesting_and_orphans(self):
        """Many randomized call/return shapes across every cutoff."""
        for seed in range(20):
            rng = random.Random(seed)
            raw, compacted = make_pair()
            hooks = [raw.make_branch_hook(), compacted.make_branch_hook()]
            for position in range(80):
                kind = rng.choice(("call", "call", "ret", "cond", "jump"))
                for hook in hooks:
                    hook(0x4000 + position, 0x8000 + position,
                         INSTS[kind], True)
            for fraction in (1.0, 0.9, 0.7, 0.5, 0.3, 0.1, 0.05):
                for capacity in (1, 2, 4, 8, 100):
                    assert (raw.ras_tail_contents(fraction, capacity)
                            == compacted.ras_tail_contents(fraction,
                                                           capacity)), (
                        f"seed={seed} fraction={fraction} "
                        f"capacity={capacity}")


class TestEndToEndEquivalence:
    REGIMEN = SamplingRegimen(total_instructions=24_000, num_clusters=4,
                              cluster_size=600, seed=5)

    @pytest.mark.parametrize("fraction", [1.0, 0.4])
    @pytest.mark.parametrize("on_demand", [True, False])
    def test_sampled_run_identical(self, fraction, on_demand):
        simulator = SampledSimulator(build_workload("twolf"), self.REGIMEN)
        results = [
            simulator.run(ReverseStateReconstruction(
                fraction, on_demand=on_demand, source=factory))
            for factory in (SkipRegionLog, None)
        ]
        assert results[0].cluster_ipcs == results[1].cluster_ipcs
        assert results[0].cost.as_dict() == results[1].cost.as_dict()

    def test_compacted_stores_fewer_records(self):
        simulator = SampledSimulator(build_workload("gcc"), self.REGIMEN)
        peaks = {}
        for kind, factory in (("raw", SkipRegionLog), ("compacted", None)):
            method = ReverseStateReconstruction(1.0, source=factory)
            simulator.run(method)
            peaks[kind] = method.log.peak_stored_records
        assert 0 < peaks["compacted"] < peaks["raw"]


class TestSourceLifecycle:
    def test_clear_preserves_hook_bindings(self):
        """clear() must empty the captured containers in place — hooks
        installed before a clear must keep feeding the same source."""
        _raw, compacted = make_pair()
        mem = compacted.make_mem_hook()
        branch = compacted.make_branch_hook()
        mem(0, 0, 0x1000, False)
        branch(0x4000, 0x8000, INSTS["cond"], True)
        compacted.clear()
        assert compacted.record_count() == 0
        assert compacted.stored_records() == 0
        mem(0, 0, 0x2000, True)
        branch(0x4004, 0x8004, INSTS["call"], True)
        assert compacted.memory_record_count() == 1
        assert compacted.branch_record_count() == 1
        assert list(compacted.iter_memory_reverse(1.0))
        assert compacted.ras_tail_contents(1.0, 4) == [0x4005]

    def test_peaks_updated_at_clear(self):
        _raw, compacted = feed_random_stream(
            make_pair(), random.Random(3), memory_events=200,
            branch_events=200)
        expected = compacted.stored_records()
        compacted.clear()
        assert compacted.peak_stored_records == expected
        assert compacted.peak_stored_bytes > 0
