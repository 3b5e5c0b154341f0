"""Live-points: checkpoint-based sampled simulation.

Implements the technique of the paper's reference [18] (Wenisch et al.,
"Simulation Sampling with Live-Points", ISPASS 2006): instead of
fast-forwarding functionally to every cluster on every experiment, the
architectural state *and* the warmed microarchitectural state at each
cluster boundary are captured once into a reusable library.  Subsequent
experiments — typically sweeps over *core* parameters, which do not
invalidate cache or predictor contents — replay only the detailed
clusters, turning an O(population) simulation into an
O(sampled instructions) one.

Two caveats carried over from the original technique:

- a live-point library is tied to the cache/predictor geometry it was
  generated with (changing those invalidates the warmed state);
- the state stored is whatever the generating warm-up method produced
  (SMARTS warming by default, so replays inherit its accuracy).
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field

from ..branch import BranchPredictor
from ..cache import MemoryHierarchy
from ..functional import Checkpoint, FunctionalMachine
from ..sampling.controller import SimulatorConfigs
from ..sampling.regimen import SamplingRegimen
from ..sampling.statistics import SampleEstimate, cluster_estimate
from ..timing import CoreConfig, TimingSimulator
from ..warmup.base import SimulationContext, WarmupMethod
from ..warmup.fixed_period import SmartsWarmup
from ..workloads import Workload


@dataclass
class LivePoint:
    """One cluster's entry point: architectural + warmed microarch state."""

    start_instruction: int
    architectural: Checkpoint
    cache_state: dict
    predictor_state: dict


@dataclass
class LivePointReplayResult:
    """Outcome of replaying a library under one core configuration."""

    workload_name: str
    cluster_ipcs: list[float]
    estimate: SampleEstimate
    wall_seconds: float
    extra: dict = field(default_factory=dict)

    def relative_error(self, true_ipc: float) -> float:
        return abs(true_ipc - self.estimate.mean) / abs(true_ipc)

    def passes_confidence_test(self, true_ipc: float) -> bool:
        return self.estimate.contains(true_ipc)


class LivePointLibrary:
    """A reusable collection of warmed cluster entry points."""

    def __init__(
        self,
        workload: Workload,
        regimen: SamplingRegimen,
        configs: SimulatorConfigs,
        points: list[LivePoint],
        generation_seconds: float = 0.0,
    ) -> None:
        self.workload = workload
        self.regimen = regimen
        self.configs = configs
        self.points = points
        self.generation_seconds = generation_seconds

    # -- generation ----------------------------------------------------------

    @classmethod
    def generate(
        cls,
        workload: Workload,
        regimen: SamplingRegimen,
        configs: SimulatorConfigs | None = None,
        warmup: WarmupMethod | None = None,
        warmup_prefix: int = 0,
    ) -> "LivePointLibrary":
        """Build a library by one pass of warmed functional simulation.

        `warmup` controls how microarchitectural state is maintained
        between capture points (SMARTS full functional warming by
        default, matching the original live-points recipe).
        """
        configs = configs if configs is not None else SimulatorConfigs()
        method = warmup if warmup is not None else SmartsWarmup()
        machine = workload.make_machine()
        hierarchy = MemoryHierarchy(configs.hierarchy)
        predictor = BranchPredictor(configs.predictor)
        method.bind(SimulationContext(
            machine=machine, hierarchy=hierarchy, predictor=predictor,
            regimen=regimen,
        ))

        start_time = time.perf_counter()
        if warmup_prefix:
            from ..sampling.controller import steady_state_prefix
            steady_state_prefix(machine, hierarchy, predictor, warmup_prefix)

        points: list[LivePoint] = []
        position = 0
        for cluster_start in regimen.cluster_starts():
            gap = cluster_start - position
            if gap > 0:
                method.skip(gap)
            method.pre_cluster()
            points.append(LivePoint(
                start_instruction=cluster_start,
                architectural=machine.checkpoint(),
                cache_state=hierarchy.export_state(),
                predictor_state=predictor.export_state(),
            ))
            method.post_cluster()
            # Advance architecturally through the cluster so the next gap
            # starts from the right place; state stays warm via `method`.
            method.skip(regimen.cluster_size)
            position = cluster_start + regimen.cluster_size
        generation_seconds = time.perf_counter() - start_time
        return cls(workload, regimen, configs, points, generation_seconds)

    # -- replay ---------------------------------------------------------------

    def replay(self, core_config: CoreConfig | None = None,
               pre_branch_hook=None) -> LivePointReplayResult:
        """Detail-simulate every stored cluster under `core_config`.

        Only the clusters run — no functional fast-forwarding — so a
        replay costs a small fraction of a full sampled simulation and
        can be repeated for many core configurations.
        """
        configs = self.configs
        core = core_config if core_config is not None else configs.core
        cluster_ipcs: list[float] = []
        start_time = time.perf_counter()
        for point in self.points:
            machine = FunctionalMachine(self.workload.program)
            machine.restore(point.architectural)
            hierarchy = MemoryHierarchy(configs.hierarchy)
            hierarchy.load_state(point.cache_state)
            predictor = BranchPredictor(configs.predictor)
            predictor.load_state(point.predictor_state)
            timing = TimingSimulator(machine, hierarchy, predictor, core)
            result = timing.run(
                self.regimen.cluster_size, pre_branch_hook=pre_branch_hook,
            )
            cluster_ipcs.append(result.ipc)
        wall_seconds = time.perf_counter() - start_time
        return LivePointReplayResult(
            workload_name=self.workload.name,
            cluster_ipcs=cluster_ipcs,
            estimate=cluster_estimate(cluster_ipcs),
            wall_seconds=wall_seconds,
            extra={"core_config": core},
        )

    # -- persistence ----------------------------------------------------------

    #: Payload format marker for :meth:`save` / :meth:`load`.  Version 1
    #: wraps the library in a manifest-style envelope written through
    #: the checkpoint store's atomic serialization helpers.
    PAYLOAD_VERSION = 1

    def save(self, path) -> None:
        """Serialise the library for later replays (atomic write).

        Written through the shared store serialization helpers
        (:func:`repro.store.serialization.atomic_write_pickle`), so a
        crashed or concurrent writer can never leave a torn library on
        disk.  The envelope carries a content digest and point count
        that :meth:`load` cross-checks.
        """
        from ..store.serialization import atomic_write_pickle, blob_digest

        blob = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        atomic_write_pickle(path, {
            "format": "repro-livepoints",
            "version": self.PAYLOAD_VERSION,
            "workload": self.workload.name,
            "points": len(self.points),
            "digest": blob_digest(blob),
            "library": blob,
        })

    @staticmethod
    def load(path) -> "LivePointLibrary":
        """Load a library saved by :meth:`save`.

        Cross-checks the envelope's content digest and point count
        before trusting the payload; anything else — including the bare
        pickle older versions wrote — raises :class:`TypeError`.  Only
        load files you created yourself: pickle executes arbitrary code
        on malicious inputs.
        """
        from ..store.serialization import (
            CorruptEntryError,
            blob_digest,
            read_pickle,
        )

        value, _ = read_pickle(path)
        if (not isinstance(value, dict)
                or value.get("format") != "repro-livepoints"):
            raise TypeError("file does not contain a LivePointLibrary")
        blob = value.get("library", b"")
        if value.get("digest") != blob_digest(blob):
            raise CorruptEntryError(
                f"{path}: live-points payload digest mismatch")
        library = pickle.loads(blob)
        if not isinstance(library, LivePointLibrary):
            raise TypeError("file does not contain a LivePointLibrary")
        if value.get("points") != len(library.points):
            raise CorruptEntryError(
                f"{path}: envelope records {value.get('points')} points "
                f"but the library holds {len(library.points)}")
        return library

    # -- checkpoint-store integration ------------------------------------------

    def store_key(self, *, warmup_prefix: int = 0,
                  method_identity: "dict | None" = None) -> str:
        """The content-addressed store key for this library.

        `method_identity` is the generating warm-up method's
        :meth:`~repro.warmup.base.WarmupMethod.store_identity` (the
        default SMARTS recipe when None) — libraries warmed by
        different methods hold different microarchitectural state and
        must never share a key.
        """
        from ..store import livepoint_store_key

        return livepoint_store_key(
            self.workload, self.regimen, self.configs,
            warmup_prefix=warmup_prefix,
            method_identity=(method_identity
                             or {"method": "SmartsWarmup"}),
        )

    def store_in(self, store, *, warmup_prefix: int = 0,
                 method_identity: "dict | None" = None) -> str:
        """Persist this library under its content key; returns the key."""
        key = self.store_key(warmup_prefix=warmup_prefix,
                             method_identity=method_identity)
        store.put(key, self, kind="livepoints", meta={
            "workload": self.workload.name,
            "points": len(self.points),
            "cluster_size": int(self.regimen.cluster_size),
        })
        return key

    @staticmethod
    def from_store(store, key: str) -> "LivePointLibrary | None":
        """The stored library for `key`, or None on a (possibly
        corrupt-degraded) miss."""
        value = store.get(key, kind="livepoints")
        if value is not None and not isinstance(value, LivePointLibrary):
            return None
        return value

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return (
            f"LivePointLibrary({self.workload.name!r}, "
            f"{len(self.points)} points, "
            f"cluster_size={self.regimen.cluster_size})"
        )
