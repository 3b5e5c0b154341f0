"""Geometry-keyed, content-addressed store for Phase A artifacts.

The paper's central economy — pay the functional cold scan once, spend
detailed simulation only on sampled clusters — dies with the process in
a plain two-phase run: every matrix cell, re-run, or service job that
varies only *core* parameters re-executes an identical Phase A scan.
The :class:`CheckpointStore` persists what Phase A produces — the
per-cluster :class:`~repro.sampling.pipeline.ClusterShard`s (functional
checkpoint + detached skip log) and warmed live-point states — under a
content-derived key, so any later run whose Phase A inputs match
materialises the shards straight from disk and goes directly to Phase B.

Key discipline mirrors :mod:`repro.harness.cache`: a sha256 over the
JSON-stable rendering of exactly the inputs Phase A depends on —

- the **workload fingerprint** (name, tuning parameters, program length,
  memory footprint),
- the **functional-ISA code version** (:func:`functional_code_version`,
  a digest of the subpackages whose edits change what a cold scan
  produces — deliberately *excluding* timing, harness, telemetry, and
  service code so core-parameter sweeps and observability changes keep
  hitting),
- the **sampling geometry** (regimen, warm-up prefix, detail ramp),
- the **cache/predictor geometry** (compacted logs and warmed states are
  sized to it; the core config is deliberately absent — Phase A is
  timing-independent, which is the whole point),
- the **warm-up method identity** (class, fraction, warmed structures,
  ablation switches).  Runs whose skip log comes from a source factory
  have no identity and are never stored.

Entries are written via temp-file + atomic rename with a JSON manifest
alongside each blob (byte count, content digest, geometry echo); loads
cross-check the blob digest against the manifest, so a truncated or
bit-rotted entry degrades to a re-scan instead of corrupting a run.
Each run additionally appends the entries it wrote to a per-run manifest
(``<root>/runs/<run_id>.jsonl``) for provenance.

Control knob: the ``REPRO_CHECKPOINT_STORE`` environment variable
(``off``/``on``/directory path, same spellings as the result cache),
threaded through :class:`~repro.harness.options.RunOptions` and the
``--store`` CLI flags.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from .serialization import (
    atomic_write_bytes,
    atomic_write_json,
    blob_digest,
    digest_key,
    read_json,
    stable_payload,
    warn_once,
)

#: Environment variable controlling the default store location.
STORE_ENV_VAR = "REPRO_CHECKPOINT_STORE"

_OFF_VALUES = {"off", "0", "none", "no", "false", "disabled", ""}
_ON_VALUES = {"on", "auto", "1", "default", "yes", "true"}

#: Subpackages whose source a Phase A cold scan executes.  Edits outside
#: this set (timing core, harness, telemetry, service, analysis, CLI)
#: cannot change what the scan produces, so they do not invalidate
#: stored shards — unlike the result cache's whole-package
#: :func:`~repro.harness.cache.code_version`, which must also track
#: timing-dependent outputs.
PHASE_A_PACKAGES = (
    "functional", "isa", "workloads", "core",
    "sampling", "warmup", "branch", "cache",
)


def default_store_dir() -> Path:
    """The XDG-style default location for the checkpoint store."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro" / "checkpoints"


@lru_cache(maxsize=1)
def functional_code_version() -> str:
    """Digest of the Phase-A-relevant subpackages (the store's code key).

    Any edit under :data:`PHASE_A_PACKAGES` changes this digest and
    therefore every store key; edits to timing, harness, or
    observability code leave it untouched, so stored scans keep serving
    core-parameter sweeps across simulator changes that cannot affect
    them.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for name in PHASE_A_PACKAGES:
        for path in sorted((package_root / name).rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()[:16]


def workload_fingerprint(workload) -> dict:
    """JSON-stable identity of one generated workload."""
    return {
        "name": workload.name,
        "parameters": stable_payload(workload.parameters),
        "instructions": len(workload.program),
        "memory_words": workload.memory.footprint_words(),
    }


def shard_store_key(workload, regimen, configs, *, warmup_prefix: int,
                    detail_ramp: int, method_identity: dict) -> str:
    """Content hash addressing one run's Phase A shard set.

    `method_identity` comes from
    :meth:`~repro.warmup.base.WarmupMethod.store_identity`;
    ``configs.core`` is deliberately excluded (see the module docstring).
    """
    return digest_key({
        "kind": "shards",
        "workload": workload_fingerprint(workload),
        "regimen": stable_payload(regimen),
        "warmup_prefix": warmup_prefix,
        "detail_ramp": detail_ramp,
        "hierarchy": stable_payload(configs.hierarchy),
        "predictor": stable_payload(configs.predictor),
        "method": stable_payload(method_identity),
        "code": functional_code_version(),
    })


def livepoint_store_key(workload, regimen, configs, *, warmup_prefix: int,
                        method_identity: dict) -> str:
    """Content hash addressing one warmed live-point library."""
    return digest_key({
        "kind": "livepoints",
        "workload": workload_fingerprint(workload),
        "regimen": stable_payload(regimen),
        "warmup_prefix": warmup_prefix,
        "hierarchy": stable_payload(configs.hierarchy),
        "predictor": stable_payload(configs.predictor),
        "method": stable_payload(method_identity),
        "code": functional_code_version(),
    })


@dataclass
class StoreStats:
    """Hit/miss/byte accounting for checkpoint-store traffic."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }

    def __str__(self) -> str:
        return (f"{self.hits} hits, {self.misses} misses, "
                f"{self.writes} writes, {self.corrupt} corrupt")


#: Process-wide totals across every store instance — the service folds
#: deltas of this into its ``/metrics`` counters after each job.
GLOBAL_STORE_STATS = StoreStats()


def global_store_stats() -> StoreStats:
    """The process-wide :class:`StoreStats` accumulator."""
    return GLOBAL_STORE_STATS


@dataclass
class CheckpointStore:
    """A directory of Phase A artifacts addressed by content key.

    Blobs live at ``<root>/<kind>/<key[:2]>/<key>.pkl`` with a JSON
    manifest at ``<key>.json`` beside each; `kind` is ``"shards"`` or
    ``"livepoints"``.  All failure modes degrade to a miss (with a
    warn-once stderr note for corruption) — the store must never fail a
    run.
    """

    root: Path
    stats: StoreStats = field(default_factory=StoreStats)

    KINDS = ("shards", "livepoints")

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def _blob_path(self, key: str, kind: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.pkl"

    def _manifest_path(self, key: str, kind: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.json"

    # -- read path ---------------------------------------------------------

    def get(self, key: str, *, kind: str = "shards",
            expect: "dict | None" = None):
        """The stored value for `key`, or None on a miss.

        The blob's sha256 must match the manifest's recorded digest, and
        every item of `expect` must equal the manifest's metadata — the
        cross-check that proves the entry matches what a live scan would
        produce before a single byte is unpickled.
        """
        blob_path = self._blob_path(key, kind)
        try:
            payload = blob_path.read_bytes()
        except FileNotFoundError:
            return self._miss()
        except OSError as exc:
            return self._corrupt(blob_path, exc)
        manifest = read_json(self._manifest_path(key, kind))
        if manifest is None:
            return self._corrupt(blob_path, "manifest missing or unreadable")
        if manifest.get("digest") != blob_digest(payload):
            return self._corrupt(blob_path, "content digest mismatch")
        for name, value in (expect or {}).items():
            if manifest.get(name) != value:
                return self._corrupt(
                    blob_path,
                    f"manifest field {name!r} is {manifest.get(name)!r}, "
                    f"expected {value!r}")
        try:
            value = pickle.loads(payload)
        except Exception as exc:
            return self._corrupt(blob_path, exc)
        self.stats.hits += 1
        self.stats.bytes_read += len(payload)
        GLOBAL_STORE_STATS.hits += 1
        GLOBAL_STORE_STATS.bytes_read += len(payload)
        return value

    def _miss(self):
        self.stats.misses += 1
        GLOBAL_STORE_STATS.misses += 1
        return None

    def _corrupt(self, path, reason):
        """Warn once per path, count, and degrade to a miss."""
        warn_once("checkpoint-store entry", str(path),
                  f"warning: corrupt checkpoint-store entry at {path} "
                  f"treated as a miss; the cold scan will re-run "
                  f"({reason})")
        self.stats.corrupt += 1
        GLOBAL_STORE_STATS.corrupt += 1
        return self._miss()

    # -- write path --------------------------------------------------------

    def put(self, key: str, value, *, kind: str = "shards",
            meta: "dict | None" = None) -> int:
        """Atomically persist `value` under `key`; returns blob bytes.

        The manifest records the blob's size and content digest plus any
        caller-supplied `meta` (geometry echo for the read-side
        cross-check); both files land via temp-file + atomic rename, and
        the entry is appended to the current run's manifest.
        """
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        manifest = {
            **(meta or {}),
            "key": key,
            "kind": kind,
            "bytes": len(blob),
            "digest": blob_digest(blob),
            "code": functional_code_version(),
        }
        atomic_write_bytes(self._blob_path(key, kind), blob)
        atomic_write_json(self._manifest_path(key, kind), manifest)
        self.stats.writes += 1
        self.stats.bytes_written += len(blob)
        GLOBAL_STORE_STATS.writes += 1
        GLOBAL_STORE_STATS.bytes_written += len(blob)
        self._record_run_entry(manifest)
        return len(blob)

    def _record_run_entry(self, manifest: dict) -> None:
        """Append one line to the writing run's provenance manifest.

        Keyed by the ambient ``REPRO_RUN_ID``; runs without a
        correlation id (bare library calls) skip the provenance record.
        Appends of one short line are atomic enough on POSIX for the
        observability purpose this serves; failures never hurt the run.
        """
        from ..telemetry.runid import run_id_from_env

        run_id = run_id_from_env()
        if run_id is None:
            return
        line = json.dumps({"run_id": run_id, **manifest}, sort_keys=True)
        path = self.root / "runs" / f"{run_id}.jsonl"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "a", encoding="utf-8") as stream:
                stream.write(line + "\n")
        except OSError:
            pass

    # -- accounting + maintenance ------------------------------------------

    def __contains__(self, key: str) -> bool:
        return any(self._blob_path(key, kind).exists()
                   for kind in self.KINDS)

    def entry_count(self) -> int:
        """Blobs stored, across every kind."""
        return sum(1 for kind in self.KINDS
                   for _ in self.root.glob(f"{kind}/*/*.pkl"))

    def total_bytes(self) -> int:
        """Bytes on disk: blobs, manifests, and run provenance."""
        from .serialization import directory_stats

        return directory_stats(self.root)[1]

    def gc(self, max_bytes: int) -> list[Path]:
        """Evict oldest-mtime blobs until the store fits `max_bytes`.

        The budget is shared across kinds; a blob's manifest is removed
        with it (the pair is useless apart) but only blob bytes count
        toward the budget, and run provenance files are left alone.
        Returns the removed blob paths.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = []
        total = 0
        for kind in self.KINDS:
            for path in self.root.glob(f"{kind}/*/*.pkl"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, str(path), path,
                                stat.st_size))
                total += stat.st_size
        entries.sort(key=lambda item: (item[0], item[1]))
        removed: list[Path] = []
        for _, _, path, size in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed.append(path)
        for blob in removed:
            try:
                blob.with_suffix(".json").unlink()
            except OSError:
                pass
        return removed

    def clear(self) -> int:
        """Delete every blob (manifests ride along); returns the count."""
        return len(self.gc(0))


def resolve_store(
    setting: "str | Path | CheckpointStore | None" = None,
    *,
    default: "str | None" = None,
) -> "CheckpointStore | None":
    """Turn a store setting into a :class:`CheckpointStore` (or None).

    Precedence: an explicit `setting` wins; otherwise the
    ``REPRO_CHECKPOINT_STORE`` environment variable; otherwise
    `default`.  Value spellings match the result cache: ``off``-family
    disables, ``on``-family selects :func:`default_store_dir`, anything
    else is a directory path.
    """
    if isinstance(setting, CheckpointStore):
        return setting
    if isinstance(setting, Path):
        return CheckpointStore(setting)
    if setting is None:
        setting = os.environ.get(STORE_ENV_VAR)
    if setting is None:
        setting = default
    if setting is None:
        return None
    lowered = str(setting).strip().lower()
    if lowered in _OFF_VALUES:
        return None
    if lowered in _ON_VALUES:
        return CheckpointStore(default_store_dir())
    return CheckpointStore(Path(setting))
