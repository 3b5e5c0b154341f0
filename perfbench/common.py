"""Pieces every workload shares: paths, checks, memory, op windows."""

from __future__ import annotations

import itertools
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from stats import TAIL_BEYOND, median, median_or_zero, tail_percentile

#: Fewest timed operations a window runs: with ten samples beyond the
#: tail percentile, this keeps it at the median or above.
MIN_OPS = 2 * TAIL_BEYOND

#: The checkout the benchmark runs in (this file's parent's parent).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space, removed when the benchmark exits.
TMP_ROOT = ROOT / ".perfbench_tmp"
#: Where a traced run writes its spans, one JSON file per run.
TRACE_ROOT = ROOT / ".perfbench_trace"


def scratch_path() -> Path:
    """This process's directory under the checkout (may not exist)."""
    return TMP_ROOT / f"run-{os.getpid()}"


def scratch_dir() -> Path:
    """This process's directory under the checkout, created empty."""
    path = scratch_path()
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def write_spans(spans, name: str) -> Path:
    """Write a traced run's spans as a JSON list of span records."""
    TRACE_ROOT.mkdir(exist_ok=True)
    path = TRACE_ROOT / f"{name}.json"
    records = [{"name": span.name, "start": span.start, "end": span.end,
                "id": span.span_id, "parent": span.parent, "op": span.op,
                "attrs": span.attrs} for span in spans]
    path.write_text(json.dumps(records))
    return path


def remove_scratch() -> None:
    shutil.rmtree(scratch_path(), ignore_errors=True)
    try:
        TMP_ROOT.rmdir()
    except OSError:
        pass


def child_env(extra_path=()) -> dict:
    """The environment for child interpreters, with repro importable."""
    return dict(os.environ, PYTHONUNBUFFERED="1",
                PYTHONPATH=os.pathsep.join([str(SRC),
                                            *map(str, extra_path)]))


def clear_repro_env() -> None:
    """Run the program on its defaults, whatever the caller exported."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    # The service client speaks to a local service, never via a proxy.
    os.environ["no_proxy"] = "127.0.0.1,localhost"


#: Seconds :func:`speed_probe` takes on a quiet 2.1 GHz x86 sandbox core.
REFERENCE_PROBE_S = 0.010
_PROBE_TABLE = bytearray(range(256)) * 4096


def speed_probe() -> float:
    """Seconds of a fixed interpreter-bound kernel (no ``repro`` code)."""
    table = _PROBE_TABLE
    mask = len(table) - 1
    total = 0
    start = time.perf_counter()
    for i in range(60000):
        total += table[(i * 7919) & mask] * (i & 7)
    return time.perf_counter() - start


def host_scale(probes: int = 3) -> float:
    """Factor taking host seconds measured now to the reference speed.

    The sandbox's host speed drifts by tens of percent from minute to
    minute (CPU time tracks wall time, so it is not steal); scaling
    each timing by a probe taken next to it removes that drift from
    run-to-run comparisons.  Median of `probes` probes.
    """
    return REFERENCE_PROBE_S / median(speed_probe()
                                      for _ in range(probes))


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest waited-for child's (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def import_seconds(repeats: int = 3) -> float:
    """Median time of ``import repro`` in a fresh interpreter."""
    code = ("import time; start = time.perf_counter(); import repro; "
            "print(time.perf_counter() - start)")
    samples = []
    for _ in range(repeats):
        output = subprocess.run(
            [sys.executable, "-c", code], env=child_env(),
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(output.stdout.strip().splitlines()[-1]))
    return median(samples)


@dataclass
class Outcome:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    setup_ok: bool = True
    notes: list = field(default_factory=list)

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.note(reason)
        return ok

    def setup_check(self, ok: bool, reason: str) -> None:
        if not ok:
            self.setup_ok = False
            self.note(f"set-up: {reason}")

    def note(self, reason: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(reason)
            print(f"check failed: {reason}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.setup_ok and self.failed == 0 and self.attempted > 0


@dataclass
class Op:
    """One timed operation: its input key and wall time, scaled to the
    reference host speed (see :func:`host_scale`)."""

    key: tuple
    wall: float
    instructions: int = 0
    span: object = None  # the op's root span in a traced window


@dataclass
class Window:
    """The operations of one measurement window."""

    ops: list = field(default_factory=list)
    #: Reference runs timed alongside, outside the window's own metrics.
    reference: list = field(default_factory=list)

    def walls(self, key=None) -> list:
        return [op.wall for op in self.ops if key is None or op.key == key]

    def minstr_per_s(self) -> float:
        """Population instructions over the summed ``run()`` wall time."""
        return (sum(op.instructions for op in self.ops)
                / sum(op.wall for op in self.ops) / 1e6)


def round_count(seconds: float, nominal_round_s: float,
                round_len: int) -> int:
    """Whole rounds a window runs: enough to last about `seconds` at the
    workload's nominal round time, and at least :data:`MIN_OPS` ops.

    The count depends on `seconds` only, never on how fast this run
    goes, so every run takes the same number of samples and the tail
    percentile sits at the same rank.
    """
    return max(math.ceil(seconds / nominal_round_s),
               math.ceil(MIN_OPS / round_len))


def run_rounds(rounds, count: int, run_op) -> None:
    """Run the first `count` rounds of `rounds`, op by op."""
    for round_ in itertools.islice(rounds, count):
        for item in round_:
            run_op(item)


def latency_metrics(samples, jobs_per_s: float) -> dict:
    """Throughput, median and tail latency; prints the tail's percentile
    and sample count next to the result.  With too few samples left for
    a tail (failed operations), the tail reads 0."""
    samples = list(samples)
    if len(samples) > TAIL_BEYOND:
        tail, percentile, count = tail_percentile(samples)
        print(f"latency_tail_s is p{percentile:.1f} of {count} samples")
    else:
        tail = 0.0
        print(f"latency_tail_s: only {len(samples)} samples")
    return {"jobs_per_s": jobs_per_s,
            "latency_p50_s": median_or_zero(samples),
            "latency_tail_s": tail}


def op_latency(window: Window) -> dict:
    """Latency metrics of in-process ops: a job is one ``run()`` call."""
    walls = window.walls()
    return latency_metrics(walls, len(walls) / sum(walls))
