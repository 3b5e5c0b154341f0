"""`service-mix`: a `repro serve` subprocess under a closed-loop client.

One client keeps two `sample` requests in flight over the nine
workloads x {S$BP, R$BP (20%)} at `ci` design.  A quarter of the
requests re-issue an earlier, completed one, so the result cache serves
both writes (misses) and reads (hits).  The HTTP layer, job queue,
``execute_request`` and the result cache work here and nowhere else.

Each epoch issues every distinct request once as a miss: the result
cache is emptied between epochs, with no job in flight.
"""

from __future__ import annotations

import json
import select
import signal
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import repro.api
from repro.api import RunRequest
from repro.harness.cache import ResultCache
from repro.harness.experiment import SCALES
from repro.sampling import SampledSimulator
from repro.service.client import ServiceClient
from repro.workloads import PAPER_WORKLOADS

from common import (
    ROOT, Op, Outcome, child_env, host_scale, latency_metrics,
    round_count, scratch_dir,
)
from inputs import (
    RSR, SMARTS, epoch_length, service_epochs, service_requests,
)
from service_client import FAILURES, run_sequence
from simops import run_once, work_units
from stats import median, median_or_zero, share
from tracer import Span

DESIGN = "ci"
INFLIGHT = 2
#: One epoch (24 requests) on a 2-CPU x86 sandbox.
NOMINAL_ROUND_S = 3.5
#: How long the service may take to print its address.
START_TIMEOUT_S = 60.0
#: How long it may take to stop after SIGINT before it is killed.
STOP_TIMEOUT_S = 10.0
#: A job is scaled by the probes taken from this long before it was
#: submitted to this long after it finished: a few seconds of drift are
#: tracked, and the single probes' own noise is averaged out.
PROBE_WINDOW_S = 1.0
#: Per-request socket timeout of the client.
HTTP_TIMEOUT_S = 30.0


def _default_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Service:
    """One `repro serve` subprocess with its own result-cache directory."""

    def __init__(self, cache_dir: Path, spans_path: "Path | None",
                 log_path: Path) -> None:
        self.cache = ResultCache(cache_dir)
        self.spans_path = spans_path
        serve = ["serve", "--scale", DESIGN, "--port", "0",
                 "--cache", str(cache_dir)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *serve]
            extra = ()
        else:
            here = Path(__file__).resolve().parent
            command = [sys.executable, str(here / "serve_traced.py"),
                       str(spans_path), *serve]
            extra = (here,)
        self.log = log_path.open("w")
        # A benchmark started in the background inherits SIGINT ignored;
        # restore the default so the service's own graceful SIGINT
        # shutdown works.
        self.process = subprocess.Popen(
            command, env=child_env(extra), cwd=ROOT,
            stdout=subprocess.PIPE, stderr=self.log, text=True,
            preexec_fn=_default_sigint)
        ready, _, _ = select.select([self.process.stdout], [], [],
                                    START_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else ""
        marker = "listening on http://"
        if marker not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}; "
                               f"{log_path.read_text()[-2000:]}")
        address = line.split(marker, 1)[1].strip()
        self.client = ServiceClient(f"http://{address}",
                                    timeout=HTTP_TIMEOUT_S)

    def stop(self) -> list:
        """Stop the service; returns the spans it recorded, if traced."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        self.log.close()
        if self.spans_path is None or not self.spans_path.exists():
            return []
        return [Span.from_tuple(values)
                for values in json.loads(self.spans_path.read_text())]


def _scale_over(probes, start: float, end: float) -> float:
    """Median host scale of the probes `(time, scale)` taken within
    :data:`PROBE_WINDOW_S` of `start` to `end`.  Every completed job is
    probed just after it finishes, so there is always one."""
    return median(scale for instant, scale in probes
                  if start - PROBE_WINDOW_S <= instant
                  <= end + PROBE_WINDOW_S)


def _row(payload: bytes) -> dict:
    return json.loads(payload)["rows"][0]


class ServiceMix:
    def __init__(self, seed: int, outcome) -> None:
        self.seed = seed
        self.outcome = outcome
        self.service = None
        self.requests = None

    def setup(self) -> None:
        self.scale = SCALES[DESIGN]
        self.workloads = tuple(PAPER_WORKLOADS)
        self.requests = [RunRequest.from_payload(payload) for payload
                         in service_requests(self.workloads, DESIGN)]
        self.index = {(request.workloads[0], request.methods[0]): index
                      for index, request in enumerate(self.requests)}
        self.scratch = scratch_dir()
        self.sharded_ipc = self._sharded_ipc()
        self._start(traced=False)

    def _sharded_ipc(self) -> dict:
        """Sharded R$BP (20%) IPC per workload, run in this process."""
        scale = self.scale
        result = {}
        for name in self.workloads:
            simulator = SampledSimulator(
                repro.api.build_workload(name, mem_scale=scale.mem_scale),
                scale.regimen(), scale.configs(),
                warmup_prefix=scale.warmup_prefix,
                detail_ramp=scale.detail_ramp, cluster_jobs=INFLIGHT)
            result[name] = run_once(simulator, RSR).estimate.mean
        return result

    def _start(self, traced: bool) -> None:
        """Start a service and run one warm-up instance of every request;
        those payloads are what every later instance must reproduce."""
        cache = self.scratch / ("cache-traced" if traced else "cache")
        cache.mkdir()
        spans = self.scratch / "spans.json" if traced else None
        self.service = Service(cache, spans, self.scratch / (
            "service-traced.log" if traced else "service.log"))
        warm_up = Outcome()
        jobs = run_sequence(self.service.client, self.requests,
                            [(index, False)
                             for index in range(len(self.requests))],
                            warm_up, INFLIGHT)
        self.reference = {job.index: job.payload for job in jobs}
        self.outcome.setup_check(warm_up.failed == 0,
                                 "a warm-up request failed")
        self.service.cache.clear()

    def measure(self, seconds: float, traced: bool):
        if traced:
            self.service.stop()
            self._start(traced=True)
        client = self.service.client
        epochs = service_epochs(self.seed, self.requests)
        count = round_count(seconds, NOMINAL_ROUND_S,
                            epoch_length(len(self.requests)))
        rtts = []
        before = client.stats()["counters"]
        jobs = []
        spans = []
        for _ in range(count):
            epoch = next(epochs)
            firsts = {}
            probes = [(time.time(), host_scale())]

            def check(job):
                # The service is running the next job meanwhile: a probe
                # here tracks the host speed while jobs run.
                probes.append((time.time(), host_scale(1)))
                if traced:
                    start = time.perf_counter()
                    try:
                        client.health()
                    except FAILURES:
                        return False
                    rtts.append(time.perf_counter() - start)
                first = firsts.setdefault(job.index, job.payload)
                return (job.payload == first
                        and job.payload == self.reference.get(job.index))

            done = run_sequence(client, self.requests, epoch,
                                self.outcome, INFLIGHT, check)
            probes.append((time.time(), host_scale()))
            self.service.cache.clear()
            for job in done:
                job.scale = _scale_over(probes, job.submitted_at,
                                        job.finished_at)
            if done:
                start = min(job.submitted_at for job in done)
                end = max(job.finished_at for job in done)
                spans.append((end - start)
                             * _scale_over(probes, start, end))
            jobs.extend(done)
        after = client.stats()["counters"]
        window = ServiceWindow(jobs, sum(spans), rtts, before, after)
        if traced:
            window.spans = self.service.stop()
            self.service = None
        return window

    # -- metrics -----------------------------------------------------------

    def _population(self, job) -> int:
        cost = _row(job.payload)["cost"]
        return (self.scale.warmup_prefix + cost["functional_instructions"]
                + cost["hot_instructions"])

    def throughput(self, window) -> float:
        executed = [job for job in window.jobs if not job.cached]
        return share(sum(self._population(job) for job in executed),
                     sum(job.run_seconds * job.scale for job in executed)
                     ) / 1e6

    def headline(self, window) -> dict:
        jobs = window.jobs
        run_seconds = defaultdict(list)
        for job in jobs:
            if not job.cached:
                run_seconds[job.index].append(job.run_seconds * job.scale)
        wall = []
        work = []
        error = []
        deviation = []
        for name in self.workloads:
            smarts = self.index[(name, SMARTS)]
            rsr = self.index[(name, RSR)]
            wall.append(share(median_or_zero(run_seconds[smarts]),
                              median_or_zero(run_seconds[rsr])))
            if smarts not in self.reference or rsr not in self.reference:
                continue  # a failed warm-up; set-up is marked incorrect
            smarts_row = _row(self.reference[smarts])
            rsr_row = _row(self.reference[rsr])
            work.append(work_units(smarts_row["cost"])
                        / work_units(rsr_row["cost"]))
            error.append(abs(rsr_row["relative_error"]) * 100.0)
            serial = rsr_row["estimated_ipc"]
            deviation.append(abs(self.sharded_ipc[name] - serial)
                             / serial * 100.0)
        return {
            **latency_metrics([job.latency * job.scale for job in jobs],
                              share(len(jobs), window.busy)),
            "minstr_per_s": self.throughput(window),
            "rsr_wall_speedup": share(sum(wall), len(wall)),
            "rsr_work_speedup": share(sum(work), len(work)),
            "ipc_error_pct": share(sum(error), len(error)),
            "shard_ipc_dev_pct": share(sum(deviation), len(deviation)),
        }

    def costs(self) -> dict:
        result = {}
        for index, payload in self.reference.items():
            row = _row(payload)
            result[index] = (row["method"], row["cost"])
        return result

    def trace_view(self, window):
        """Each job as an op: its service record split into queue wait and
        run, with the spans the traced service recorded under its run id
        nested in the run."""
        offset = time.time() - time.perf_counter()
        spans = list(window.spans)
        ops = []
        for job in window.jobs:
            submitted = job.submitted_at - offset
            started = job.started_at - offset
            finished = job.finished_at - offset
            root = Span("op", submitted, finished, f"job.{job.job_id}",
                        None, job.run_id)
            wait = Span("service.queue_wait", submitted, started,
                        f"wait.{job.job_id}", root.span_id, job.run_id)
            run = Span("service.run", started, finished,
                       f"run.{job.job_id}", root.span_id, job.run_id)
            spans.extend((root, wait, run))
            ops.append(Op(key=job.index, wall=job.latency, span=root))
        job_ids = {job.run_id: job.job_id for job in window.jobs}
        for span in window.spans:
            if span.parent is None and span.op in job_ids:
                span.parent = f"run.{job_ids[span.op]}"
        return ops, spans

    def layer_extras(self, window) -> dict:
        hits = window.after["cache_hits"] - window.before["cache_hits"]
        executed = window.after["executed"] - window.before["executed"]
        return {
            "service.queue_wait_s": median_or_zero(job.queue_wait
                                                   for job in window.jobs),
            "service.run_s": median_or_zero(job.run_seconds
                                            for job in window.jobs),
            "service.http_rtt_s": median_or_zero(window.rtts),
            "harness.cache_hit_ratio": share(hits, hits + executed),
        }

    def teardown(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None


@dataclass
class ServiceWindow:
    """The jobs of one window, with the service's counters around it."""

    jobs: list
    #: Summed epoch spans (first submission to last finish), scaled.
    busy: float
    rtts: list
    before: dict
    after: dict
    spans: list = field(default_factory=list)

