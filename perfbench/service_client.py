"""A closed-loop driver over the service's own client.

Job timings come from the service's own records (``GET /jobs/<id>``:
``submitted_at``, ``started_at``, ``finished_at``), never from this
driver's poll loop, so how often it polls does not enter the latency it
reports.
"""

from __future__ import annotations

import collections
import http.client
import json
import time
from dataclasses import dataclass

from repro.service.client import ServiceError

#: Wait between status polls of the oldest job in flight.
POLL_S = 0.01
#: A job not finished this long after submission counts as failed.
JOB_TIMEOUT_S = 120.0
#: What a failed call raises: a 4xx/5xx answer, no answer, or a body
#: that is not the JSON the route promises.
FAILURES = (ServiceError, OSError, http.client.HTTPException, ValueError)


def canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()


@dataclass
class Job:
    """One completed job, timed by the service's records."""

    index: int
    repeat: bool
    job_id: str
    run_id: str
    submitted_at: float
    started_at: float
    finished_at: float
    cached: bool
    payload: bytes
    #: Host speed scale of the job's epoch (see ``common.host_scale``).
    scale: float = 1.0

    @property
    def latency(self) -> float:
        return self.finished_at - self.submitted_at

    @property
    def queue_wait(self) -> float:
        return self.started_at - self.submitted_at

    @property
    def run_seconds(self) -> float:
        return self.finished_at - self.started_at


def _finish(client, job_id: str, deadline: float) -> dict:
    """Poll the job's status until it leaves the queue; returns it."""
    while True:
        status = client.status(job_id)
        if status.get("state") in ("done", "failed"):
            return status
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {job_id} still {status.get('state')!r} "
                               f"after {JOB_TIMEOUT_S:.0f}s")
        time.sleep(POLL_S)


def run_sequence(client, requests, sequence, outcome,
                 inflight: int = 2, on_done=None) -> list:
    """Drive `sequence` (``[(request index, is_repeat)]``) closed-loop.

    `client` is a :class:`repro.service.client.ServiceClient` and
    `requests` are :class:`repro.api.RunRequest`\\ s.  At most `inflight`
    jobs are outstanding; the next request goes out when the oldest
    finishes.  Every submission counts as one attempted operation in
    `outcome`; a refused submission (4xx/5xx), an HTTP failure, a
    timeout or a job not ending ``done`` counts as failed.
    ``on_done(job)`` may add its own output check (False = failed).
    Returns the completed jobs in completion order.
    """
    pending = collections.deque()
    entries = iter(sequence)
    jobs = []

    def submit_next() -> bool:
        for index, repeat in entries:
            try:
                job_id = client.submit(requests[index], tenant="bench")
            except FAILURES as exc:
                outcome.record(False, f"request {index}: {exc}")
                continue
            pending.append((job_id, index, repeat,
                            time.monotonic() + JOB_TIMEOUT_S))
            return True
        return False

    while len(pending) < inflight and submit_next():
        pass
    while pending:
        job_id, index, repeat, deadline = pending.popleft()
        try:
            status = _finish(client, job_id, deadline)
            if status["state"] != "done":
                raise RuntimeError(f"ended {status['state']!r}: "
                                   f"{status.get('error')}")
            result = client.result(job_id)
        except (*FAILURES, RuntimeError) as exc:
            outcome.record(False, f"job {job_id} (request {index}): {exc}")
            submit_next()
            continue
        job = Job(index=index, repeat=repeat, job_id=job_id,
                  run_id=status.get("run_id", job_id),
                  submitted_at=status["submitted_at"],
                  started_at=status["started_at"],
                  finished_at=status["finished_at"],
                  cached=result.cached,
                  payload=canonical(result.payload))
        # Submit before checking so the service never waits on the check.
        submit_next()
        ok = on_done(job) if on_done is not None else True
        outcome.record(ok, f"job {job_id} (request {index}) output differs "
                           f"from its first instance")
        jobs.append(job)
    return jobs
