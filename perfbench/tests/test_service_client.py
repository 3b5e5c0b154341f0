import itertools
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.api import RunRequest
from repro.service.client import ServiceClient

from common import Outcome
from service_client import run_sequence

REQUESTS = [RunRequest(kind="sample", workloads=(name,), methods=("S$BP",),
                       design="ci") for name in ("gcc", "mcf", "art")]
SEQUENCE = [(0, False), (1, False), (2, False), (0, True), (1, True)]


class Stub:
    """A fake service: `post_status` / `status_code` pick its answers;
    with `drift`, every instance of a request gets a fresh payload."""

    def __init__(self, post_status=202, status_code=200, drift=False):
        self.post_status = post_status
        self.status_code = status_code
        self.drift = drift
        self.jobs = {}
        self.ids = itertools.count(1)
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _send(self, status, payload):
                body = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_POST(self):
                length = int(self.headers["Content-Length"])
                request = json.loads(self.rfile.read(length))["request"]
                if stub.post_status != 202:
                    self._send(stub.post_status, {"error": "refused"})
                    return
                job_id = f"job-{next(stub.ids)}"
                stub.jobs[job_id] = request
                self._send(202, {"job_id": job_id})

            def do_GET(self):
                job_id = self.path.rsplit("/", 1)[1]
                if self.path.startswith("/jobs/"):
                    now = time.time()
                    self._send(stub.status_code, {
                        "state": "done", "run_id": f"run-{job_id}",
                        "submitted_at": now - 0.2, "started_at": now - 0.1,
                        "finished_at": now})
                    return
                request = stub.jobs[job_id]
                rows = [{"workload": request["workloads"][0],
                         "salt": job_id if stub.drift else ""}]
                self._send(200, {"request": request,
                                 "payload": {"rows": rows},
                                 "cached": False, "wall_seconds": 0.1})

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)

    def __enter__(self):
        self.thread.start()
        return ServiceClient(
            f"http://127.0.0.1:{self.server.server_address[1]}")

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


@pytest.mark.parametrize("post_status", [429, 500])
def test_refused_submissions_count_as_failed_not_dropped(post_status):
    outcome = Outcome()
    with Stub(post_status=post_status) as client:
        jobs = run_sequence(client, REQUESTS, SEQUENCE, outcome)
    assert jobs == []
    assert outcome.attempted == len(SEQUENCE)
    assert outcome.failed == len(SEQUENCE)


def test_status_errors_count_as_failed():
    outcome = Outcome()
    with Stub(status_code=500) as client:
        jobs = run_sequence(client, REQUESTS, SEQUENCE, outcome)
    assert jobs == []
    assert (outcome.attempted, outcome.failed) == (len(SEQUENCE),
                                                   len(SEQUENCE))


def _same_as_first(firsts):
    def check(job):
        return job.payload == firsts.setdefault(job.index, job.payload)
    return check


def test_completed_jobs_are_timed_by_the_service_records():
    outcome = Outcome()
    with Stub() as client:
        jobs = run_sequence(client, REQUESTS, SEQUENCE, outcome,
                            on_done=_same_as_first({}))
    assert (outcome.attempted, outcome.failed) == (len(SEQUENCE), 0)
    assert [job.index for job in jobs] == [index for index, _ in SEQUENCE]
    assert all(job.latency == pytest.approx(0.2) for job in jobs)


def test_a_repeat_with_a_different_payload_counts_as_failed():
    outcome = Outcome()
    with Stub(drift=True) as client:
        run_sequence(client, REQUESTS, SEQUENCE, outcome,
                     on_done=_same_as_first({}))
    assert outcome.attempted == len(SEQUENCE)
    assert outcome.failed == 2  # the two repeats
