import signal
import time

from wl_service import STOP_TIMEOUT_S, Service


def test_service_stops_gracefully_when_sigint_is_ignored(tmp_path):
    # A benchmark started in the background inherits SIGINT ignored.
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        cache = tmp_path / "cache"
        cache.mkdir()
        service = Service(cache, None, tmp_path / "service.log")
    finally:
        signal.signal(signal.SIGINT, previous)
    assert service.client.health()["status"] == "ok"
    start = time.perf_counter()
    service.stop()
    assert time.perf_counter() - start < STOP_TIMEOUT_S
    assert service.process.returncode == 0


def test_a_window_whose_jobs_all_failed_still_reports_metrics():
    from repro.harness.experiment import SCALES

    from common import Outcome
    from inputs import RSR, SMARTS
    from wl_service import ServiceMix, ServiceWindow

    mix = ServiceMix(seed=1, outcome=Outcome())
    mix.scale = SCALES["ci"]
    mix.workloads = ("gcc",)
    mix.index = {("gcc", SMARTS): 0, ("gcc", RSR): 1}
    mix.reference = {}
    mix.sharded_ipc = {}
    window = ServiceWindow(jobs=[], busy=0.0, rtts=[],
                           before={"cache_hits": 0, "executed": 0},
                           after={"cache_hits": 0, "executed": 0})
    metrics = {**mix.headline(window), **mix.layer_extras(window)}
    assert set(metrics.values()) == {0.0}
