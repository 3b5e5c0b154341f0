"""Seeded input generation: the only place `--seed` enters the benchmark.

The seed orders the operations; it never changes the simulated inputs
themselves (design, workload, regimen seed and core configs are fixed),
so every seed measures the same work in a different order.
"""

from __future__ import annotations

import random

SMARTS = "S$BP"
RSR = "R$BP (20%)"

#: Core-parameter sweep points: (rob_entries, issue_width).  The first
#: is the paper's core, the base config `shard_ipc_dev_pct` is read on.
CORE_VARIANTS = ((64, 4), (32, 2), (128, 8))

#: Share of service requests that re-issue an earlier, completed request.
REPEAT_SHARE = 0.25

#: With two requests in flight on a FIFO single-worker service, request
#: j is submitted only after request j - 2 completed, so a repeat placed
#: this far behind its first instance always finds it finished.
REPEAT_DISTANCE = 2


def rsr_cycles(seed: int, workloads):
    """Endless cycles of (workload, method) for `rsr-vs-smarts`.

    Each cycle runs every workload under both methods back to back; the
    seed picks the workload order, and the method that goes first
    alternates from cycle to cycle so slow drift hits both alike.
    """
    rng = random.Random(seed)
    cycle = 0
    while True:
        order = list(workloads)
        rng.shuffle(order)
        methods = (SMARTS, RSR) if cycle % 2 == 0 else (RSR, SMARTS)
        yield [(workload, method) for workload in order
               for method in methods]
        cycle += 1


def sweep_rounds(seed: int, workloads, variants=CORE_VARIANTS):
    """Endless rounds for `core-sweep`.

    Every round visits each (workload, core variant) cell once, plus one
    serial S$BP reference run ``(workload, SMARTS)`` per workload, in a
    seeded order.
    """
    rng = random.Random(seed)
    items = [(workload, variant) for workload in workloads
             for variant in variants]
    items += [(workload, SMARTS) for workload in workloads]
    while True:
        order = list(items)
        rng.shuffle(order)
        yield order


def epoch_length(requests: int) -> int:
    """Entries in one epoch over `requests` distinct requests."""
    return requests + _repeats(requests)


def _repeats(requests: int) -> int:
    return round(requests * REPEAT_SHARE / (1.0 - REPEAT_SHARE))


def service_epoch(rng: random.Random, requests):
    """One epoch of service requests: ``[(request_index, is_repeat)]``.

    Every request in `requests` appears once as a first instance, in a
    seeded order, and ``REPEAT_SHARE`` of the epoch's entries re-issue
    an earlier first instance at least ``REPEAT_DISTANCE`` positions
    after it.
    """
    sequence = [(index, False) for index in range(len(requests))]
    rng.shuffle(sequence)
    for _ in range(_repeats(len(requests))):
        candidates = [position for position, (_, repeat)
                      in enumerate(sequence)
                      if not repeat
                      and position + REPEAT_DISTANCE <= len(sequence)]
        source = rng.choice(candidates)
        at = rng.randint(source + REPEAT_DISTANCE, len(sequence))
        sequence.insert(at, (sequence[source][0], True))
    return sequence


def service_epochs(seed: int, requests):
    """Endless seeded epochs over `requests` (see :func:`service_epoch`)."""
    rng = random.Random(seed)
    while True:
        yield service_epoch(rng, requests)


def service_requests(workloads, design: str):
    """The distinct `sample` requests of `service-mix`, as JSON payloads."""
    return [
        {"kind": "sample", "workloads": [workload], "methods": [method],
         "design": design}
        for workload in workloads
        for method in (SMARTS, RSR)
    ]
