import itertools

from inputs import (
    REPEAT_DISTANCE, SMARTS, epoch_length, rsr_cycles, service_epochs,
    service_requests, sweep_rounds,
)

WORKLOADS = ("ammp", "art", "gcc", "mcf", "parser", "perl", "twolf",
             "vortex", "vpr")


def _first(generator, count):
    return list(itertools.islice(generator, count))


def test_same_seed_gives_the_same_request_sequence():
    requests = service_requests(WORKLOADS, "ci")
    assert (_first(service_epochs(7, requests), 3)
            == _first(service_epochs(7, requests), 3))
    assert (_first(service_epochs(7, requests), 3)
            != _first(service_epochs(8, requests), 3))


def test_epochs_issue_every_request_once_plus_a_quarter_repeats():
    requests = service_requests(WORKLOADS, "ci")
    for epoch in _first(service_epochs(3, requests), 5):
        assert len(epoch) == epoch_length(len(requests)) == 24
        firsts = [index for index, repeat in epoch if not repeat]
        assert sorted(firsts) == list(range(len(requests)))
        assert sum(repeat for _, repeat in epoch) == 6


def test_repeats_follow_their_completed_first_instance():
    requests = service_requests(WORKLOADS, "ci")
    for epoch in _first(service_epochs(11, requests), 20):
        first_at = {index: position
                    for position, (index, repeat) in enumerate(epoch)
                    if not repeat}
        for position, (index, repeat) in enumerate(epoch):
            if repeat:
                assert position >= first_at[index] + REPEAT_DISTANCE


def test_sweep_and_cycle_orders_are_seeded_and_complete():
    rounds = _first(sweep_rounds(5, ("gcc", "mcf")), 4)
    assert rounds == _first(sweep_rounds(5, ("gcc", "mcf")), 4)
    for round_ in rounds:
        assert len(set(round_)) == len(round_) == 8
        references = {item for item in round_ if item[1] == SMARTS}
        assert references == {("gcc", SMARTS), ("mcf", SMARTS)}
    cycles = _first(rsr_cycles(5, ("gcc", "mcf")), 2)
    assert cycles[0][0][1] != cycles[1][0][1]  # first method alternates
    assert all(len(set(cycle)) == 4 for cycle in cycles)
