import pytest

from tracer import UNATTRIBUTED, Span, Tracer, blocking_path


def _tree():
    # op [0, 10]
    #   run [1, 9]
    #     skip [1, 4]
    #     hot  [5, 8]
    #       hook [6, 7]
    return [
        Span("op", 0.0, 10.0, "op", None, "a"),
        Span("run", 1.0, 9.0, "run", "op", "a"),
        Span("skip", 1.0, 4.0, "skip", "run", "a"),
        Span("hot", 5.0, 8.0, "hot", "run", "a"),
        Span("hook", 6.0, 7.0, "hook", "hot", "a"),
    ]


def test_serial_blocking_path_is_the_self_times():
    # Self time = duration minus child coverage; the root's own share is
    # the unattributed remainder.
    spans = _tree()
    path = blocking_path(spans, spans[0])
    assert path == pytest.approx(
        {UNATTRIBUTED: 2.0, "run": 2.0, "skip": 3.0, "hot": 2.0,
         "hook": 1.0})
    assert sum(path.values()) == pytest.approx(10.0)


def test_parallel_workers_split_the_instants_they_share():
    spans = [
        Span("op", 0.0, 10.0, "op", None),
        Span("map", 1.0, 9.0, "map", "op"),
        Span("shard", 2.0, 6.0, "w1", "map"),
        Span("shard", 4.0, 8.0, "w2", "map"),
        Span("hot", 4.0, 6.0, "h1", "w1"),
    ]
    path = blocking_path(spans, spans[0])
    # [4, 6]: hot (w1) and shard w2 share; [2, 4] and [6, 8] one shard.
    assert path == pytest.approx(
        {UNATTRIBUTED: 2.0, "map": 2.0, "shard": 2.0 + 1.0 + 2.0,
         "hot": 1.0})
    assert sum(path.values()) == pytest.approx(10.0)


def test_shared_boundaries_go_to_the_inner_span():
    spans = [
        Span("op", 0.0, 4.0, "op", None),
        Span("wait", 0.0, 1.0, "wait", "op"),
        Span("run", 1.0, 4.0, "run", "op"),
    ]
    path = blocking_path(spans, spans[0])
    assert path == pytest.approx({"wait": 1.0, "run": 3.0})


def test_tracer_nests_spans_and_tags_the_operation():
    tracer = Tracer()
    tracer.op = "op-1"
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent == outer.span_id
    assert outer.parent is None
    assert {span.op for span in tracer.spans} == {"op-1"}
    assert outer.start <= inner.start <= inner.end <= outer.end
