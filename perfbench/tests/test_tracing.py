import pytest

from tracing import LAYER_METRICS, Tracer, layer_metrics, self_times


def tree():
    # (name, start, end, parent, round, size)
    return [("op", 0.0, 10.0, -1, 0, None),
            ("a", 1.0, 4.0, 0, 0, 3),
            ("b", 2.0, 3.0, 1, 0, None),
            ("a", 5.0, 7.0, 0, 0, 2),
            ("op", 20.0, 24.0, -1, 1, None),
            ("a", 21.0, 22.0, 4, 1, 9)]


def test_self_time_subtracts_the_time_children_cover():
    assert self_times(tree()) == pytest.approx([5.0, 2.0, 1.0, 2.0, 3.0, 1.0])


def test_overlapping_children_are_counted_once():
    spans = [("p", 0.0, 10.0, -1, 0, None),
             ("c", 1.0, 5.0, 0, 0, None),
             ("c", 3.0, 6.0, 0, 0, None),
             ("c", 9.0, 12.0, 0, 0, None)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_count_round_zero_and_take_median_self_time():
    spans = [(("testing.traces_of",) + s[1:]) if s[0] == "a" else s for s in tree()]
    got = layer_metrics(spans, rounds=2)
    assert got["testing.traces_of.calls"] == {"value": 2, "unit": "count"}
    assert got["testing.traces_of.traces"]["value"] == 5
    # round 0 spends 2 + 2 s of self time in traces_of, round 1 spends 1 s
    assert got["testing.traces_of.self_s"]["value"] == pytest.approx(2.5)
    assert got["rigid.rigid_image.self_s"]["value"] == 0.0
    assert set(got) == {m[0] for m in LAYER_METRICS}


def test_wrapped_calls_nest_under_the_open_span():
    tr = Tracer()
    inner = tr.wrap("inner", lambda x: [x] * x, size=len)
    outer = tr.wrap("outer", lambda x: inner(x) + inner(1))
    assert outer(3) == [3, 3, 3, 1]
    assert tr.spans == []           # nothing is recorded while inactive
    tr.active = True
    with tr.span("op"):
        outer(2)
    names = [(s[0], s[3], s[5]) for s in tr.spans]
    assert names == [("op", -1, None), ("outer", 0, None),
                     ("inner", 1, 2), ("inner", 1, 1)]


def test_adopted_spans_hang_under_the_open_span():
    tr = Tracer()
    tr.round = 3
    tr.active = True
    with tr.span("op"):
        tr.adopt([("cli.main", 1.0, 2.0, -1, 0, None),
                  ("fileformat.parse", 1.1, 1.2, 0, 0, None)])
    assert [(s[0], s[3], s[4]) for s in tr.spans] == [
        ("op", -1, 3), ("cli.main", 0, 3), ("fileformat.parse", 1, 3)]
