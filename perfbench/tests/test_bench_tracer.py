import math
import time

import pytest

from perfbench import tracer as tracing
from perfbench.tracer import Span, Tracer, self_times, totals


def test_self_time_subtracts_direct_children():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("child", 1.0, 4.0, 0, 0),
        Span("grandchild", 2.0, 3.0, 1, 0),
        Span("child", 5.0, 6.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_merges_overlapping_children():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("a", 1.0, 5.0, 0, 0),
        Span("b", 3.0, 7.0, 0, 0),
        Span("c", 9.0, 12.0, 0, 0),   # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_totals_group_by_name_and_op():
    spans = [
        Span("op", 0.0, 4.0, None, 0),
        Span("sat", 1.0, 2.0, 0, 0),
        Span("op", 10.0, 13.0, None, 1),
        Span("sat", 11.0, 12.5, 2, 1),
    ]
    both = totals(spans)
    assert both["sat"]["count"] == 2
    assert both["sat"]["seconds"] == pytest.approx(2.5)
    assert both["op"]["self_seconds"] == pytest.approx(3.0 + 1.5)
    only_second = totals(spans, {1})
    assert only_second["op"]["seconds"] == pytest.approx(3.0)


def test_tracer_nests_spans_and_restores_patched_functions():
    tracer = Tracer()
    tracer.op_id = 7

    class Layer:
        def work(self, x):
            time.sleep(0.001)
            return x * 2

    original_sqrt = math.sqrt
    tracer.patch(Layer, "work", "layer.work")
    tracer.patch(math, "sqrt", "math.sqrt",
                 after=lambda result, args, kwargs: tracer.count("roots"))
    outer = tracer.begin("op")
    assert Layer().work(3) == 6
    assert math.sqrt(16.0) == 4.0
    tracer.end(outer)
    tracer.unpatch_all()
    assert math.sqrt is original_sqrt
    assert "work" in Layer.__dict__ and Layer().work(1) == 2
    names = [(span.name, span.parent, span.op_id) for span in tracer.spans]
    assert names == [("op", None, 7), ("layer.work", 0, 7),
                     ("math.sqrt", 0, 7)]
    assert tracer.counters["roots"] == 1
    assert all(span.end >= span.start for span in tracer.spans)


def test_spans_must_close_in_order():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_write_jsonl_round_trips(tmp_path):
    tracer = Tracer()
    tracer.end(tracer.begin("x"))
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(str(path))
    line = path.read_text().strip()
    assert '"name": "x"' in line and '"op_id": -1' in line
    assert tracing.Span._fields == ("name", "start", "end", "parent",
                                    "op_id")


def test_spans_can_open_and_close_at_given_times():
    tracer = Tracer()
    outer = tracer.begin("wait", at=1.0)
    tracer.end(outer, at=4.0)
    tracer.end(tracer.begin("last", at=4.0))
    assert tracer.spans[0][1:3] == (1.0, 4.0)
    assert tracer.spans[1].start == 4.0 <= tracer.spans[1].end


def test_a_layer_that_is_no_longer_intercepted_is_reported():
    from perfbench.workloads import Workload

    class Declared(Workload):
        traced_spans = ("a.call", "b.call")
        traced_counters = ("a.items", "b.items")

    tracer = Tracer()
    tracer.end(tracer.begin("a.call"))
    tracer.count("a.items", 3)
    tracer.count("b.items", 0)
    assert Declared(1).untraced_layers(tracer) == [
        "span b.call was never recorded", "counter b.items stayed 0"]
    tracer.end(tracer.begin("b.call"))
    tracer.count("b.items")
    assert Declared(1).untraced_layers(tracer) == []
