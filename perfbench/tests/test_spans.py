import asyncio
import types

import pytest

from perfbench import spans


def _span(sid, start, end, parent=0):
    return spans.Span(sid, f"s{sid}", start, end, parent, None)


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 6.0, parent=1),   # overlaps span 2
        _span(4, 7.0, 8.0, parent=1),
        _span(5, 7.2, 7.5, parent=4),
        _span(6, 9.5, 12.0, parent=1),  # runs past its parent
    ]
    self_s = spans.self_times(recorded)
    assert self_s[1] == pytest.approx(10.0 - 5.0 - 1.0 - 0.5)
    assert self_s[4] == pytest.approx(0.7)
    assert self_s[5] == pytest.approx(0.3)
    assert [s.sid for s in spans.descendants(recorded)[1]] == [6, 4, 5, 3, 2]


def test_wrap_records_parent_and_request_id_then_restores():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    original = ns.inner
    tracer = spans.Tracer()
    tracer.wrap(ns, "inner", "inner", attrs=lambda a, k, r: {"result": r})
    tracer.wrap(ns, "outer", "outer", rid=lambda a, k: f"req:{a[0]}")
    assert ns.outer(3) == 8
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.sid and outer.parent == 0
    assert inner.rid == outer.rid == "req:3"
    assert inner.attrs == {"result": 4}
    assert outer.start <= inner.start <= inner.end <= outer.end
    tracer.restore()
    assert ns.inner is original


def test_wrap_coroutines_and_round_trip_through_a_file(tmp_path):
    ns = types.SimpleNamespace()

    async def work():
        await asyncio.sleep(0)
        return 1

    ns.work = work
    tracer = spans.Tracer()
    tracer.wrap(ns, "work", "work")
    assert asyncio.run(ns.work()) == 1
    path = tmp_path / "spans.jsonl"
    tracer.dump(str(path))
    (loaded,) = spans.load(str(path))
    assert loaded.name == "work" and loaded.seconds >= 0


def test_a_raising_call_still_closes_its_span():
    ns = types.SimpleNamespace(boom=lambda: 1 / 0)
    tracer = spans.Tracer()
    tracer.wrap(ns, "boom", "boom")
    with pytest.raises(ZeroDivisionError):
        ns.boom()
    assert [s.name for s in tracer.spans] == ["boom"]
