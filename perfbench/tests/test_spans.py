"""Span recording and self-time arithmetic of the benchmark's tracer.

Run with: python3 -m pytest perfbench/tests
"""

import os
import sys
import threading
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import spans  # noqa: E402


def span(span_id, parent, name, start, end, **attrs):
    return {"id": span_id, "parent": parent, "name": name, "thread": 1,
            "start": start, "end": end, "attrs": attrs}


class TestSelfTime:
    def test_nested_children_are_subtracted_once(self):
        tree = [
            span(1, None, "root", 0.0, 10.0),
            span(2, 1, "a", 1.0, 4.0),
            span(3, 2, "a.inner", 2.0, 3.0),
            span(4, 1, "b", 5.0, 6.5),
        ]
        selfs = spans.self_times(tree)
        assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.5)
        assert selfs[2] == pytest.approx(3.0 - 1.0)
        assert selfs[3] == pytest.approx(1.0)
        assert selfs[4] == pytest.approx(1.5)

    def test_overlapping_children_count_their_union(self):
        tree = [span(1, None, "root", 0.0, 10.0),
                span(2, 1, "x", 1.0, 5.0),
                span(3, 1, "y", 4.0, 6.0)]
        assert spans.self_times(tree)[1] == pytest.approx(5.0)

    def test_children_are_clipped_to_the_parent(self):
        assert spans.covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
        assert spans.covered_length([], 0.0, 10.0) == 0.0


class TestRecorder:
    def test_parent_is_the_open_span_on_the_same_thread(self):
        rec = spans.Recorder()
        outer = rec.open("outer")
        inner = rec.open("inner")
        rec.close(inner)
        seen = {}

        def other():
            s = rec.open("worker")
            rec.close(s)
            seen["parent"] = s.parent

        t = threading.Thread(target=other)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        rec.close(outer)
        assert inner.parent == outer.id
        assert outer.parent is None
        assert seen["parent"] is None
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_install_wraps_and_uninstall_restores(self, monkeypatch):
        module = types.ModuleType("fake_layer")

        class Model:
            def predict(self, x):
                return x * 2

        def work(x):
            return x + 1

        module.work = work
        module.Model = Model
        monkeypatch.setitem(sys.modules, "fake_layer", module)
        rec = spans.Recorder()
        noted = []
        undo = spans.install(rec, [
            ("fake_layer", "work", "layer.work", lambda s, a, k, r: noted.append(r)),
            ("fake_layer", "Model.predict", "layer.predict", None),
        ])
        assert module.work(1) == 2
        assert module.Model().predict(3) == 6
        assert [s.name for s in rec.spans] == ["layer.work", "layer.predict"]
        assert noted == [2]
        spans.uninstall(undo)
        assert module.work is work
        assert module.Model.__dict__["predict"] is Model.__dict__["predict"]

    def test_span_closes_when_the_call_raises(self, monkeypatch):
        module = types.ModuleType("fake_raise")

        def boom():
            raise ValueError("no")

        module.boom = boom
        monkeypatch.setitem(sys.modules, "fake_raise", module)
        rec = spans.Recorder()
        undo = spans.install(rec, [("fake_raise", "boom", "layer.boom", None)])
        with pytest.raises(ValueError):
            module.boom()
        spans.uninstall(undo)
        assert rec.spans[0].end is not None
        assert rec._stack() == []
