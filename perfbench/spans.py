"""In-memory spans around functions of the program, installed from outside it.

A span records a name, its start and end (``time.perf_counter``), the
thread it ran on, the span that was open on that thread when it started
(its parent) and a few counts.  Spans started in worker threads have no
parent, because a thread pool does not carry the caller's span across.
Nothing here is imported by the program: ``install`` swaps module and
class attributes for wrappers and ``uninstall`` puts the originals back.
"""

import functools
import importlib
import itertools
import threading
import time


class Span:
    __slots__ = ("id", "parent", "name", "thread", "start", "end", "attrs", "keep")

    def __init__(self, span_id, parent, name, thread, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.thread = thread
        self.start = start
        self.end = None
        self.attrs = {}
        # objects an annotation wants to inspect after the timed part
        self.keep = None

    def to_dict(self):
        return {"id": self.id, "parent": self.parent, "name": self.name, "thread": self.thread,
                "start": self.start, "end": self.end, "attrs": self.attrs}


class Recorder:
    """Collects spans from every thread; one recorder per traced process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        span = Span(next(self._ids), stack[-1].id if stack else None, name,
                    threading.get_ident(), time.perf_counter())
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()


def _wrap(fn, name, annotate, recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if annotate is not None:
            annotate(span, args, kwargs, result)
        return result

    return wrapper


def install(recorder, targets):
    """Wrap each (module, attribute, span name, annotate) target; returns the undo list.

    attribute may be "Class.method".  annotate(span, args, kwargs, result)
    runs after the span has closed, so its cost lands outside the span.
    """
    undo = []
    for module_name, attr, span_name, annotate in targets:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        setattr(owner, leaf, _wrap(original, span_name, annotate, recorder))
        undo.append((owner, leaf, original))
    return undo


def uninstall(undo):
    for owner, leaf, original in reversed(undo):
        setattr(owner, leaf, original)


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given (start, end) intervals."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Map span id -> duration minus the part of it that its child spans cover.

    spans are dicts as written by Span.to_dict.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered_length(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }
