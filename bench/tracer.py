"""Spans around calls into hetecf's public functions, recorded from outside.

A :class:`Tracer` replaces each named function with a timing wrapper in
the module that defines it and in every ``hetecf`` module that bound the
same object with ``from ... import``, so calls between the package's own
modules are seen too.  Spans (name, start, end, parent, info) are kept in
memory; :meth:`Tracer.restore` puts every original back.  A function
that is missing reports as absent instead of failing the run.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "hetecf"


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.info = None

    def as_dict(self):
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "info": self.info,
        }


def covered_length(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        clipped = [
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(i, ())
        ]
        out.append((s.end - s.start) - covered_length(clipped))
    return out


class Tracer:
    """Installs wrappers for ``targets`` and records one span per call.

    ``targets`` maps a span name to ``(module, attribute, info)`` where
    ``attribute`` may be ``"Class.method"`` and ``info(args, kwargs,
    result)`` optionally extracts counts from a call.
    """

    def __init__(self, targets):
        self.targets = targets
        self.spans = []
        self.absent = []
        self._stack = []
        self._patches = []

    def _wrapper(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                try:
                    span.info = info(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError, OSError):
                    span.info = None  # the call's shape changed; count it as absent
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for name, (module_name, attr, info) in self.targets.items():
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            *owner_path, leaf = attr.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = None if owner is None else owner.__dict__.get(leaf)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapped = self._wrapper(name, original, info)
            self._set(owner, leaf, wrapped)
            if owner_path:
                continue  # a method: patching its class reaches every caller
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not (
                    mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
                ):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        return self

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False


def outermost(spans, i):
    """True when no ancestor of span ``i`` has the same name."""
    p = spans[i].parent
    while p >= 0 and spans[p].name != spans[i].name:
        p = spans[p].parent
    return p < 0


def summarize(spans):
    """Per span name: calls, inclusive seconds, self seconds, infos.

    Inclusive time counts only the outermost span of a name, so a
    function that calls itself is not counted twice.
    """
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "infos": []})
    for i, s in enumerate(spans):
        entry = out[s.name]
        entry["calls"] += 1
        entry["self_seconds"] += selfs[i]
        if s.info is not None:
            entry["infos"].append(s.info)
        if outermost(spans, i):
            entry["seconds"] += s.end - s.start
    return dict(out)
