"""Outside-in tracing of the solver's module-level functions.

A ``Tracer`` replaces each target function by a timing wrapper in every
loaded module that holds a reference to it. ``from .closures import
closure_factors`` binds the name in the importing module as well, so
patching only the defining module would miss those calls. Each call
records one span (name, start, end, parent span) in memory; self time is
a span's duration minus the durations of its child spans.

``profile_calls`` counts calls of the original code objects with
``sys.setprofile``, independently of the wrappers. Equal counts show that
every call went through a wrapper, i.e. that no reference was missed.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

OBSERVE = "trace.observe"


class Tracer:
    """Wraps target functions while installed; spans accumulate until reset.

    ``targets`` maps a span name to (module name, attribute, observer).
    An observer, if given, is called as ``observer(counters, args, kwargs,
    result)`` after the call returns; its time is recorded as a child span
    named ``trace.observe`` so that it is not charged to any layer.
    """

    def __init__(self, targets: dict):
        self.targets = targets
        self.names = list(targets) + [OBSERVE]
        self.counters = Counter()
        self._name = array("H")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._undo = []
        self.originals = {}

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def reset(self):
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        self._stack.clear()
        self.counters.clear()

    def install(self):
        wrappers = {}
        for index, (span, (module, attr, observe)) in enumerate(
                self.targets.items()):
            original = getattr(sys.modules[module], attr)
            self.originals[span] = original
            wrappers[id(original)] = self._wrap(index, original, observe)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    namespace[key] = wrapper
                    self._undo.append((namespace, key, value))

    def uninstall(self):
        while self._undo:
            namespace, key, original = self._undo.pop()
            namespace[key] = original

    def _wrap(self, index, fn, observe):
        names, parents = self._name, self._parent
        starts, ends, stack = self._start, self._end, self._stack
        observe_index = len(self.names) - 1
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if observe is not None:
                observe(counters, args, kwargs, result)
                names.append(observe_index)
                parents.append(stack[-1] if stack else -1)
                starts.append(t1)
                ends.append(clock())
            return result

        return wrapper

    def summary(self, step_span: str) -> dict:
        """Per-name call counts and self seconds since the last reset.

        ``in_step`` counts the calls made inside a ``step_span`` span, so
        that calls per step exclude work done between steps.
        """
        n = len(self._name)
        duration = [self._end[i] - self._start[i] for i in range(n)]
        child = [0.0] * n
        inside = bytearray(n)
        step_index = self.names.index(step_span) if step_span in \
            self.names else -1
        calls, in_step = Counter(), Counter()
        self_s = defaultdict(float)
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += duration[i]
                if inside[p]:
                    inside[i] = 1
            if self._name[i] == step_index:
                inside[i] = 1
        for i in range(n):
            name = self.names[self._name[i]]
            calls[name] += 1
            self_s[name] += duration[i] - child[i]
            p = self._parent[i]
            if p >= 0 and inside[p]:
                in_step[name] += 1
        return {"calls": calls, "in_step": in_step, "self_s": self_s,
                "counters": Counter(self.counters)}


def profile_calls(originals: dict, fn):
    """Run ``fn()`` and count the calls of each original code object.

    Returns (result of fn, Counter of span name -> calls).
    """
    codes = {f.__code__: name for name, f in originals.items()}
    counts = Counter()

    def hook(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                counts[name] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return result, counts
