"""Spans and op timers recorded from outside the program.

Every measurement here wraps a public name of the program *where its
caller looks it up* (e.g. ``repro.harness.exp_fleet.run_detector``,
not ``repro.detectors.runner.run_detector``), so nothing under ``src/``
changes and other callers of the same function are left alone.  A
class is wrapped by putting a subclass with wrapped methods in the
caller's namespace.

Two kinds of wrapper exist:

* the *op timer* times the workload's unit of work (a session, an
  action, a round) and runs in untraced runs too, because the
  end-to-end op latency is measured there;
* *layer spans* run only in traced runs.  Spans are kept in memory as
  ``(name, start, end, parent, op)`` tuples and written out at the
  end.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from hostspeed import HostSpeed

_clock = time.perf_counter


class Tracer:
    """In-memory span store plus per-layer counters.

    With ``enabled`` False only op timings are kept; :meth:`span`
    returns the wrapped function unchanged.  The op timer also runs
    the host-speed calibration chunks, between ops.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.speed = HostSpeed()
        #: (name, start, end, parent index or -1, op id)
        self.spans = []
        self.counts = defaultdict(float)
        #: Durations (ms) of every op the op timer saw, and their starts.
        self.op_ms = []
        self.op_at = []
        #: Work units (executed actions, rounds) returned by ops.
        self.op_units = 0
        #: Span calls and counters after the first pass of a loop.
        self.first_calls = {}
        self.first_counts = {}
        self._stack = []
        self._op = 0
        self._patches = []

    # ------------------------------------------------------------ recording

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = _clock()
        self._stack.pop()

    @contextmanager
    def region(self, name):
        """A span around a block of the benchmark's own code (traced
        runs only)."""
        if not self.enabled:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def span(self, fn, name, after=None):
        """*fn* wrapped in a span named *name* (traced runs only).

        *after(result, args)* runs on each return value, for counts
        read off public results.
        """
        if not self.enabled:
            return fn
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def op(self, fn, name, units):
        """*fn* timed as one op; *units(result)* work units it did.

        Always active.  In traced runs the op is also a span, and the
        spans it causes share its op id.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.speed.due():
                with tracer.region("host.calib"):
                    tracer.speed.chunk()
            tracer._op += 1
            index = tracer._open(name) if tracer.enabled else None
            started = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - started
                if index is not None:
                    tracer._close(index)
            tracer.op_ms.append(elapsed * 1000.0)
            tracer.op_at.append(started)
            tracer.op_units += units(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def add(self, name, start, end, op):
        """Record a finished top-level span (for work that overlaps,
        such as concurrent uploads, where nesting does not apply)."""
        if self.enabled:
            self.spans.append([name, start, end, -1, op])

    def count(self, name, value=1):
        """Add to a per-layer counter."""
        self.counts[name] += value

    # ------------------------------------------------------------- patching

    def patch(self, owner, attr, value):
        """Set ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_class(self, module, attr, methods, init=None):
        """Replace ``module.attr`` (a class) with a subclass whose
        *methods* (``{method name: wrapper factory}``) are wrapped;
        *init(instance)* runs after each construction."""
        base = getattr(module, attr)
        namespace = {
            method: factory(getattr(base, method))
            for method, factory in methods.items()
        }
        if init is not None:
            def __init__(self, *args, **kwargs):
                base.__init__(self, *args, **kwargs)
                init(self)
            namespace["__init__"] = __init__
        namespace["__module__"] = base.__module__
        namespace["__qualname__"] = base.__qualname__
        self.patch(module, attr, type(base.__name__, (base,), namespace))

    def restore(self):
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------- analysis

    def layer_times(self):
        """Exclusive seconds per span name: time inside a span of the
        name that is not inside a nested span of another name.  Summed
        over names this equals the time covered by top-level spans."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and self.spans[parent][0] != name:
                child_time[parent] += end - start
        busy = defaultdict(float)
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0 and self.spans[parent][0] == name:
                continue  # nested in itself: counted by the outer span
            busy[name] += (end - start) - child_time[index]
        return busy

    def calls(self):
        """Span count per name, not counting spans nested in a span of
        the same name (a wrapped method calling another one)."""
        counts = defaultdict(int)
        for name, _, _, parent, _ in self.spans:
            if parent < 0 or self.spans[parent][0] != name:
                counts[name] += 1
        return counts

    def write(self, path):
        """Write the spans as JSON lines (times relative to the first
        span, in seconds)."""
        origin = min((span[1] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(
                    self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name,
                    "start": round(start - origin, 7),
                    "end": round(end - origin, 7),
                    "parent": parent, "op": op,
                }) + "\n")
