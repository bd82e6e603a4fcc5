"""In-memory span recorder for the traced benchmark run.

A span is (name, start_ns, end_ns, parent, op): `parent` is the index of the
enclosing span or -1, and `op` is the index of the benchmark op that caused
it.  Spans are kept in a list and written out once, when the run ends, so the
recorder does no I/O while the workload is being timed.
"""

import gzip
import time
from collections import defaultdict

_clock = time.perf_counter_ns


class Recorder:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.op = -1
        self._stack = []

    def enter(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0, parent, self.op])
        self._stack.append(sid)
        return sid

    def exit(self, sid):
        self.spans[sid][2] = _clock()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        sid = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(sid)

    def wrap(self, name, fn):
        """A stand-in for `fn` that records a span around every call.

        Used on the callables the public API accepts (kernels, maps, base
        tests, statistics), so spans land inside library calls without
        touching the library.
        """

        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapped

    def count(self, name, value=1):
        self.counters[name] += value

    def totals(self):
        """Per span name: number of spans, summed duration, summed self time (ns).

        Self time is a span's duration minus the durations of its direct
        children; spans of one op never overlap except by nesting.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            count, total, self_ns = out.get(name, (0, 0, 0))
            out[name] = (count + 1, total + end - start, self_ns + end - start - child_ns[sid])
        return out

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start},{end},{parent},{op}\n")
