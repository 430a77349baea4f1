"""Outside-in tracer: spans and counts recorded around calls into platoonsim.

The tracer never edits the package.  It replaces a public function at the
attribute the package looks it up through (a module global or a class
attribute) by a wrapper, and puts the original back on ``restore``.  A span
is ``(name, start_ns, end_ns, parent_index, run_id)``; spans stay in memory
until the run ends.  A layer's self time is its span's duration minus the
durations of its child spans.

A child span's wrapper does some work outside its own clock window
(argument packing, the stack and list pushes, the tuple and the count),
which the parent's clock sees.  :func:`span_overhead_ns` measures that work
per call, and :func:`summarize` takes it off every enclosing span.
"""

from __future__ import annotations

import collections
import statistics
import time

OVERHEAD_CALLS = 2000   # calls per round of span_overhead_ns
OVERHEAD_ROUNDS = 5


class Tracer:
    """Records spans and call counts at the boundaries it patches."""

    def __init__(self, run_id=0):
        self.run_id = run_id
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []          # (span index, name) of the open spans
        self._patches = []

    def span(self, name, fn):
        """``fn`` wrapped so that every call records a span named ``name``."""
        spans, stack, counts, run_id = self.spans, self._stack, self.counts, self.run_id
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append((index, name))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, run_id)
                counts[name] += 1

        return traced

    def counter(self, name, fn):
        """``fn`` wrapped so that every call only increments a count.

        Calls made inside an open span are also counted under
        ``"<name> in <innermost span name>"``.
        """
        stack, counts = self._stack, self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            if stack:
                counts[f"{name} in {stack[-1][1]}"] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr, wrap):
        """Replace ``owner.attr`` by ``wrap(original)`` until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def restore(self):
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def span_overhead_ns():
    """Wrapper work per span outside the span's clock window, in ns (median of rounds).

    Calls an empty function with and without a span wrapper; the difference
    per call, less the span's recorded duration, is what one child span
    adds to the duration of the span around it.
    """
    def empty(*args):
        return None

    tracer = Tracer()
    wrapped = tracer.span("empty", empty)
    clock = time.perf_counter_ns
    rounds = []
    for _ in range(OVERHEAD_ROUNDS):
        first = len(tracer.spans)
        start = clock()
        for _ in range(OVERHEAD_CALLS):
            empty(1, 2)
        bare = clock() - start
        start = clock()
        for _ in range(OVERHEAD_CALLS):
            wrapped(1, 2)
        traced = clock() - start
        inside = sum(end - begin for _, begin, end, _, _ in tracer.spans[first:])
        rounds.append((traced - bare - inside) / OVERHEAD_CALLS)
    return statistics.median(rounds)


Stat = collections.namedtuple("Stat", "calls total_ns self_ns")


def summarize(spans, overhead_ns):
    """Per-name call count, total and self time, plus time per (parent, child) edge.

    Each span's duration is taken less ``overhead_ns`` for every span nested
    in it (see :func:`span_overhead_ns`), so a parent's self time is its
    duration less its children's and their wrappers' time.  Returns
    ``(by_name, by_edge)``: ``by_name[name]`` is a :class:`Stat`;
    ``by_edge[(parent_name, child_name)]`` is the summed duration of the
    child's spans opened directly inside a span of the parent (top-level
    spans have parent name ``None``).
    """
    # a span opens after its parent, so its index is the larger one
    nested = [0] * len(spans)
    for index in range(len(spans) - 1, -1, -1):
        parent = spans[index][3]
        if parent >= 0:
            nested[parent] += 1 + nested[index]
    durations = [end - start - nested[index] * overhead_ns
                 for index, (_, start, end, _, _) in enumerate(spans)]
    child_ns = [0] * len(spans)
    for index, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += durations[index]
    calls = collections.Counter()
    total = collections.Counter()
    self_ns = collections.Counter()
    by_edge = collections.Counter()
    for index, (name, _, _, parent, _) in enumerate(spans):
        duration = durations[index]
        calls[name] += 1
        total[name] += duration
        self_ns[name] += duration - child_ns[index]
        by_edge[(spans[parent][0] if parent >= 0 else None, name)] += duration
    by_name = {name: Stat(calls[name], total[name], self_ns[name]) for name in calls}
    return by_name, by_edge


def write_spans(runs, path):
    """Spans of several runs as one CSV; ``index`` and ``parent`` count within a run."""
    with open(path, "w") as fh:
        fh.write("run_id,index,name,start_ns,end_ns,parent\n")
        for spans in runs:
            for index, (name, start, end, parent, run_id) in enumerate(spans):
                fh.write(f"{run_id},{index},{name},{start},{end},{parent}\n")
