"""In-memory span tracer for the benchmark's traced runs.

A span records a name, the CNN layer it ran for, its start and end on
`time.perf_counter_ns`, and the index of the span that was open when it
started (its parent). Spans are kept in a list and only written out at the
end of a run. A span's self time is its duration minus the durations of
its direct children.

Spans are opened around public csfsim functions by replacing the module
attributes the CLI path looks them up through, for example
`csfsim.cli.dense_conv` or `csfsim.engine.run_conv`, and putting the
originals back when the traced pass ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start_ns, end_ns, parent]
        self.layer = ""
        self._open = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, self.layer, time.perf_counter_ns(), 0, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_seconds(self):
        """{(name, layer): self seconds} summed over all closed spans."""
        child_ns = [0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals = defaultdict(float)
        for i, (name, layer, start, end, parent) in enumerate(self.spans):
            totals[name, layer] += (end - start - child_ns[i]) / 1e9
        return dict(totals)

    def by_name(self):
        """{name: (self seconds, call count)} over all layers."""
        out = defaultdict(lambda: [0.0, 0])
        for (name, _layer), seconds in self.self_seconds().items():
            out[name][0] += seconds
        for name, *_ in self.spans:
            out[name][1] += 1
        return {name: tuple(v) for name, v in out.items()}


@contextmanager
def patched(replacements):
    """Temporarily set (module, attribute) -> value; always restores."""
    saved = [(module, attr, getattr(module, attr))
             for (module, attr) in replacements]
    try:
        for (module, attr), value in replacements.items():
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)
