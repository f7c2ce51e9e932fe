"""Spans around the benchmark's calls into satkit, kept in memory.

A span is (name, start, end, parent index, item id); the name is
``layer.function``.  With tracing off, ``Tracer.call`` is a plain call.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._open: list[int] = []
        self.item = "setup"

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent, self.item)

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span named by ``name``,
        a string or a function of the call's arguments."""
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            return self.call(label, fn, *args, **kwargs)
        return traced

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Per layer, the time its spans cover minus their children's."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, float] = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            out[name.split(".", 1)[0]] += t
        return out

    def write(self, path) -> None:
        """One JSON array per line, after a header line naming the fields;
        a span's id, which parents refer to, is its 0-based line number
        after the header."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "item"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class ModuleView:
    """A module whose listed functions are traced; the rest pass through."""

    def __init__(self, module, tracer: Tracer, layer: str, names):
        self._module = module
        for n in names:
            setattr(self, n, tracer.wrap(f"{layer}.{n}", getattr(module, n)))

    def __getattr__(self, attr):
        return getattr(self._module, attr)
