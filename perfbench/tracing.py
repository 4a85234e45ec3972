"""In-memory spans around the benchmark's calls into bookram's public
functions.

``instrument`` swaps each listed function, in every bookram module that holds
it, for a wrapper that opens a span; calls the program makes between its own
modules (the CLI calling ``books.max_book``, ``find_witness`` re-checking a
witness with ``has_mono_book``) therefore nest under the caller's span.
Nothing inside ``src/`` changes: the originals are put back afterwards.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans as [id, name, start, end, parent id, operation id]; counters
    collected at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.operation: int | None = None

    @contextmanager
    def span(self, name: str):
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.operation]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name, total duration minus the time its child spans cover
        (children never overlap, since spans nest on one thread)."""
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            out[name] += (end - start) - child[sid]
        return dict(out)

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def instrument(tracer: Tracer, targets):
    """Wrap each (module, function, span namer, counter hook) target and
    return a function that restores the originals.

    ``namer(args, kwargs)`` gives the span name; ``hook(result, counts)``
    adds the counters a result carries.
    """
    swaps = []
    for module_name, func_name, namer, hook in targets:
        original = getattr(sys.modules[module_name], func_name)
        wrapper = _wrap(tracer, original, namer, hook)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "bookram" or name.startswith("bookram.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    swaps.append((module, attr, original))

    def restore() -> None:
        for module, attr, original in reversed(swaps):
            setattr(module, attr, original)

    return restore


def _wrap(tracer: Tracer, fn, namer, hook):
    def wrapper(*args, **kwargs):
        with tracer.span(namer(args, kwargs)):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(result, tracer.counts)
        return result

    wrapper.__wrapped__ = fn
    return wrapper
