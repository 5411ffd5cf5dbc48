"""Spans around etngen's public functions, installed from outside the package.

Callers look these functions up as module attributes at call time, so
replacing the attribute puts a span around every call without editing the
package. Each span records its name, start, end and parent and stays in
memory until the run ends. Functions called many times per layer are "hot":
they only add to a (count, seconds) total and to their parent's child time,
so that hundreds of thousands of calls do not become as many spans. A
span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.hot: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self._stack: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "start": clock(), "end": None,
               "parent": parent["id"] if parent else None,
               "id": len(self.spans), "child_s": 0.0}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = clock()
            self._stack.pop()
            if parent is not None:
                parent["child_s"] += rec["end"] - rec["start"]

    def _charge_hot(self, name: str, seconds: float) -> None:
        total = self.hot[name]
        total[0] += 1
        total[1] += seconds
        if self._stack:
            self._stack[-1]["child_s"] += seconds

    def wrap(self, module_name: str, attr: str, name: str,
             hot: bool = False, on_return=None) -> None:
        """Replace `module.attr` by a timed wrapper. `on_return(result, args,
        kwargs)` reads counts; its time is charged to "trace.hooks", not to
        the caller's self time."""
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)

        if hot:
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._charge_hot(name, clock() - t0)
        else:
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = fn(*args, **kwargs)
                if on_return is not None:
                    t0 = clock()
                    on_return(result, args, kwargs)
                    self._charge_hot("trace.hooks", clock() - t0)
                return result

        self._restore.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name, hot totals included."""
        out: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            out[rec["name"]] += (rec["end"] - rec["start"]) - rec["child_s"]
        for name, (_, seconds) in self.hot.items():
            out[name] += seconds
        return dict(out)

    def dump(self) -> dict:
        return {"spans": [{k: rec[k] for k in ("id", "name", "start", "end", "parent")}
                          for rec in self.spans],
                "hot": {name: {"calls": c, "seconds": s}
                        for name, (c, s) in self.hot.items()},
                "counts": dict(self.counts)}
