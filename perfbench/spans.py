"""Span recording around the program's public functions, from outside.

A ``Tracer`` replaces selected attributes (a function as bound in the module
that calls it, or a method on a class) with wrappers that record one span per
call: kind, start, end, parent span and pass id. Spans stay in memory until
the run ends. Nothing inside the program is changed; ``restore`` puts every
original attribute back.

Self time of a span is its duration minus the durations of its direct
children, so the self times of all spans in a pass plus the time no span
covers add up exactly to the pass's wall time.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []  # [kind, start, end, parent index, pass id]
        self.stack: list[int] = []
        self.pass_id = -1
        self.observers: dict = defaultdict(list)  # kind -> callbacks(args, result, seconds)
        self._patched: list = []

    # -- recording --------------------------------------------------------

    def _open(self, kind: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([kind, 0.0, 0.0, parent, self.pass_id])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self.stack.pop()
        span = self.spans[idx]
        span[1] = start
        span[2] = end

    def wrap(self, fn, kind: str):
        observers = self.observers[kind]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(kind)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._close(idx, start, end)
            for observe in observers:
                observe(args, result, end - start)
            return result

        return traced

    def wrap_generator(self, fn, kind: str):
        """Wrap a generator function: one span per resumption of the generator."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = self._open(kind)
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(idx, start, perf_counter())
                yield item

        return traced

    def observe(self, kind: str, callback) -> None:
        self.observers[kind].append(callback)

    def patch(self, owner, attr: str, kind: str, generator: bool = False) -> None:
        original = getattr(owner, attr)
        wrapper = self.wrap_generator(original, kind) if generator else self.wrap(original, kind)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def summary(self, pass_id: int, wall: float) -> dict:
        """Per kind: calls and self seconds; plus the time no span covers."""
        spans = self.spans
        child_time = defaultdict(float)
        covered = 0.0
        for kind, start, end, parent, pid in spans:
            if pid != pass_id:
                continue
            if parent < 0:
                covered += end - start
            else:
                child_time[parent] += end - start
        kinds: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for idx, (kind, start, end, parent, pid) in enumerate(spans):
            if pid != pass_id:
                continue
            entry = kinds[kind]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[idx]
        return {"kinds": dict(kinds), "unattributed_s": wall - covered}

    def write(self, path) -> None:
        """Write every span as gzip-compressed JSON (times relative to the first span)."""
        kinds = sorted({s[0] for s in self.spans})
        code = {k: i for i, k in enumerate(kinds)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [code[k], round(s - t0, 9), round(e - t0, 9), parent, pid]
            for k, s, e, parent, pid in self.spans
        ]
        doc = {"fields": ["kind", "start_s", "end_s", "parent", "pass"], "kinds": kinds, "spans": rows}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
