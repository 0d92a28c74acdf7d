"""Span recording for the traced run, loaded only when tracing is on.

`install` wraps every public function of chainomaly's cli, anomaly, qca,
opwin, grpcoh and spectra modules, in every one of those namespaces (and
the package's) that binds it, so calls made through `from .x import f`
names are seen too. Spans stay in memory until `write`. The program runs on
one thread (the `threads` cap is left at 1), so spans nest as a stack.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("cli", "anomaly", "qca", "opwin", "grpcoh", "spectra")


class Recorder:
    def __init__(self):
        # (name, start, end, parent index or -1), in order of entry
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, time.perf_counter(), parent)
                stack.pop()

        return traced

    def layer_totals(self) -> dict[str, list[float]]:
        """name -> [self seconds, calls]; self time is a span's duration minus
        the durations of its direct children, which it covers."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list[float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            t = totals.setdefault(name, [0.0, 0])
            t[0] += end - start - child[i]
            t[1] += 1
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def install() -> Recorder:
    rec = Recorder()
    package = importlib.import_module("chainomaly")
    mods = {m: importlib.import_module(f"chainomaly.{m}") for m in MODULES}
    wrapped = {}
    for mname, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                wrapped[obj] = rec.wrap(f"{mname}.{attr}", obj)
    for mod in (package, *mods.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    return rec
