"""In-memory spans around the benchmark's calls into the program.

A span records name, tag, start, end, parent span and op id.  Spans are
kept in a list and written out once, when the run ends.  Self time is a
span's duration minus the part covered by its child spans.  Untraced runs
use :class:`NullTracer`, whose ``call`` is a plain function call.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict


class NullTracer:
    op_id = None

    def call(self, name, tag, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def annotate(self, **values):
        pass

    def span(self, name, tag=None):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, tag=None):
        record = {
            "name": name,
            "tag": tag,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
        }
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name, tag, fn, *args, **kwargs):
        with self.span(name, tag):
            return fn(*args, **kwargs)

    def annotate(self, **values):
        """Attach values (nfev, work counts) to the span that closed last."""
        self.spans[-1].update(values)

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def metric_name(name: str, tag, kind: str) -> str:
    """'heating.theta_rate', 'large', 'ms' -> 'heating.theta_rate_ms.large'."""
    stem = name + ("_ms" if kind == "ms" else ".calls")
    return stem + (f".{tag}" if tag else "")


def layer_metrics(tracer: Tracer) -> dict:
    """Median self time (ms) and call count per (span name, tag), op spans
    excepted."""
    groups = defaultdict(list)
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        if span["name"].endswith(".op"):
            continue
        groups[(span["name"], span["tag"])].append(self_s)
    out = {}
    for (name, tag), values in groups.items():
        out[metric_name(name, tag, "ms")] = (1e3 * statistics.median(values), "ms")
        out[metric_name(name, tag, "calls")] = (len(values), "count")
    return out


def annotated(tracer: Tracer, name: str, key: str) -> list:
    return [s[key] for s in tracer.spans if s["name"] == name and key in s]
