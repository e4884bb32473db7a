"""Harness spans: recorded from outside the program, around public calls.

One span per call into a layer: name, start, end, the span that caused
it, the workload and step it belongs to, and work counts.  Spans stay
in memory and are written once, as JSONL, when the run ends.  A layer's
self time is its span minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time


class _Span:
    __slots__ = ("rec", "row")

    def __init__(self, rec: "SpanRecorder", row: dict):
        self.rec, self.row = rec, row

    def add(self, **counts) -> None:
        """Attach work counts measured inside the span."""
        self.row["counts"].update(counts)

    def __enter__(self) -> "_Span":
        self.rec._stack.append(self.row["id"])
        self.row["t0"] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.row["t1"] = time.perf_counter()
        self.rec._stack.pop()


class SpanRecorder:
    """Single-threaded in-memory span store."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        #: Stamped onto every span opened from now on.
        self.workload = ""
        self.step = 0

    def span(self, name: str, **counts) -> _Span:
        row = {"id": len(self.spans),
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "workload": self.workload, "step": self.step,
               "t0": 0.0, "t1": 0.0, "counts": counts}
        self.spans.append(row)
        return _Span(self, row)

    def durations(self, name: str, workload: str) -> list[float]:
        """Durations of the closed spans called ``name`` that carry the
        ``workload`` tag, in call order."""
        return [s["t1"] - s["t0"] for s in self.spans
                if s["name"] == name and s["workload"] == workload]

    def counts(self, name: str, key: str) -> list:
        return [s["counts"][key] for s in self.spans
                if s["name"] == name and key in s["counts"]]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time covered by its children."""
        out = {s["id"]: s["t1"] - s["t0"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["t1"] - s["t0"]
        return out

    def write_jsonl(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "self": selfs[s["id"]]}) + "\n")


class _NullSpan:
    def add(self, **counts) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


class NullRecorder:
    """Recorder for untraced runs: every span is one shared no-op."""

    enabled = False
    workload = ""
    step = 0
    _span = _NullSpan()

    def span(self, name: str, **counts) -> _NullSpan:
        return self._span


NULL = NullRecorder()
