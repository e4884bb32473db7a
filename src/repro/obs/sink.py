"""Streaming trace sinks: where tracer events go as they are emitted.

PR 2's tracer buffered every event in an unbounded list and all
serialisation happened post-hoc -- O(steps) memory, exactly what breaks
on long runs.  A :class:`Sink` receives each :class:`TraceEvent` the
moment it is recorded, so memory and I/O policy become pluggable:

- :class:`BufferSink`    -- the classic unbounded in-memory buffer
  (the :class:`~repro.obs.tracer.Tracer` default, for post-hoc export);
- :class:`RingSink`      -- bounded ring keeping the newest ``capacity``
  events; overflow *drops the oldest* with accounting (a ``dropped``
  count, a one-shot :class:`TraceDropWarning` and, once bound to a
  registry, the ``trace_events_dropped_total`` counter) instead of
  growing silently.  The live dashboard tails one of these;
- :class:`StreamingJsonlSink` -- incremental JSONL file writer with a
  configurable flush cadence.  Events spool to one part-file per rank
  (a rank's events arrive in sequence order, so each part streams
  append-only); :meth:`~StreamingJsonlSink.close` concatenates the
  parts in rank order, which *byte-reproduces* the post-hoc
  ``write_jsonl`` output -- one serialisation, two paths;
- :class:`TeeSink` / :class:`NullSink` -- fan-out and discard.

``encode_jsonl_line`` is the single canonical per-event serialisation;
:func:`repro.obs.export.jsonl_lines` is now a consumer of it, so the
buffered exporter and the streaming sink cannot diverge (the
determinism suite pins byte equality).
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from collections import deque
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .metrics import MetricsRegistry
    from .tracer import TraceEvent


class TraceDropWarning(RuntimeWarning):
    """A bounded sink dropped trace events (see ``dropped`` accounting)."""


def encode_jsonl_line(e: "TraceEvent") -> str:
    """Canonical JSONL serialisation of one event (no trailing newline).

    Shared by the buffered exporter (:func:`repro.obs.export.jsonl_lines`)
    and :class:`StreamingJsonlSink`: sorted keys, fixed separators, keys
    present only when meaningful -- a deterministic event yields
    deterministic bytes.
    """
    rec: dict[str, Any] = {"rank": e.rank, "seq": e.seq, "ph": e.ph,
                           "name": e.name, "cat": e.cat, "ts": e.ts}
    if e.ph == "X":
        rec["dur"] = e.dur
    if e.args:
        rec["args"] = e.args
    if e.flow_id is not None:
        rec["flow_id"] = e.flow_id
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


class Sink:
    """Receives trace events as they are emitted.

    Subclasses override :meth:`emit`; the lifecycle hooks
    (:meth:`flush`, :meth:`close`, :meth:`clear`) and the retention API
    (:attr:`retains` / :meth:`events`) default to no-ops so write-only
    sinks stay minimal.  Sinks are context managers (``close`` on exit).
    """

    #: True when :meth:`events` returns (some of) the received events.
    retains = False

    def emit(self, event: "TraceEvent") -> None:
        """Receive one event (called under the tracer's lock)."""
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered state to its destination (no-op by default)."""

    def close(self) -> None:
        """Flush and release resources; further emits are undefined."""

    def clear(self) -> None:
        """Drop retained events (no-op for write-only sinks)."""

    def events(self) -> list["TraceEvent"]:
        """Retained events ordered by ``(rank, seq)`` (empty if none)."""
        return []

    def bind_metrics(self, registry: "MetricsRegistry") -> None:
        """Attach a metrics registry for sink-side accounting (no-op)."""

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullSink(Sink):
    """Discards every event (tracing enabled, output nowhere)."""

    def emit(self, event: "TraceEvent") -> None:
        pass


#: Shared process-wide discard sink.
NULL_SINK = NullSink()


class BufferSink(Sink):
    """Unbounded in-memory buffer -- the classic post-hoc export path."""

    retains = True

    def __init__(self) -> None:
        self._events: list["TraceEvent"] = []

    def emit(self, event: "TraceEvent") -> None:
        self._events.append(event)

    def events(self) -> list["TraceEvent"]:
        return sorted(self._events, key=lambda e: (e.rank, e.seq))

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)


class RingSink(Sink):
    """Bounded ring buffer keeping the newest ``capacity`` events.

    Overflow evicts the oldest event and accounts for it: the
    :attr:`dropped` counter always, a one-shot :class:`TraceDropWarning`
    on the first drop, and the ``trace_events_dropped_total`` counter of
    any bound registry (drops that happened before binding are folded in
    at bind time, so the counter never under-reports).
    """

    retains = True

    def __init__(self, capacity: int,
                 registry: "MetricsRegistry | None" = None):
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.capacity = capacity
        self.dropped = 0
        self._ring: deque["TraceEvent"] = deque()
        self._lock = threading.Lock()
        self._counter = None
        self._warned = False
        if registry is not None:
            self.bind_metrics(registry)

    def bind_metrics(self, registry: "MetricsRegistry") -> None:
        with self._lock:
            counter = registry.counter(
                "trace_events_dropped_total",
                "Trace events evicted from a bounded sink before export")
            if counter is not self._counter and self.dropped:
                counter.inc(self.dropped)
            self._counter = counter

    def emit(self, event: "TraceEvent") -> None:
        # The ring update (evict + account + append) completes under the
        # lock before any side effect that can raise: with warnings
        # escalated to errors (pytest -W error), the one-shot
        # TraceDropWarning must not lose the incoming event, and every
        # drop in a sustained burst must still reach the registry
        # counter.
        counter = None
        warn = False
        with self._lock:
            if len(self._ring) >= self.capacity:
                self._ring.popleft()
                self.dropped += 1
                counter = self._counter
                if not self._warned:
                    self._warned = True
                    warn = True
            self._ring.append(event)
        if counter is not None:
            counter.inc()
        if warn:
            warnings.warn(
                f"RingSink(capacity={self.capacity}) is full: "
                "oldest trace events are being dropped (see "
                "trace_events_dropped_total)", TraceDropWarning,
                stacklevel=2)

    def events(self) -> list["TraceEvent"]:
        with self._lock:
            return sorted(self._ring, key=lambda e: (e.rank, e.seq))

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


class StreamingJsonlSink(Sink):
    """Incremental JSONL writer: O(1) tracer memory on runs of any length.

    Events are serialised with :func:`encode_jsonl_line` the moment they
    arrive and appended to one spool file per rank
    (``<path>.rank<r>.part``); at most ``flush_every`` lines per rank
    are ever held in memory.  Because every rank emits its own events in
    sequence order (each rank is one thread), each part file is already
    sorted by ``seq`` -- so :meth:`close` just concatenates the parts in
    rank order into ``path`` and deletes them, producing bytes identical
    to the post-hoc ``write_jsonl`` of a buffered run.

    Parameters
    ----------
    path:
        Final JSONL file (created/overwritten at :meth:`close`).
    flush_every:
        Lines buffered per rank before appending to its part file.
    keep_parts:
        Leave the per-rank part files next to ``path`` after the merge
        (useful for per-rank tailing).
    """

    def __init__(self, path, flush_every: int = 64,
                 keep_parts: bool = False):
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = os.fspath(path)
        self.flush_every = flush_every
        self.keep_parts = keep_parts
        #: High-water mark of lines buffered for any one rank (the
        #: bounded-memory property the tests assert).
        self.max_buffered = 0
        self.n_events = 0
        self._buf: dict[int, list[str]] = {}
        self._files: dict[int, Any] = {}
        self._lock = threading.Lock()
        self._closed = False

    def _part_path(self, rank: int) -> str:
        return f"{self.path}.rank{rank}.part"

    def emit(self, event: "TraceEvent") -> None:
        line = encode_jsonl_line(event)
        with self._lock:
            if self._closed:
                raise ValueError(f"sink for {self.path!r} is closed")
            buf = self._buf.setdefault(event.rank, [])
            buf.append(line)
            self.n_events += 1
            if len(buf) > self.max_buffered:
                self.max_buffered = len(buf)
            if len(buf) >= self.flush_every:
                self._flush_rank(event.rank)

    def _flush_rank(self, rank: int) -> None:
        buf = self._buf.get(rank)
        if not buf:
            return
        fh = self._files.get(rank)
        if fh is None:
            fh = self._files[rank] = open(self._part_path(rank), "w")
        fh.write("".join(line + "\n" for line in buf))
        buf.clear()

    def flush(self) -> None:
        """Append every buffered line to its part file and fsync-flush."""
        with self._lock:
            for rank in list(self._buf):
                self._flush_rank(rank)
            for fh in self._files.values():
                fh.flush()

    def close(self) -> None:
        """Flush, then merge part files (rank order) into ``path``."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for rank in list(self._buf):
                self._flush_rank(rank)
            for fh in self._files.values():
                fh.close()
            with open(self.path, "w") as out:
                for rank in sorted(self._files):
                    with open(self._part_path(rank)) as part:
                        for chunk in iter(lambda p=part: p.read(1 << 16), ""):
                            out.write(chunk)
            if not self.keep_parts:
                for rank in self._files:
                    os.unlink(self._part_path(rank))
            self._files.clear()
            self._buf.clear()


class TeeSink(Sink):
    """Fans every event out to several sinks (e.g. buffer + stream)."""

    def __init__(self, *sinks: Sink):
        if not sinks:
            raise ValueError("TeeSink needs at least one sink")
        self.sinks = tuple(sinks)

    @property
    def retains(self) -> bool:  # type: ignore[override]
        return any(s.retains for s in self.sinks)

    def emit(self, event: "TraceEvent") -> None:
        for s in self.sinks:
            s.emit(event)

    def flush(self) -> None:
        for s in self.sinks:
            s.flush()

    def close(self) -> None:
        for s in self.sinks:
            s.close()

    def clear(self) -> None:
        for s in self.sinks:
            s.clear()

    def events(self) -> list["TraceEvent"]:
        for s in self.sinks:
            if s.retains:
                return s.events()
        return []

    def bind_metrics(self, registry: "MetricsRegistry") -> None:
        for s in self.sinks:
            s.bind_metrics(registry)


def coerce_sink(spec) -> Sink:
    """Turn a sink *spec* into a :class:`Sink`.

    - a :class:`Sink` passes through;
    - a ``str`` / ``os.PathLike`` becomes a :class:`StreamingJsonlSink`
      writing there;
    - an ``int`` becomes a :class:`RingSink` of that capacity;
    - a list/tuple becomes a :class:`TeeSink` of its coerced members.

    This is what the drivers' ``trace_sink=`` option accepts.
    """
    if isinstance(spec, Sink):
        return spec
    if isinstance(spec, bool):
        raise TypeError("cannot make a trace sink from a bool")
    if isinstance(spec, int):
        return RingSink(spec)
    if isinstance(spec, (str, os.PathLike)):
        return StreamingJsonlSink(spec)
    if isinstance(spec, (list, tuple)):
        return TeeSink(*(coerce_sink(s) for s in spec))
    raise TypeError(f"cannot make a trace sink from {type(spec).__name__}")
