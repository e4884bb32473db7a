"""Nestable per-rank span tracing with a pluggable clock.

A :class:`Tracer` collects :class:`TraceEvent` records -- spans
(``ph="X"``), instants (``ph="i"``) and flow endpoints (``ph="s"`` /
``ph="f"``, linking a send to its matching recv) -- tagged with the
emitting rank.  Every event carries a per-rank sequence number assigned
under the tracer lock, so exports can order events deterministically
(rank lane, then emission order) independent of thread scheduling.

Events are pushed, as they are emitted, into one or more pluggable
:class:`~repro.obs.sink.Sink` objects (``sink=``): the default
:class:`~repro.obs.sink.BufferSink` reproduces the classic buffer-all
behaviour, a :class:`~repro.obs.sink.RingSink` caps memory with drop
accounting, and a :class:`~repro.obs.sink.StreamingJsonlSink` writes
the run to disk incrementally -- O(1) tracer memory however long the
run (docs/OBSERVABILITY.md section 8).

The disabled path is :data:`NULL_TRACER`: ``enabled`` is False, ``span``
returns a shared no-op context manager and every recording method is a
single early-returning call, so instrumented code costs nothing when
tracing is off.  Hot kernels are never instrumented at all -- spans sit
at phase/message granularity.

Usage::

    tracer = Tracer()                       # wall clock
    with tracer.span("gravity_let", rank=2, step=7) as sp:
        ...walk a LET...
        sp.add(n_pp=dpp, n_cells=42)        # attach counters

    tracer = Tracer(clock=VirtualClock())   # deterministic test traces
    tracer = Tracer(sink="run.jsonl")       # stream to disk as it runs
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import defaultdict
from typing import Any

from .clock import VirtualClock, WallClock
from .sink import BufferSink, Sink, TeeSink, coerce_sink


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One trace record in Chrome trace-event terms."""

    rank: int
    seq: int                  # per-rank emission index (export sort key)
    ph: str                   # "X" span, "i" instant, "s"/"f" flow
    name: str
    cat: str
    ts: float                 # seconds (clock domain of the tracer)
    dur: float = 0.0          # seconds; spans only
    args: dict[str, Any] = dataclasses.field(default_factory=dict)
    flow_id: str | None = None


class _Span:
    """Context manager recording one span on exit."""

    __slots__ = ("_tracer", "name", "rank", "cat", "args", "t0", "t1")

    def __init__(self, tracer: "Tracer", name: str, rank: int, cat: str,
                 args: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.rank = rank
        self.cat = cat
        self.args = args
        self.t0 = 0.0
        self.t1 = 0.0

    def add(self, **counters: Any) -> None:
        """Attach/accumulate counters (flops, bytes, ...) onto the span."""
        for k, v in counters.items():
            if k in self.args and isinstance(v, (int, float)) \
                    and not isinstance(v, bool):
                self.args[k] = self.args[k] + v
            else:
                self.args[k] = v

    @property
    def duration(self) -> float:
        """Span length in clock seconds (valid after exit)."""
        return self.t1 - self.t0

    def __enter__(self) -> "_Span":
        self.t0 = self._tracer.clock.now(self.rank)
        return self

    def __exit__(self, *exc) -> None:
        self.t1 = self._tracer.clock.now(self.rank)
        self._tracer._emit(TraceEvent(
            rank=self.rank, seq=self._tracer._next_seq(self.rank), ph="X",
            name=self.name, cat=self.cat, ts=self.t0,
            dur=self.t1 - self.t0, args=self.args))


class _NullSpan:
    """Shared do-nothing span for the disabled tracer."""

    __slots__ = ()
    t0 = 0.0
    t1 = 0.0
    duration = 0.0

    def add(self, **counters: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op fast path."""

    enabled = False
    clock = WallClock()

    def now(self, rank: int = 0) -> float:
        return time.perf_counter()

    def span(self, name: str, rank: int = 0, cat: str = "phase",
             **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def record(self, name: str, rank: int, t0: float, t1: float,
               cat: str = "phase", **attrs: Any) -> None:
        pass

    def instant(self, name: str, rank: int = 0, ts: float | None = None,
                cat: str = "mark", **attrs: Any) -> None:
        pass

    def flow(self, ph: str, flow_id: str, rank: int, ts: float,
             name: str = "msg", cat: str = "comm") -> None:
        pass

    def events(self) -> list[TraceEvent]:
        return []

    def bind_metrics(self, registry) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: The process-wide disabled tracer.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans/instants/flows from every rank of a run.

    Parameters
    ----------
    clock:
        A :class:`~repro.obs.clock.WallClock` (default) or
        :class:`~repro.obs.clock.VirtualClock` for deterministic traces.
    sink:
        Where emitted events go: a :class:`~repro.obs.sink.Sink`, a
        sink *spec* accepted by :func:`~repro.obs.sink.coerce_sink`
        (path -> streaming JSONL, int -> ring), or a list of either
        (tee).  Default: one unbounded
        :class:`~repro.obs.sink.BufferSink` (the classic post-hoc
        export path).
    """

    enabled = True

    def __init__(self, clock=None, sink=None):
        self.clock = clock if clock is not None else WallClock()
        self._lock = threading.Lock()
        self._seq: dict[int, int] = defaultdict(int)
        if sink is None:
            self._sinks: list[Sink] = [BufferSink()]
        else:
            coerced = coerce_sink(sink)
            self._sinks = list(coerced.sinks) \
                if isinstance(coerced, TeeSink) else [coerced]

    @property
    def sinks(self) -> tuple[Sink, ...]:
        """The sinks receiving this tracer's events."""
        with self._lock:
            return tuple(self._sinks)

    def add_sink(self, sink) -> Sink:
        """Attach an additional sink (spec coerced); returns it."""
        s = coerce_sink(sink)
        with self._lock:
            self._sinks.append(s)
        return s

    def bind_metrics(self, registry) -> None:
        """Give every sink a registry for its accounting (e.g. the ring
        sink's ``trace_events_dropped_total``).  The SPMD runtime calls
        this from ``SimWorld.attach_tracer``."""
        for s in self.sinks:
            s.bind_metrics(registry)

    def now(self, rank: int = 0) -> float:
        """This rank's clock time (advances a virtual clock)."""
        return self.clock.now(rank)

    def _next_seq(self, rank: int) -> int:
        with self._lock:
            s = self._seq[rank]
            self._seq[rank] = s + 1
            return s

    def _emit(self, event: TraceEvent) -> None:
        with self._lock:
            for s in self._sinks:
                s.emit(event)

    # -- producer API ------------------------------------------------------

    def span(self, name: str, rank: int = 0, cat: str = "phase",
             **attrs: Any) -> _Span:
        """Context manager timing one nested span on ``rank``'s lane."""
        return _Span(self, name, rank, cat, dict(attrs))

    def record(self, name: str, rank: int, t0: float, t1: float,
               cat: str = "phase", **attrs: Any) -> None:
        """Record a span post-hoc from caller-supplied clock timestamps.

        Drivers that also feed :class:`~repro.core.step.StepBreakdown`
        use this so the trace and the breakdown share one measurement.
        """
        self._emit(TraceEvent(rank=rank, seq=self._next_seq(rank), ph="X",
                              name=name, cat=cat, ts=t0, dur=t1 - t0,
                              args=attrs))

    def instant(self, name: str, rank: int = 0, ts: float | None = None,
                cat: str = "mark", **attrs: Any) -> None:
        """Record a point event.  Passing an explicit ``ts`` (e.g. from
        ``clock.peek``) leaves the rank's logical clock untouched --
        fault injections use that so they never shift the timeline."""
        if ts is None:
            ts = self.clock.now(rank)
        self._emit(TraceEvent(rank=rank, seq=self._next_seq(rank), ph="i",
                              name=name, cat=cat, ts=ts, args=attrs))

    def flow(self, ph: str, flow_id: str, rank: int, ts: float,
             name: str = "msg", cat: str = "comm") -> None:
        """Record one flow endpoint: ``ph="s"`` at the send site,
        ``ph="f"`` at the matching recv (same ``flow_id``)."""
        if ph not in ("s", "f"):
            raise ValueError(f"flow ph must be 's' or 'f', got {ph!r}")
        self._emit(TraceEvent(rank=rank, seq=self._next_seq(rank), ph=ph,
                              name=name, cat=cat, ts=ts, flow_id=flow_id))

    # -- consumer API ------------------------------------------------------

    def events(self) -> list[TraceEvent]:
        """Retained events ordered by (rank, emission index).

        Comes from the first retaining sink: everything for the default
        :class:`~repro.obs.sink.BufferSink`, the newest tail for a
        :class:`~repro.obs.sink.RingSink`, and ``[]`` for a purely
        streaming tracer (whose events live on disk -- that is the
        O(1)-memory point).
        """
        for s in self.sinks:
            if s.retains:
                return s.events()
        return []

    def ranks(self) -> list[int]:
        """Ranks that emitted at least one retained event."""
        return sorted({e.rank for e in self.events()})

    def clear(self) -> None:
        """Drop retained events (sequence numbers keep counting)."""
        for s in self.sinks:
            s.clear()

    def flush(self) -> None:
        """Flush every sink (streaming sinks push buffers to disk)."""
        for s in self.sinks:
            s.flush()

    def close(self) -> None:
        """Close every sink; streaming JSONL files are finalised here."""
        for s in self.sinks:
            s.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PhaseClock:
    """One rank's phase-boundary clock and span recorder.

    ``comm`` is anything with ``tracer`` and ``rank``.  :meth:`now` reads
    the tracer's clock (wall time when tracing is off) and :meth:`rec`
    turns two such readings into a ``cat="phase"`` span labelled with
    ``step`` and returns their difference for the caller to book -- so a
    :class:`~repro.core.step.StepBreakdown` and the trace are one
    measurement, two views.
    """

    def __init__(self, comm, step: int | None = None):
        self.comm, self.step = comm, step

    def now(self) -> float:
        return self.comm.tracer.now(self.comm.rank)

    def rec(self, name: str, t0: float, t1: float, **attrs: Any) -> float:
        if self.step is not None:
            attrs = {"step": self.step, **attrs}
        self.comm.tracer.record(name, self.comm.rank, t0, t1, cat="phase",
                                **attrs)
        return t1 - t0
