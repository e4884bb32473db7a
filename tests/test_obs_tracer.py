"""Span tracer unit tests: nesting, counters, clocks, the null path."""

import time

import pytest

from repro.obs import NULL_TRACER, NullTracer, Tracer, VirtualClock, WallClock


def test_span_records_complete_event():
    tr = Tracer(clock=VirtualClock())
    with tr.span("gravity_let", rank=1, cat="phase", step=3):
        pass
    (e,) = tr.events()
    assert e.ph == "X" and e.name == "gravity_let"
    assert e.rank == 1 and e.cat == "phase"
    assert e.args["step"] == 3
    assert e.dur > 0


def test_spans_nest_and_counters_accumulate():
    tr = Tracer(clock=VirtualClock())
    with tr.span("outer", rank=0) as outer:
        with tr.span("inner", rank=0) as inner:
            inner.add(n_pp=10)
            inner.add(n_pp=5, n_pc=2)
        outer.add(flops=100.0)
    inner_e, outer_e = tr.events()  # inner closes first
    assert inner_e.name == "inner" and outer_e.name == "outer"
    assert inner_e.args == {"n_pp": 15, "n_pc": 2}
    assert outer_e.args == {"flops": 100.0}
    # The inner span lies within the outer one.
    assert outer_e.ts <= inner_e.ts
    assert inner_e.ts + inner_e.dur <= outer_e.ts + outer_e.dur


def test_span_duration_property():
    tr = Tracer(clock=VirtualClock(tick=0.5))
    with tr.span("s", rank=0) as sp:
        pass
    assert sp.duration == pytest.approx(0.5)


def test_virtual_clock_is_per_rank_and_deterministic():
    c = VirtualClock(tick=1e-3)
    assert c.deterministic
    assert c.now(0) == 0.0
    assert c.now(0) == pytest.approx(1e-3)
    assert c.now(1) == 0.0          # rank 1 has its own counter
    assert c.peek(0) == pytest.approx(2e-3)
    assert c.peek(0) == pytest.approx(2e-3)   # peek never advances
    assert c.now(0) == pytest.approx(2e-3)


def test_wall_clock_tracks_time():
    c = WallClock()
    assert not c.deterministic
    t0 = c.now(0)
    time.sleep(0.002)
    assert c.now(0) > t0
    assert c.peek(0) >= t0


def test_record_posthoc_span_shares_timestamps():
    tr = Tracer(clock=VirtualClock())
    tr.record("sorting", 2, 1.0, 1.5, cat="phase", step=0)
    (e,) = tr.events()
    assert e.ts == 1.0 and e.dur == pytest.approx(0.5)
    assert e.rank == 2


def test_instant_with_explicit_ts_does_not_advance_clock():
    clock = VirtualClock()
    tr = Tracer(clock=clock)
    tr.instant("fault_delay", rank=0, ts=clock.peek(0), cat="fault")
    assert clock.peek(0) == 0.0     # logical timeline untouched
    (e,) = tr.events()
    assert e.ph == "i" and e.cat == "fault"


def test_flow_endpoints():
    tr = Tracer(clock=VirtualClock())
    tr.flow("s", "0.1.11.0", rank=0, ts=0.0)
    tr.flow("f", "0.1.11.0", rank=1, ts=1.0)
    with pytest.raises(ValueError):
        tr.flow("x", "id", rank=0, ts=0.0)
    s, f = sorted(tr.events(), key=lambda e: e.ph, reverse=True)
    assert s.ph == "s" and f.ph == "f"
    assert s.flow_id == f.flow_id == "0.1.11.0"


def test_events_ordered_by_rank_then_seq():
    tr = Tracer(clock=VirtualClock())
    tr.record("a", 1, 0.0, 1.0)
    tr.record("b", 0, 5.0, 6.0)
    tr.record("c", 0, 7.0, 8.0)
    names = [e.name for e in tr.events()]
    assert names == ["b", "c", "a"]
    assert tr.ranks() == [0, 1]


def test_null_tracer_is_inert_and_cheap():
    nt = NULL_TRACER
    assert isinstance(nt, NullTracer)
    assert not nt.enabled and not nt.clock.deterministic
    with nt.span("anything", rank=0, step=1) as sp:
        sp.add(n_pp=1)
    nt.record("x", 0, 0.0, 1.0)
    nt.instant("y", rank=0)
    nt.flow("s", "id", rank=0, ts=0.0)
    assert nt.events() == []
    # The null span is a shared singleton: no per-call allocation.
    with nt.span("a", rank=0) as s1:
        pass
    with nt.span("b", rank=1) as s2:
        pass
    assert s1 is s2


def test_tracer_clear():
    tr = Tracer(clock=VirtualClock())
    tr.record("a", 0, 0.0, 1.0)
    tr.clear()
    assert tr.events() == []


def test_default_clock_is_wall():
    tr = Tracer()
    assert not tr.clock.deterministic
    with tr.span("s", rank=0):
        time.sleep(0.001)
    (e,) = tr.events()
    assert e.dur > 0
