"""Trace determinism: virtual-clock runs export byte-identical JSON.

Thread scheduling in SimMPI is real, so wall-clock traces differ run to
run; the :class:`~repro.obs.VirtualClock` plus per-rank sequence
ordering removes every nondeterministic input from the exported bytes.
These tests pin that property -- including across *maskable* fault
schedules, where injected faults may only add ``cat="fault"`` instants,
never move the logical timeline (the injection sites use ``peek``).
"""

import pytest

from repro import SimulationConfig
from repro.core.parallel_simulation import run_parallel_simulation
from repro.core.simulation import Simulation
from repro.faults import FaultyWorld
from repro.ics import plummer_model
from repro.obs import (
    StreamingJsonlSink,
    Tracer,
    VirtualClock,
    chrome_trace_json,
    jsonl_lines,
    write_jsonl,
)
from repro.simmpi import SimWorld

#: Every maskable fault kind at once (mirrors tests/harness/test_faults).
MASKABLE = "delay(prob=0.3, max=1ms); reorder(prob=0.5); duplicate(prob=0.25)"

N_RANKS = 2
N = 400


@pytest.fixture(scope="module")
def cfg():
    return SimulationConfig(theta=0.6, softening=0.02, dt=0.01)


def _traced_run(cfg, world=None, transport="threads", n_ranks=N_RANKS):
    tracer = Tracer(clock=VirtualClock())
    particles = plummer_model(N, seed=5)
    if world is None and transport == "threads":
        world = SimWorld(n_ranks)
    run_parallel_simulation(n_ranks, particles, cfg, n_steps=2,
                            world=world, trace=tracer, transport=transport)
    return tracer


def test_parallel_trace_byte_identical_across_runs(cfg):
    a = chrome_trace_json(_traced_run(cfg))
    b = chrome_trace_json(_traced_run(cfg))
    assert a == b


def test_float32_fast_path_trace_byte_identical():
    """Reduced-precision kernels don't reintroduce nondeterminism."""
    c32 = SimulationConfig(theta=0.6, softening=0.02, dt=0.01,
                           precision="float32")
    assert chrome_trace_json(_traced_run(c32)) == \
        chrome_trace_json(_traced_run(c32))


def test_jsonl_byte_identical_across_runs(cfg):
    a = "\n".join(jsonl_lines(_traced_run(cfg)))
    b = "\n".join(jsonl_lines(_traced_run(cfg)))
    assert a == b


@pytest.mark.parametrize("ranks", (1, 2, 4))
def test_trace_byte_identical_across_transports(cfg, ranks):
    """The process transport replays the threaded trace *byte for byte*
    under the virtual clock: per-rank worker tracers merged by (rank,
    seq) reproduce the shared-tracer event stream exactly.  This is the
    strongest cross-transport equivalence check we have -- every span
    name, timestamp, counter and flow id must line up."""
    threads = chrome_trace_json(_traced_run(cfg, n_ranks=ranks))
    process = chrome_trace_json(_traced_run(cfg, transport="process",
                                            n_ranks=ranks))
    assert threads == process


@pytest.mark.parametrize("transport", ("threads", "process"))
def test_trace_byte_identical_across_runs_per_transport(cfg, transport):
    a = chrome_trace_json(_traced_run(cfg, transport=transport))
    b = chrome_trace_json(_traced_run(cfg, transport=transport))
    assert a == b


def test_trace_identical_across_maskable_fault_schedules(cfg):
    """Masked transport faults leave the logical trace untouched.

    The comparison excludes ``cat="fault"`` instants (the injections
    themselves are *supposed* to show up); everything else -- spans,
    flows, timestamps -- must match the fault-free bytes exactly.
    """
    clean = chrome_trace_json(_traced_run(cfg),
                              exclude_categories=("fault",))
    faulty_world = FaultyWorld(N_RANKS, MASKABLE, seed=123, timeout=120.0)
    faulty = chrome_trace_json(_traced_run(cfg, world=faulty_world),
                               exclude_categories=("fault",))
    assert clean == faulty


def test_fault_instants_present_in_faulty_trace(cfg):
    world = FaultyWorld(N_RANKS, MASKABLE, seed=123, timeout=120.0)
    tracer = _traced_run(cfg, world=world)
    kinds = {e.name for e in tracer.events() if e.cat == "fault"}
    assert kinds & {"fault_delay", "fault_reorder", "fault_duplicate"}
    # Faults recorded without advancing any rank's logical clock: the
    # instant timestamps coincide with ordinary event timestamps.
    assert sum(world.stats.count(k)
               for k in ("delay", "reorder", "duplicate")) > 0


def _measured_run(cfg):
    """A measured-mode run under the virtual clock: the cost feedback
    consumes tracer-clock phase durations, which are deterministic
    logical ticks, so the whole feedback loop must replay exactly."""
    tracer = Tracer(clock=VirtualClock())
    particles = plummer_model(N, seed=5)
    sims = run_parallel_simulation(N_RANKS, particles, cfg, n_steps=3,
                                   load_balance="measured",
                                   lb_source="counts", trace=tracer)
    return tracer, [s.boundary_history for s in sims]


def test_measured_loadbalance_trace_and_boundaries_deterministic(cfg):
    """Closing the feedback loop must not open a nondeterminism hole:
    byte-identical traces and identical domain-boundary sequences."""
    trace_a, bounds_a = _measured_run(cfg)
    trace_b, bounds_b = _measured_run(cfg)
    assert chrome_trace_json(trace_a) == chrome_trace_json(trace_b)
    assert bounds_a == bounds_b
    # and the collective decision left all ranks with the same sequence
    assert all(b == bounds_a[0] for b in bounds_a)


def _streamed_run(cfg, path, flush_every=16):
    """A virtual-clock run streamed to JSONL *during* execution."""
    sink = StreamingJsonlSink(path, flush_every=flush_every)
    tracer = Tracer(clock=VirtualClock(), sink=sink)
    particles = plummer_model(N, seed=5)
    run_parallel_simulation(N_RANKS, particles, cfg, n_steps=2,
                            trace=tracer)
    tracer.close()
    return sink


def test_streaming_jsonl_byte_identical_to_posthoc_export(cfg, tmp_path):
    """Tentpole invariant: the incremental writer's bytes equal the
    buffered exporter's on the same logical run -- one serialization,
    two paths, zero divergence."""
    streamed = tmp_path / "streamed.jsonl"
    _streamed_run(cfg, streamed)
    buffered = tmp_path / "buffered.jsonl"
    write_jsonl(_traced_run(cfg), buffered)
    assert streamed.read_bytes() == buffered.read_bytes()


def test_streaming_run_byte_identical_across_runs(cfg, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _streamed_run(cfg, a, flush_every=8)
    _streamed_run(cfg, b, flush_every=128)  # cadence can't change bytes
    assert a.read_bytes() == b.read_bytes()


def test_streaming_only_tracer_holds_no_events(cfg, tmp_path):
    sink = _streamed_run(cfg, tmp_path / "t.jsonl")
    assert sink.n_events > 0
    assert sink.max_buffered <= 16 * N_RANKS  # flush cadence bounds memory


def test_perf_json_byte_identical_across_runs_and_transports(cfg):
    """The report's "perf" section is a pure function of the trace
    bytes, so a virtual-clock run yields byte-identical achieved
    flop-rate JSON across repeated runs and across transports."""
    import json

    from repro.obs.report import _json_report

    def perf_bytes(transport):
        doc = json.loads(chrome_trace_json(_traced_run(
            cfg, transport=transport, n_ranks=4)))
        report = _json_report(doc)
        assert "perf" in report
        return json.dumps(report, sort_keys=True)

    threads_a = perf_bytes("threads")
    threads_b = perf_bytes("threads")
    process = perf_bytes("process")
    assert threads_a == threads_b
    assert threads_a == process

    perf = json.loads(threads_a)["perf"]
    for entry in perf["per_rank"].values():
        assert "model_efficiency" in entry
        for phase in ("gravity_local", "gravity_let", "combined"):
            assert "gflops" in entry[phase]
    assert len(perf["per_rank"]) == 4


def test_serial_trace_byte_identical():
    def run():
        tracer = Tracer(clock=VirtualClock())
        sim = Simulation(plummer_model(200, seed=3),
                         SimulationConfig(dt=0.01), trace=tracer)
        sim.evolve(2)
        return chrome_trace_json(tracer)

    assert run() == run()


def test_simulation_and_one_rank_run_share_one_trace_schema(tmp_path):
    """One driver, one set of spans: ``Simulation`` and the one-rank
    ``run_parallel_simulation`` export the same JSONL bytes, and the
    report tool validates that trace like any multi-rank one."""
    from repro.obs import write_chrome_trace
    from repro.obs.report import main as report_main
    cfg = SimulationConfig(theta=0.6, softening=0.02, dt=0.01)
    front, ranks = Tracer(clock=VirtualClock()), Tracer(clock=VirtualClock())
    Simulation(plummer_model(N, seed=5), cfg, trace=front).evolve(2)
    run_parallel_simulation(1, plummer_model(N, seed=5), cfg, n_steps=2,
                            trace=ranks)
    write_jsonl(front, tmp_path / "front.jsonl")
    write_jsonl(ranks, tmp_path / "ranks.jsonl")
    assert (tmp_path / "front.jsonl").read_bytes() == \
        (tmp_path / "ranks.jsonl").read_bytes()
    phases = {e.name for e in front.events() if e.cat == "phase"}
    assert phases == {"sorting", "domain_update", "tree_construction",
                      "tree_properties", "boundary_exchange", "let_exchange",
                      "gravity_local", "other"}
    write_chrome_trace(front, tmp_path / "front.json")
    assert report_main([str(tmp_path / "front.json"), "--validate"]) == 0
