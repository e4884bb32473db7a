"""A small traced parallel run: ``python -m repro.obs.smoke``.

Runs a Plummer model on a few SimMPI ranks with tracing on, writes (and
schema-validates) the Chrome trace, optionally dumps the Prometheus
metrics text, and prints a one-paragraph summary.  This is the CI
trace-smoke job and the ``make trace`` target; pipe the written file to
``python -m repro.obs.report`` for the full Table II reconstruction.
"""

from __future__ import annotations

import argparse
import sys

from ..config import SimulationConfig
from ..core.parallel_simulation import run_parallel_simulation
from ..ics import plummer_model
from ..parallel.statistics import run_statistics
from ..simmpi import SimWorld
from .clock import VirtualClock
from .export import validate_chrome_trace_file, write_chrome_trace
from .sink import BufferSink, StreamingJsonlSink
from .tracer import Tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.smoke",
        description="Run a small traced parallel simulation and write a "
                    "schema-validated Chrome trace.")
    parser.add_argument("--ranks", type=int, default=2)
    parser.add_argument("--n", type=int, default=1000,
                        help="total particle count")
    parser.add_argument("--steps", type=int, default=2)
    parser.add_argument("--theta", type=float, default=0.75)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trace-out", default="trace.json",
                        help="Chrome trace output path")
    parser.add_argument("--metrics-out", default=None,
                        help="also write Prometheus metrics text here")
    parser.add_argument("--jsonl-out", default=None,
                        help="also stream the trace to this JSONL file "
                             "*during* the run (StreamingJsonlSink; "
                             "byte-identical to the post-hoc export)")
    parser.add_argument("--virtual-clock", action="store_true",
                        help="deterministic logical timestamps instead of "
                             "wall time (byte-reproducible trace)")
    args = parser.parse_args(argv)

    clock = VirtualClock() if args.virtual_clock else None
    sinks = [BufferSink()]
    if args.jsonl_out:
        sinks.append(StreamingJsonlSink(args.jsonl_out))
    tracer = Tracer(clock=clock, sink=sinks)
    world = SimWorld(args.ranks)
    particles = plummer_model(args.n, seed=args.seed)
    sims = run_parallel_simulation(args.ranks, particles,
                                   SimulationConfig(theta=args.theta),
                                   n_steps=args.steps, world=world,
                                   trace=tracer)

    write_chrome_trace(tracer, args.trace_out)
    doc = validate_chrome_trace_file(args.trace_out)
    tracer.close()  # finalises the streaming JSONL, when requested
    if args.jsonl_out:
        print(f"{args.jsonl_out}: streamed during the run "
              "(cmp against repro.obs.export.write_jsonl)")
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(world.metrics.render())

    stats = run_statistics(sims)
    print(f"{args.trace_out}: {len(doc['traceEvents'])} events, schema OK "
          f"({args.ranks} ranks x {args.steps} steps, "
          f"{stats.n_particles_total} particles)")
    print(f"mean step {stats.mean_step.total:.6f} s, "
          f"traffic {world.traffic.total_bytes} bytes, "
          f"slowest-rank blocked recv {stats.recv_wait_max:.6f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
