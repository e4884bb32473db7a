#!/usr/bin/env python3
"""The layer ledger: one command, one workload, every metric by name.

    python3 benchmarks/ledger/run.py --workload <name> --seed <int> \
        [--seconds 22] [--trace 0|1] [--out result.json] [--trace-out spans.jsonl]

``--trace 0`` (default) runs the workload untraced and prints the four
end-to-end metrics; ``--trace 1`` is the separate per-layer run.  The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  One workload per
process, so peak RSS and import cost are per workload; the untraced run
also starts itself again with ``--setup-only`` to take set-up cold
several times.  Nothing is written outside ``--out`` / ``--trace-out``
(and a scratch directory next to this file that is removed before exit),
and every process started along the way has ended before this one does.
"""

import os
import sys
import time

_T_START = time.perf_counter()

# Before numpy is imported: a BLAS/OpenMP pool would put threads on the
# second core and make single-rank workloads depend on what else runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import signal
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def _fail(message: str) -> None:
    print(f"ledger: {message}", file=sys.stderr)
    sys.exit(2)


def _children() -> list[int]:
    """Pids whose parent is this process (zombies included)."""
    me, found = str(os.getpid()), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue
            if stat[stat.rindex(")") + 2:].split()[1] == me:
                found.append(int(entry))
    return found


def _stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    The shm codec's first segment starts ``multiprocessing``'s resource
    tracker, which only notices that its parent is gone *after* the
    parent has exited; stopped here, it is gone before.  Anything else
    still alive (a rank or a ``--setup-only`` child on an error path) is
    terminated and reaped first, so that nothing holds the tracker's pipe.
    """
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = [pid for pid in _children() if pid != tracker_pid]
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 5.0
        for pid in pids:
            try:
                while os.waitpid(pid, os.WNOHANG)[0] == 0 \
                        and time.monotonic() < deadline:
                    time.sleep(0.01)
            except ChildProcessError:
                pass
    if tracker_pid is not None:
        tracker._stop()             # closes its pipe and waits for it
    if _children():
        _fail("a child process would not end")


def _print_result(doc: dict, spec: dict) -> None:
    kind = "per_layer" if doc["trace"] else "end_to_end"
    print(f"# {doc['workload']}  seed={doc['seed']}  N={doc['n']}  "
          f"steps={doc['steps']}  trace={doc['trace']}"
          + ("  SMOKE" if doc["smoke"] else ""))
    for m in spec[kind]:
        entry = doc["metrics"][m["name"]]
        value = entry["value"]
        shown = "skipped" if value != value else f"{value:.6g}"
        print(f"{m['name']:<34} {shown:>14} {entry['unit']}")
    for line in doc.get("table", ()):
        print(line)
    for c in doc["checks"]:
        verdict = "ok" if c["ok"] else "FAILED"
        detail = "" if c["value"] is None else f"  value={c['value']}"
        if c["limit"] is not None:
            detail += f"  limit={c['limit']}"
        print(f"check {c['name']:<28} {verdict}{detail}")
    print(f"ops_attempted={doc['attempted']} ops_failed={doc['failed']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured window; scales the step count "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="N and K cut ~20x; result stamped smoke")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print {\"setup_s\": ...} and exit "
                         "(what the untraced run starts for its cold set-ups)")
    ap.add_argument("--out", help="write the full result document here")
    ap.add_argument("--trace-out", help="write harness spans here (JSONL)")
    args = ap.parse_args(argv)

    spec_path = HERE.parents[1] / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"the program is not here: {SRC}/repro is missing")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    if seconds <= 0:
        _fail("--seconds must be positive")

    if args.setup_only:
        setup_s = workloads.cold_setup(w, args.seed, args.smoke, _T_START)
        _stop_children()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        # Started here, the forked ranks of the two-rank probes share this
        # process's resource tracker instead of each starting one that
        # outlives it.
        from multiprocessing import resource_tracker
        resource_tracker.ensure_running()
        import replay
        doc = replay.run_traced(w, args.seed, seconds, smoke=args.smoke,
                                per_layer=spec["per_layer"],
                                scratch_root=HERE, trace_out=args.trace_out)
    else:
        doc = workloads.run_workload(w, args.seed, seconds,
                                     smoke=args.smoke, t_start=_T_START)

    _print_result(doc, spec)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    _stop_children()                # before the result: no result if it fails
    print(json.dumps({"correct": doc["correct"],
                      "attempted": doc["attempted"],
                      "failed": doc["failed"],
                      "metrics": doc["metrics"]}))
    return 0 if doc["correct"] else 1


def _on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)      # unwind, so the finally below runs


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        code = main()
    finally:
        _stop_children()
    sys.exit(code)
