#!/usr/bin/env python3
"""A/A harness: run the whole benchmark R times on one commit.

    python3 benchmarks/ledger/noise.py --runs 10 --out set_a.json

Each run of each workload is its own process (``run.py``), with seed
``--first-seed + i`` unless ``--same-seed`` -- the gate that judges later
changes varies the seed the same way, so the spread printed here
includes what a different realisation of the inputs does to the work.
Prints, per workload x end-to-end metric, the median, the quartiles,
(q3 - q1)/median and (max - min)/median beside the metric's bound
(BENCHMARK.json's) and the share of the bound the quartile spread takes,
and writes the result set for ``compare.py``.
"""

import argparse
import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from estimators import iqr_spread, quartiles, range_spread  # noqa: E402

ROOT = HERE.parents[1]


def host_fingerprint() -> dict:
    """nproc, CPU model, last-level cache and numpy version."""
    import os
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    llc = "unknown"
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    if caches:
        try:
            llc = (caches[-1] / "size").read_text().strip()
        except OSError:
            pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": model, "llc": llc,
            "numpy": numpy.__version__, "python": platform.python_version()}


def run_once(workload: str, seed: int, seconds: float | None,
             smoke: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".scratch-") as tmp:
        out = Path(tmp) / "result.json"
        proc = subprocess.run(cmd + ["--out", str(out)], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
        doc = json.loads(out.read_text())
    return {"seed": seed, "values": doc["values"], "samples": doc["samples"],
            **{k: v["value"] for k, v in doc["metrics"].items()}}


def spread_table(result_set: dict, spec: dict) -> list[str]:
    lines = ["| workload | metric | median | q1 | q3 | iqr/median | "
             "(max-min)/median | bound | iqr/bound |",
             "|---|---|---|---|---|---|---|---|---|"]
    for wl, runs in result_set["runs"].items():
        for m in spec["end_to_end"]:
            vals = [r[m["name"]] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = iqr_spread(vals)
            lines.append(
                f"| {wl} | {m['name']} | {med:.5g} | {q1:.5g} | {q3:.5g} | "
                f"{spread:.4f} | {range_spread(vals):.4f} | "
                f"{m['bound']:.2f} | {spread / m['bound']:.2f} |")
    return lines


def values_table(result_set: dict) -> list[str]:
    """What the correctness checks measured, over the seeds of the set."""
    lines = ["| workload | value | min | median | max |", "|---|---|---|---|---|"]
    for wl, runs in result_set["runs"].items():
        for key in runs[0]["values"]:
            vals = sorted(r["values"][key] for r in runs)
            lines.append(f"| {wl} | {key} | {vals[0]:.6g} | "
                         f"{vals[len(vals) // 2]:.6g} | {vals[-1]:.6g} |")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--workload", action="append",
                    help="restrict to these workloads (repeatable)")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", help="write the result set (JSON) here")
    args = ap.parse_args(argv)
    if args.runs < 5:
        ap.error("--runs must be at least 5 (quartiles of fewer are noise)")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    result_set = {"host": host_fingerprint(), "smoke": args.smoke,
                  "seconds": args.seconds or spec["run_seconds"], "runs": {}}
    # Workloads interleaved run by run, so slow drift of the host lands
    # on every workload alike.
    for i in range(args.runs):
        seed = args.first_seed + (0 if args.same_seed else i)
        for wl in names:
            row = run_once(wl, seed, args.seconds, args.smoke)
            result_set["runs"].setdefault(wl, []).append(row)
            print(f"run {i + 1}/{args.runs} {wl} seed={seed} "
                  + " ".join(f"{k}={v:.5g}" for k, v in row.items()
                             if isinstance(v, float)), file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(result_set, indent=1) + "\n")
    print("host:", json.dumps(result_set["host"]))
    print("\n".join(spread_table(result_set, spec)))
    print()
    print("\n".join(values_table(result_set)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
