#!/usr/bin/env python3
"""Diff two result sets of noise.py against the benchmark's bounds.

    python3 benchmarks/ledger/compare.py baseline.json candidate.json

For every workload x end-to-end metric: both medians, the candidate's
change relative to the baseline, the baseline's own quartile spread and
the bound.  Exit 1 when any median worsened by more than its bound,
2 when the sets cannot be compared (smoke runs, different workloads or
run lengths).  The bounds are BENCHMARK.json's.  A pairing whose baseline
spread exceeds its bound is marked unresolved, not unchanged, unless
every candidate run reads better than every baseline run.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from estimators import iqr_spread  # noqa: E402


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], int]:
    for label, rs in (("baseline", a), ("candidate", b)):
        if rs["smoke"]:
            return [f"{label} is a smoke result set: not comparable"], 2
    if set(a["runs"]) != set(b["runs"]) or a["seconds"] != b["seconds"]:
        return ["the sets ran different workloads or run lengths"], 2

    lines = ["| workload/metric | baseline | candidate | change | "
             "baseline iqr | bound | verdict |", "|---|---|---|---|---|---|---|"]
    worst = 0
    for wl in a["runs"]:
        for m in spec["end_to_end"]:
            name = m["name"]
            va = [r[name] for r in a["runs"][wl]]
            vb = [r[name] for r in b["runs"][wl]]
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = -1.0 if m["better"] == "higher" else 1.0
            change = sign * (mb - ma) / ma
            bound = m["bound"]
            spread = iqr_spread(va)
            all_better = max(sign * v for v in vb) < min(sign * v for v in va)
            if change > bound:
                verdict, worst = "WORSE", 1
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            lines.append(f"| {wl}/{name} | {ma:.5g} | {mb:.5g} | "
                         f"{change:+.4f} | {spread:.4f} | {bound:.2f} | "
                         f"{verdict} |")
    return lines, worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    a = json.loads(Path(args.baseline).read_text())
    b = json.loads(Path(args.candidate).read_text())
    lines, code = compare(a, b, spec)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
