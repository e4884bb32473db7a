"""Tests of the benchmark harness itself.

Not collected by the tier-1 run (its ``testpaths`` is ``tests/``):

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _p in (ROOT / "src", HERE):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import compare  # noqa: E402
import workloads  # noqa: E402
from estimators import cheapest_window, fastest, iqr_spread  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def test_step_estimators_on_a_synthetic_stamp_array():
    stamps = [0.0, 1.0, 2.0, 7.0, 8.1, 9.1, 10.1, 19.1, 20.2]
    durations = [b - a for a, b in zip(stamps, stamps[1:])]
    # Eight steps: four clean (1.0), two slightly slow (1.1), two hit hard.
    assert fastest(durations) == pytest.approx(1.0)
    # Every four in a row hold a hard-hit step; the cheapest carry the 5.0.
    assert cheapest_window(durations, 4) == pytest.approx(8.1 / 4)
    assert cheapest_window(durations, 2) == pytest.approx(1.0)
    assert cheapest_window([3.0, 1.0], 4) == pytest.approx(2.0)  # short run
    # A cost paid on every fourth step is in every window of four; the
    # fastest step alone does not see it.
    periodic = [1.0, 1.0, 1.0, 3.0] * 3
    assert fastest(periodic) == pytest.approx(1.0)
    assert cheapest_window(periodic, 4) == pytest.approx(1.5)
    for estimator in (fastest, lambda d: cheapest_window(d, 4)):
        with pytest.raises(ValueError):
            estimator([])
    assert iqr_spread([1.0] * 9 + [2.0]) == pytest.approx(0.0)


def test_spec_names_match_the_workload_table():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_once_with_its_unit(workload, trace):
    code, out, err = run_cli("--workload", workload, "--seed", "3",
                             "--smoke", "--trace", str(trace))
    assert code == 0, out + err
    lines = out.strip().splitlines()
    assert "SMOKE" in lines[0]
    final = json.loads(lines[-1])
    assert set(final) == RESULT_KEYS
    assert final["correct"] is True and final["failed"] == 0
    assert final["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(final["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        rows = [ln.split() for ln in lines[:-1]
                if ln.split() and ln.split()[0] == m["name"]]
        assert len(rows) == 1, (m["name"], rows)
        assert rows[0][-1] == m["unit"]
        assert rows[0][1] != "skipped", m["name"]
        assert final["metrics"][m["name"]]["unit"] == m["unit"]


def test_broken_accuracy_flips_ops_failed():
    w = workloads.WORKLOADS["serial_mw_4k"]
    good = workloads.run_workload(w, seed=1, steps=1, setup_reps=1)
    assert good["failed"] == 0 and good["correct"]
    bad = workloads.run_workload(w, seed=1, steps=1, setup_reps=1,
                                 config_overrides={"theta": 1.0})
    failed = {c["name"] for c in bad["checks"] if not c["ok"]}
    assert "force_err_median" in failed
    assert bad["failed"] >= 1 and not bad["correct"]
    assert bad["attempted"] == good["attempted"]


def test_counts_repeat_exactly_for_one_seed():
    w = workloads.WORKLOADS["threads1_plummer_2k"]
    runs = [workloads.run_workload(w, seed=5, steps=2, setup_reps=1)
            for _ in range(2)]
    for key in ("pp_per_particle", "pc_per_particle"):
        assert runs[0]["values"][key] == runs[1]["values"][key]


def test_two_rank_probes_are_skipped_not_faked_on_a_one_core_host(monkeypatch):
    import replay
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    doc = replay.run_traced(
        workloads.WORKLOADS["threads1_plummer_2k"], seed=2, seconds=22,
        smoke=True, per_layer=SPEC["per_layer"], scratch_root=HERE,
        trace_out=None)
    assert "core.step_s.process" in doc["skipped"]
    assert "simmpi.pingpong_us.threads" in doc["skipped"]
    assert "gravity.pp_eval_s" not in doc["skipped"]
    assert doc["correct"]


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "benchmarks" / "ledger"
    bench.mkdir(parents=True)
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "serial_mw_4k", "--seed", "1", "--seconds", "22", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _alive_in_session(sid: int) -> list[str]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
            state, _ppid, _pgrp, session = stat[stat.rindex(")") + 2:].split()[:4]
            if int(session) == sid and state != "Z":
                found.append(Path("/proc", entry, "cmdline").read_text())
        except OSError:
            pass
    return found


@pytest.mark.parametrize("trace", [0, 1])
def test_no_process_outlives_the_run(trace):
    # treepipe uses the shm codec, whose first segment starts the
    # resource tracker: it must be gone when run.py is, not a moment later.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "treepipe_mw_250k", "--seed", "3", "--smoke", "--trace", str(trace)],
        cwd=ROOT, start_new_session=True, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    assert proc.wait(timeout=600) == 0
    assert _alive_in_session(proc.pid) == []


def test_compare_refuses_smoke_and_flags_a_regression():
    def result_set(step, smoke=False):
        return {"smoke": smoke, "seconds": 22, "runs": {
            wl: [{"seed": i, "step_s": step * (1 + 0.001 * i),
                  "cpu_step_s": 1.0, "setup_s": 2.0, "peak_rss_mb": 100.0}
                 for i in range(5)] for wl in workloads.WORKLOADS}}
    assert compare.compare(result_set(1.0), result_set(1.0), SPEC)[1] == 0
    lines, code = compare.compare(result_set(1.0), result_set(1.3), SPEC)
    assert code == 1
    assert sum("WORSE" in ln for ln in lines) == len(workloads.WORKLOADS)
    assert compare.compare(result_set(1.0, smoke=True), result_set(1.0), SPEC)[1] == 2
