.PHONY: install test test-faults test-loadbalance test-transport \
	test-health test-backends bench bench-quick bench-step \
	bench-transport bench-backends bench-history ledger ledger-smoke \
	trace flame dashboard clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

# Full fault-injection + differential-verification harness, including the
# harness_slow matrix the default run skips (see docs/TESTING.md).
test-faults:
	pytest tests/harness -m "harness_slow or not harness_slow"

# Load-balance feedback loop: property + convergence suites including
# the harness_slow 8-rank variant (docs/OBSERVABILITY.md §5b).
test-loadbalance:
	pytest tests/harness/test_loadbalance_properties.py \
	       tests/harness/test_loadbalance_convergence.py \
	       tests/test_parallel_feedback.py \
	       -m "harness_slow or not harness_slow"

# Run-health telemetry + crash forensics: heartbeat/monitor/bundle unit
# suites, the post-mortem analyzer contract, the fault-matrix
# localization harness (crash/slowdown/stall/deadlock on both
# transports) and the dashboard health panel
# (docs/OBSERVABILITY.md §13).
test-health:
	pytest tests/test_obs_health.py tests/test_obs_postmortem.py \
	       tests/harness/test_health_forensics.py \
	       tests/test_obs_dashboard.py -q
	pytest benchmarks/bench_obs_overhead.py -q \
	       -k "heartbeat or disabled_tracer"

# Cross-transport equivalence matrix: process-transport unit + property
# suite, trace determinism on both substrates, bitwise differential
# subset, and fault parity (docs/TRANSPORTS.md).
test-transport:
	pytest tests/test_transport_process.py tests/test_obs_determinism.py
	pytest tests/harness/test_differential.py -k "transport or process"
	pytest tests/harness/test_faults.py -k "parity or transport or crash"

# Compute-backend registry + equivalence suite (docs/PERFORMANCE.md §6):
# registry/driver threading, numpy-default bitwise gates, oracle
# agreement for every backend the host carries (numba skips when
# absent -- install with `pip install -e .[numba]` to exercise the JIT).
test-backends:
	pytest tests/test_gravity_backends.py \
	       -m "harness_slow or not harness_slow"

bench:
	pytest benchmarks/ --benchmark-only

# Golden interaction-count check: the 4-rank distributed step must
# reproduce benchmarks/step_pipeline_golden.json exactly
# (docs/PERFORMANCE.md).
bench-step:
	pytest benchmarks/bench_step_pipeline.py -q

# Threads-vs-process wall-clock at the step-pipeline config; records
# BENCH_transport.json (speedup gate arms only on >=4 cores).  Scale
# with TRANSPORT_BENCH_N / TRANSPORT_BENCH_STEPS.
bench-transport:
	pytest benchmarks/bench_transport.py -q

# Per-backend kernel timing: oracle-equivalence smoke, then one
# kernel_backends run appended to the history with the count gate
# judged (numba rows appear when the JIT extra is installed; see
# docs/PERFORMANCE.md §6).  Scale with BACKEND_BENCH_N / _REPEATS.
bench-backends:
	pytest benchmarks/bench_backends.py -q
	PYTHONPATH=src:$$PYTHONPATH python -m repro.obs.bench run kernel_backends
	PYTHONPATH=src:$$PYTHONPATH python -m repro.obs.bench history kernel_backends \
	       --threshold 0.25 --min-abs 0.05

# Registered-benchmark runner: append one run of the two CI benches to
# benchmarks/history/*.jsonl, then judge the trajectory -- deterministic
# count metrics gate hard (exit 1 on drift), wall-clock is advisory
# (docs/PERFORMANCE.md §4, python -m repro.obs.bench --help).
bench-history:
	PYTHONPATH=src:$$PYTHONPATH python -m repro.obs.bench run step_pipeline
	PYTHONPATH=src:$$PYTHONPATH python -m repro.obs.bench run obs_overhead
	PYTHONPATH=src:$$PYTHONPATH python -m repro.obs.bench history step_pipeline \
	       --threshold 0.25 --min-abs 0.05
	PYTHONPATH=src:$$PYTHONPATH python -m repro.obs.bench history obs_overhead \
	       --threshold 0.25 --min-abs 0.05

# The layer ledger, the benchmark a performance change is judged by
# (BENCHMARK.json, benchmarks/ledger/README.md): every workload once at
# seed 1, ~30 s each, end-to-end metrics + correctness checks.
LEDGER_WORKLOADS = serial_mw_4k threads1_plummer_2k treepipe_mw_250k
LEDGER_RUN = python3 benchmarks/ledger/run.py --seed 1

ledger:
	set -e; for w in $(LEDGER_WORKLOADS); do \
		$(LEDGER_RUN) --workload $$w; done

# Does the ledger still run against this src/?  Every workload cut ~20x,
# untraced and traced; fails on a non-zero exit or when the traced run
# reports a gravity.*, sfc.* or octree.* layer skipped (a call the gate
# makes into those packages no longer works), then the harness's own tests.
ledger-smoke:
	set -e; for w in $(LEDGER_WORKLOADS); do for t in 0 1; do \
		$(LEDGER_RUN) --workload $$w --smoke --trace $$t > ledger_smoke.txt \
			|| { cat ledger_smoke.txt; exit 1; }; \
		cat ledger_smoke.txt; \
		if grep -E '^(gravity|sfc|octree)\.[a-z_0-9.]+ +skipped' ledger_smoke.txt; then \
			echo "ledger-smoke: a layer was skipped ($$w, --trace $$t)"; \
			exit 1; fi; \
	done; done; rm -f ledger_smoke.txt
	pytest benchmarks/ledger/test_ledger.py -q

# The subset that regenerates every table/figure without the long
# evolution runs (fig3, equal-mass heating).
bench-quick:
	pytest benchmarks/bench_fig1_kernel.py benchmarks/bench_fig4_weak_scaling.py \
	       benchmarks/bench_table2_breakdown.py benchmarks/bench_time_to_solution.py \
	       benchmarks/bench_state_of_the_art.py --benchmark-only

# Traced 4-rank smoke run: writes trace.json + metrics.txt (and streams
# trace.jsonl incrementally during the run), then prints the Table II
# report reconstructed from the trace (docs/OBSERVABILITY.md).
trace:
	PYTHONPATH=src:$$PYTHONPATH python -m repro.obs.smoke --ranks 4 --n 2000 \
	       --steps 2 --trace-out trace.json --metrics-out metrics.txt \
	       --jsonl-out trace.jsonl
	PYTHONPATH=src:$$PYTHONPATH python -m repro.obs.report trace.json --validate

# Collapsed-stack flamegraph from the `make trace` output, fold-back
# checked; feed trace.folded to flamegraph.pl or speedscope.
flame: trace
	PYTHONPATH=src:$$PYTHONPATH python -m repro.obs.export trace.json \
	       --out trace.folded --check

# Live terminal dashboard over a small demo run (ANSI redraw per step).
dashboard:
	PYTHONPATH=src:$$PYTHONPATH python -m repro.obs.dashboard --ranks 2 \
	       --n 2000 --steps 6

clean:
	rm -rf benchmarks/results .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
