# Test / benchmark / lint targets.  PYTHONPATH=src everywhere so the
# package also works in place without `pip install -e .` (CI installs
# it properly; see .github/workflows/ci.yml).
#
# PYTHONHASHSEED is pinned so anything that iterates hash-ordered
# containers is reproducible run to run — benches under CI must be
# deterministic up to wall-clock timings.

PY := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) PYTHONHASHSEED=0 python

.PHONY: test test-par smoke perfbench-test chaos bench bench-fleet bench-replay bench-reporting bench-memory bench-serve bench-kernels bench-parallel lint format install

# tier-1: the full suite (the driver's acceptance gate)
test:
	$(PY) -m pytest -x -q

# tier-1 on all cores via pytest-xdist (CI's full job; needs the
# `test` extra — local `make test` stays serial and dependency-free)
test-par:
	$(PY) -m pytest -x -q -n auto

# tier-1 smoke: skip @pytest.mark.slow for quick pre-commit iteration
smoke:
	$(PY) -m pytest -x -q -m "not slow"

# the benchmark harness's own tests (tracing leaves results unchanged,
# metric names match BENCHMARK.json); perfbench/ sits outside the
# tier-1 testpaths, so it runs only through this target
perfbench-test:
	$(PY) -m pytest perfbench -q

# chaos smoke: seeded report corruption on the collection path
# (quarantined tuples, collection keeps going, the crowd-blending audit
# passes) and the shuffler's own validation suite, then the
# deterministic counter report (benchmarks/chaos_summary.py; CI pipes
# it into the step summary)
chaos:
	$(PY) -m pytest tests/sim/test_chaos.py::TestCorruptionChaos \
		tests/core/test_shuffler.py -q
	$(PY) benchmarks/chaos_summary.py

# all paper-figure benches; seeded throughout, writes only into
# benchmarks/results/ (*.txt tables + BENCH_*.json perf records)
bench:
	$(PY) -m pytest benchmarks/ -q

# fleet-engine throughput record (writes benchmarks/results/BENCH_fleet.json;
# speedup floors tunable via BENCH_FLEET_MIN_SPEEDUP[_HET] for noisy CI runners)
bench-fleet:
	$(PY) -m pytest benchmarks/bench_fleet_engine.py -q

# replay-plan fast path on the dataset workloads (multilabel + Criteo;
# writes benchmarks/results/BENCH_replay.json; floor tunable via
# BENCH_REPLAY_MIN_SPEEDUP)
bench-replay:
	$(PY) -m pytest benchmarks/bench_replay.py -q

# columnar reporting pipeline, end-to-end with collection rounds
# (writes benchmarks/results/BENCH_reporting.json; floor tunable via
# BENCH_REPORTING_MIN_SPEEDUP)
bench-reporting:
	$(PY) -m pytest benchmarks/bench_reporting.py -q

# traced-plan memory record: shared row tables vs per-agent plan_trace
# arrays, plus fast-tier policy-state bytes (writes
# benchmarks/results/BENCH_memory.json; the
# byte-accounting floor is deterministic, tunable via
# BENCH_MEMORY_MIN_REDUCTION)
bench-memory:
	$(PY) -m pytest benchmarks/bench_memory.py -q

# serving-loop requests-per-second record: churn + drift + async
# collection on a hot persistent fleet (writes
# benchmarks/results/BENCH_serve.json; floor tunable via
# BENCH_SERVE_MIN_RPS, scale via BENCH_SERVE_N_AGENTS)
bench-serve:
	$(PY) -m pytest benchmarks/bench_serve.py -q

# dense-LinUCB scoring-kernel microbenchmarks: float32 fast kernel and
# incremental UCB against the float64 bit kernel (writes
# benchmarks/results/BENCH_kernels.json; floors tunable via
# BENCH_KERNELS_MIN_*, scale via BENCH_KERNELS_N_AGENTS)
bench-kernels:
	$(PY) -m pytest benchmarks/bench_kernels.py -q

# parallel scaling record: serial vs n_workers on the thread pool +
# sweep-level fan-out, every run asserted bit-identical (writes
# benchmarks/results/BENCH_parallel.json with cpu_count; the
# thread-pool floor BENCH_PARALLEL_MIN_SPEEDUP is enforced only
# when set — worker scaling needs cores, so CI's multi-core runners
# set it; scale via BENCH_PARALLEL_N_AGENTS / _N_INTERACTIONS)
bench-parallel:
	$(PY) -m pytest benchmarks/bench_parallel.py -q -p no:cacheprovider

# lint + format check (config in pyproject.toml [tool.ruff])
lint:
	ruff check src tests benchmarks examples
	ruff format --check src tests benchmarks examples

# apply formatting + autofixes
format:
	ruff format src tests benchmarks examples
	ruff check --fix src tests benchmarks examples

install:
	pip install -e ".[test]"
