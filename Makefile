# Test / benchmark / lint targets.  PYTHONPATH=src everywhere so the
# package also works in place without `pip install -e .` (CI installs
# it properly; see .github/workflows/ci.yml).
#
# PYTHONHASHSEED is pinned so anything that iterates hash-ordered
# containers is reproducible run to run — benches under CI must be
# deterministic up to wall-clock timings.

PY := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) PYTHONHASHSEED=0 python

.PHONY: test test-par smoke perfbench-test keyed-dispatch chaos bench bench-paper bench-fleet bench-replay bench-reporting bench-memory bench-serve bench-kernels bench-parallel lint format install

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

# keyed draws on a second SIMD dispatch target: with AVX-512 dispatch
# off, numpy's float64 log/cos take another code path (the Box-Muller
# of the keyed reward noise and of Thompson's posterior normals), so
# the length-1 == block contract, the Thompson select == select_batch
# checks, the synthetic/drift fleet == sequential suites and both forms
# of the participation coins and picks (scalar offer, stacked step, the
# columnar recording pipeline) are checked there too.
# On a CPU with none of these features the rerun would test the default
# dispatch again, so the target says so (a CI warning) and skips it.
KEYED_DISPATCH_OFF := AVX512_SPR AVX512_ICL X86_V4
keyed-dispatch:
	@if $(PY) -c 'import sys, numpy as np; \
		core = np._core if hasattr(np, "_core") else np.core; \
		features = core._multiarray_umath.__cpu_features__; \
		sys.exit(not any(features.get(f) for f in sys.argv[1:]))' $(KEYED_DISPATCH_OFF); then \
		NPY_DISABLE_CPU_FEATURES="$(KEYED_DISPATCH_OFF)" $(PY) -m pytest -q \
			tests/bandits/test_keyed.py tests/bandits/test_other_policies.py \
			tests/bandits/test_batch_apis.py tests/data/test_synthetic.py \
			tests/data/test_drift.py tests/sim/test_equivalence.py \
			tests/sim/test_chunked_plans.py tests/core/test_participation.py \
			tests/sim/test_columnar_reporting.py; \
	else \
		echo "::warning::keyed-dispatch SKIPPED: this CPU has none of $(KEYED_DISPATCH_OFF)"; \
	fi

# chaos smoke: seeded report corruption on the collection path
# (quarantined tuples, collection keeps going, the crowd-blending audit
# passes, the sequential and fleet engines agree under the tap), the
# report-store drain order (tests/core/test_payload.py: it feeds the
# shuffler permutation those engine comparisons depend on), the
# shuffler's own validation suite and the async-collection suite (so
# quarantine is checked on both shuffler entry points), then the
# deterministic counter report (benchmarks/chaos_summary.py; CI pipes
# it into the step summary)
chaos:
	$(PY) -m pytest tests/sim/test_chaos.py::TestCorruptionChaos \
		tests/sim/test_chaos.py::TestCorruptionEnginesAgree \
		tests/core/test_payload.py \
		tests/core/test_shuffler.py tests/core/test_async_collection.py -q
	$(PY) benchmarks/chaos_summary.py

# all paper-figure benches; seeded throughout, writes only into the
# gitignored benchmarks/out/ (*.txt tables + BENCH_*.json perf records;
# the committed records in benchmarks/results/ change only when a
# benchmark change copies a fresh one there)
bench:
	$(PY) -m pytest benchmarks/ -q

# the paper-figure benches alone (Figs. 2-7 and the headline claims):
# their curve and privacy bands gate any change to a seeded trajectory
bench-paper:
	$(PY) -m pytest benchmarks/bench_fig2_encoding.py \
		benchmarks/bench_fig3_epsilon.py \
		benchmarks/bench_fig4_synthetic_population.py \
		benchmarks/bench_fig5_dimension.py \
		benchmarks/bench_fig6_multilabel.py \
		benchmarks/bench_fig7_criteo.py \
		benchmarks/bench_headline.py -q

# fleet-engine throughput record (writes benchmarks/out/BENCH_fleet.json;
# speedup floors tunable via BENCH_FLEET_MIN_SPEEDUP[_HET] for noisy CI runners)
bench-fleet:
	$(PY) -m pytest benchmarks/bench_fleet_engine.py -q

# replay-plan fast path on the dataset workloads (multilabel + Criteo;
# writes benchmarks/out/BENCH_replay.json; floor tunable via
# BENCH_REPLAY_MIN_SPEEDUP)
bench-replay:
	$(PY) -m pytest benchmarks/bench_replay.py -q

# columnar reporting pipeline, end-to-end with collection rounds
# (writes benchmarks/out/BENCH_reporting.json; floor tunable via
# BENCH_REPORTING_MIN_SPEEDUP)
bench-reporting:
	$(PY) -m pytest benchmarks/bench_reporting.py -q

# traced-plan memory record: shared row tables vs per-agent plan_trace
# arrays, plus fast-tier policy-state bytes (writes
# benchmarks/out/BENCH_memory.json; the
# byte-accounting floor is deterministic, tunable via
# BENCH_MEMORY_MIN_REDUCTION)
bench-memory:
	$(PY) -m pytest benchmarks/bench_memory.py -q

# serving-loop requests-per-second record: churn + drift + async
# collection on a hot persistent fleet (writes
# benchmarks/out/BENCH_serve.json; floor tunable via
# BENCH_SERVE_MIN_RPS, scale via BENCH_SERVE_N_AGENTS)
bench-serve:
	$(PY) -m pytest benchmarks/bench_serve.py -q

# dense-LinUCB scoring-kernel microbenchmarks: float32 fast kernel and
# incremental UCB against the float64 bit kernel (writes
# benchmarks/out/BENCH_kernels.json; floors tunable via
# BENCH_KERNELS_MIN_*, scale via BENCH_KERNELS_N_AGENTS)
bench-kernels:
	$(PY) -m pytest benchmarks/bench_kernels.py -q

# parallel scaling record: serial vs n_workers on the thread pool +
# sweep-level fan-out, every run asserted bit-identical (writes
# benchmarks/out/BENCH_parallel.json with cpu_count; the
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
