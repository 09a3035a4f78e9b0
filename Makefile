PYTHON ?= python
PYTHONPATH_PREFIX = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),)

# full exploration knobs (see docs/FAULTS.md)
SEEDS ?= 100
START_SEED ?= 0
FAULTS_OUT ?= faults-report.json

# per-profile exploration knob (make faults-<profile>; see docs/FAULTS.md)
PROFILE_SEEDS ?= 25

# benchmark harness knobs (see docs/BENCHMARKS.md)
BASELINE ?= benchmarks/baselines/BENCH_smoke.json
CANDIDATE ?= BENCH_smoke.json
TOLERANCE ?= 0.05

# experiment report / sweep knobs (see docs/BENCHMARKS.md)
REPORT_INPUTS ?= $(BASELINE) $(CANDIDATE)
REPORT_NAMES ?= baseline,candidate
REPORT_OUT ?= bench-report.md
REPORT_JSON ?= bench-report.json
SPEC ?= benchmarks/specs/bakeoff.toml

# protocol-aware analysis knobs (see docs/ANALYSIS.md)
ANALYZE_OUT ?= analysis-report.json
DETSAN_OUT ?= detsan-report.json
FLOW_OUT ?= flow-report.json
FLOW_GRAPH ?= flow-graph.json
RACESAN_OUT ?= racesan-report.json
RACESAN_K ?= 8

# alternating parent/child pairs of the perf benchmark (tools/perf_pairs.py)
PAIRS ?= 10

# hypothesis profile of `make test` (registered in tests/conftest.py)
HYPOTHESIS_PROFILE ?= tier1

# (the per-profile faults-<profile> targets come from a pattern rule,
# which make skips for .PHONY names -- none of them names a file)
.PHONY: test lint analyze flow msgflow detsan racesan ci faults-smoke faults-explore bench-smoke bench-check bench-baseline bench-full bench-report bench-sweep perf perf-quick perf-pairs

## tier-1: the whole test suite (includes the 25-seed explorer run);
## property tests run under the derandomized, database-less hypothesis
## profile (tests/conftest.py) -- nightly.yml passes nightly instead
test:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -x -q \
		--hypothesis-profile=$(HYPOTHESIS_PROFILE)

## static checks: real ruff when installed, AST fallback otherwise
## (config in pyproject.toml; see tools/lint.py)
lint:
	$(PYTHON) tools/lint.py

## protocol-aware static analysis: determinism (DET) and protocol
## invariant (PROTO) rules over src/repro (see docs/ANALYSIS.md)
analyze:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.analysis check \
		--json $(ANALYZE_OUT)

## MsgFlow: interprocedural message-flow/taint analysis (FLOW rules)
## over the protocol packages; also emits the flow graph artifact
flow:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.analysis flow \
		--json $(FLOW_OUT) --graph $(FLOW_GRAPH)

## rewrite the committed message-flow graph (docs/msgflow.dot) after a
## change to the protocol messages; tests/test_analysis_flow.py fails
## while it is stale
msgflow:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.analysis flow \
		--dot docs/msgflow.dot

## runtime determinism sanitizer: double-run every default scenario
## row (src/repro/analysis/sanitizer.py::SCENARIOS) in child
## interpreters under different PYTHONHASHSEEDs and diff the
## trace/span/metric views
detsan:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.analysis detsan \
		--json $(DETSAN_OUT)

## schedule-race sanitizer: re-run every default scenario row under
## RACESAN_K tie-break permutations, in one process, and diff semantic
## digests (RACESAN001)
racesan:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.analysis racesan \
		--permutations $(RACESAN_K) --json $(RACESAN_OUT)

## everything CI's per-commit job runs, in order
ci: lint analyze flow racesan test faults-smoke faults-recovery faults-smartbft faults-overload bench-smoke bench-check perf-quick bench-report

## quick confidence check: 5 explorer seeds (runs in seconds)
faults-smoke:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.faults --seeds 5 \
		--out $(FAULTS_OUT)

## one explorer profile, 25 seeds: any row of PROFILES in
## src/repro/faults/explorer.py is a target -- faults-recovery
## (docs/RECOVERY.md), faults-smartbft (docs/SMARTBFT.md),
## faults-overload (docs/WORKLOADS.md); writes faults-<profile>.json
## (make faults-recovery PROFILE_SEEDS=200)
faults-%:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.faults \
		--seeds $(PROFILE_SEEDS) --profile $* \
		--out faults-$*.json

## opt-in deep exploration: make faults-explore SEEDS=500
faults-explore:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.faults \
		--seeds $(SEEDS) --start-seed $(START_SEED) --shrink \
		--out $(FAULTS_OUT)

## quick benchmark pass over every registered benchmark's smoke matrix
## (runs in seconds, writes BENCH_smoke.json)
bench-smoke:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.bench run --smoke \
		--name smoke --out $(CANDIDATE)

## regression gate: compare a candidate run against the stored baseline
## usage: make bench-check [BASELINE=...] [CANDIDATE=...] [TOLERANCE=0.05]
bench-check:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.bench compare \
		$(BASELINE) $(CANDIDATE) --tolerance $(TOLERANCE)

## refresh the committed smoke baseline after an intentional perf change
bench-baseline:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.bench run --smoke \
		--name smoke --out $(BASELINE)

## full paper-figure matrices (minutes); writes BENCH_full.json
bench-full:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.bench run \
		--name full --out BENCH_full.json

## N-way experiment report: statistical ranking over result files
## (pairwise Mann-Whitney U + A12, rank-by-median, Nemenyi CD)
## usage: make bench-report [REPORT_INPUTS="a.json b.json"] [REPORT_NAMES=a,b]
bench-report:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.bench report \
		$(REPORT_INPUTS) --names $(REPORT_NAMES) \
		--out $(REPORT_OUT) --json $(REPORT_JSON)

## declarative sweep: expand + run a TOML experiment spec
## usage: make bench-sweep [SPEC=benchmarks/specs/bakeoff.toml] [SMOKE=1]
bench-sweep:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.bench run \
		--spec $(SPEC)$(if $(SMOKE), --smoke,)

## host cost of the simulator itself: the repo's performance benchmark
## (BENCHMARK.json; benchmarks/perf/README.md) -- all seven workloads,
## calibrated host-time metrics plus per-layer attribution (minutes);
## writes benchmarks/perf/out/ (results.json and the traces)
perf:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m benchmarks.perf run

## the performance benchmark's self-test (seconds): builds, commits and
## verifies every workload at quick size through every seam name of
## benchmarks/perf/adapter.py and checks BENCHMARK.json against
## workloads.py -- so a refactor that breaks the benchmark command
## fails per commit; it gates no timing
perf-quick:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -q benchmarks/perf/test_perf.py

## the protocol behind a host-time claim: PAIRS alternating runs of the
## unmodified benchmarks/perf/run.py on the committed files of PARENT
## and on the working tree, equal seed within a pair, order swapped
## every pair; prints medians, quartiles, wins and the nine-of-ten /
## parent-IQR verdict (minutes; not part of make ci)
## WORKLOAD may name several claimed workloads; CONTROLS=N also runs
## every other workload at N pairs and judges it against the bounds of
## BENCHMARK.json (within bound / unresolved / worse) -- the no-change
## table of a perf PR, one verdict row per workload
## usage: make perf-pairs PARENT=<rev> WORKLOAD=<name> [PAIRS=10] [CONTROLS=N] [METRIC=<name>]
##        make perf-pairs PARENT=<rev> CONTROLS=N   (no claim: every workload a control)
perf-pairs:
	$(PYTHON) tools/perf_pairs.py --parent $(PARENT) \
		$(foreach name,$(WORKLOAD),--workload $(name)) \
		--pairs $(PAIRS) $(if $(CONTROLS),--controls $(CONTROLS)) \
		$(if $(METRIC),--metric $(METRIC))
