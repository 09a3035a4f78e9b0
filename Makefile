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

# experiment report knobs (see docs/BENCHMARKS.md)
REPORT_INPUTS ?= $(BASELINE) $(CANDIDATE)
REPORT_NAMES ?= baseline,candidate
REPORT_OUT ?= bench-report.md
REPORT_JSON ?= bench-report.json

# protocol-aware analysis knobs (see docs/ANALYSIS.md)
ANALYZE_OUT ?= analysis-report.json
DETSAN_OUT ?= detsan-report.json
FLOW_OUT ?= flow-report.json
FLOW_GRAPH ?= flow-graph.json
RACESAN_OUT ?= racesan-report.json
RACESAN_K ?= 8

# alternating parent/child pairs of the perf benchmark (tools/perf_pairs.py)
PAIRS ?= 10

# tracemalloc census of one perf workload (tools/mem_census.py)
SCALE ?= 1.0
TOP ?= 15

# hypothesis profile of `make test` (registered in tests/conftest.py)
HYPOTHESIS_PROFILE ?= tier1

# (the per-profile faults-<profile> targets come from a pattern rule,
# which make skips for .PHONY names -- none of them names a file)
.PHONY: test golden lint analyze flow msgflow detsan racesan ci obs-report faults-smoke faults-explore bench-smoke bench-check bench-baseline bench-full bench-report perf perf-quick perf-pairs mem-census

## tier-1: the whole test suite (includes the 25-seed explorer run);
## property tests run under the derandomized, database-less hypothesis
## profile (tests/conftest.py) -- nightly.yml passes nightly instead
test:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -x -q \
		--hypothesis-profile=$(HYPOTHESIS_PROFILE)

## the pin ledger (tests/golden.py): diff every golden under
## tests/data/golden/ against a fresh recording, old -> new per moved
## field, exit 1 on any move; UPDATE=NAME rewrites that one file
## (PYTHONHASHSEED=1 is the hash_seed a rewritten smoke golden records)
## usage: make golden [UPDATE=NAME]
golden:
	PYTHONHASHSEED=1 $(PYTHONPATH_PREFIX) $(PYTHON) -m tests.golden \
		$(if $(UPDATE),--update $(UPDATE))

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
ci: lint analyze flow racesan test faults-smoke faults-recovery faults-smartbft faults-overload bench-smoke bench-check perf-quick bench-report obs-report

## observability acceptance: the telemetry report of one run plus its
## Chrome trace (docs/OBSERVABILITY.md); writes obs-trace.json
obs-report:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.obs report --duration 1.0 \
		--trace obs-trace.json

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

## regression gate: the candidate must reproduce every value of the
## stored baseline exactly, per unit and seed (any move fails, better
## or worse; a unit that moves on purpose comes with bench-baseline)
## usage: make bench-check [BASELINE=...] [CANDIDATE=...]
bench-check:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m repro.bench compare \
		$(BASELINE) $(CANDIDATE)

## refresh the committed smoke baseline after an intentional change of
## behaviour (commit it with the change that moved it)
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

## where one perf workload's memory goes: runs one full repeat of
## WORKLOAD at seed 0 through benchmarks/perf/worker.py::run_job under
## tracemalloc and prints ru_maxrss, the traced current and peak and
## the TOP allocation sites alive at exit (count, bytes per item)
## usage: make mem-census WORKLOAD=<name> [SCALE=1.0] [TOP=15]
mem-census:
	$(PYTHON) tools/mem_census.py --workload $(WORKLOAD) \
		--scale $(SCALE) --top $(TOP)
