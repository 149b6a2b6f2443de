# Developer entry points.  CI (.github/workflows/ci.yml) runs the same
# targets; `make lint` is the full static gate, `make test` the tier-1 suite.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: all lint ruff mypy invariants test crash-enum examples obs-smoke shard-smoke pipeline-smoke fleet-smoke wa-smoke bench-diff ledger ledger-pairs pairs-report paper-smoke ablation-prefetch traffic lint-history

all: lint test

lint: ruff mypy invariants

ruff:
	ruff check src tests benchmarks/obs_smoke.py benchmarks/shard_smoke.py benchmarks/pipeline_smoke.py benchmarks/fleet_smoke.py benchmarks/wa_smoke.py benchmarks/bench_diff.py

mypy:
	mypy

# the LSVD invariant checker (LSVD002-LSVD017, eleven rules); see DESIGN.md
invariants:
	$(PYTHON) -m repro.lint src/repro benchmarks examples

test:
	$(PYTHON) -m pytest -x -q

# crash-point enumeration (tests/crash_points.py) over a wide seed list:
# tier-1 runs one seed per cell, this every cell at each of SEEDS
crash-enum: SEEDS = $(shell seq 1 40)
crash-enum:
	CRASH_ENUM_SEEDS="$(SEEDS)" $(PYTHON) -m pytest -q tests/test_crash_points.py -k every_crash_point

# run every example end to end (CI otherwise only lints them, so one that
# imports a deleted module would pass); benchmark_tour.py is left out
# because its three miniature paper experiments take ~27 s; TMPDIR keeps
# local_backup.py's on-disk volume inside bench-out/
EXAMPLES := $(filter-out examples/benchmark_tour.py,$(wildcard examples/*.py))
examples:
	mkdir -p bench-out/tmp
	for ex in $(EXAMPLES); do echo "== $$ex"; \
	  TMPDIR=$(CURDIR)/bench-out/tmp $(PYTHON) $$ex || exit 1; done

# quick observability exercise of both stacks; emits BENCH_obs.json with
# core/runtime sections (CI uploads it so the perf trajectory is reviewable)
# and fails unless, on the virtual clock, every span tree's critical-path
# attribution is exactly additive (per tree and in the p50/p99
# decompositions), the core run leaves no root open and the slowest trees
# round-trip to_dict/from_dict (+ flight-recorder bundles on failure)
obs-smoke:
	mkdir -p bench-out
	$(PYTHON) benchmarks/obs_smoke.py --out-dir bench-out

# shard-scaling sweep (1/2/4/8 shards); fails unless aggregate backend
# PUT throughput rises monotonically from 1 all the way to 8 shards
shard-smoke:
	mkdir -p bench-out
	$(PYTHON) benchmarks/shard_smoke.py --out-dir bench-out

# group commit across queue depths; fails unless a committed barrier
# costs less than one device FLUSH at queue depth >= 4
pipeline-smoke:
	mkdir -p bench-out
	$(PYTHON) benchmarks/pipeline_smoke.py --out-dir bench-out

# multi-tenant fleet gates: >=8 tenants' aggregate IOPS must beat a lone
# tenant on the same rig, and a QoS-capped noisy neighbour must leave the
# victim's p99 within a bounded factor of solo; emits BENCH_fleet.json
fleet-smoke:
	mkdir -p bench-out
	$(PYTHON) benchmarks/fleet_smoke.py --out-dir bench-out

# temperature-aware placement gates: SepBIT + cost-benefit must cut GC
# write amplification vs the greedy single-stream baseline on zipfian and
# hotspot workloads at equal utilisation; emits BENCH_wa.json
wa-smoke:
	mkdir -p bench-out
	$(PYTHON) benchmarks/wa_smoke.py --out-dir bench-out

# compare fresh bench-out/BENCH_*.json against the committed baselines
# (benchmarks/baselines/); every figure is virtual-clock and gated:
# booleans must not regress, every other number must match to 1e-6
bench-diff:
	$(PYTHON) benchmarks/bench_diff.py

# the performance ledger (BENCHMARK.json; benchmarks/ledger/README.md) at
# self-test sizes: all four workloads checked against their oracles, then
# the ledger's own self-test; emits BENCH_ledger.json.  Figures at --quick
# sizes are a smoke, not a measurement — compare commits with full runs in
# alternating pairs, as the README prescribes
ledger:
	mkdir -p bench-out
	$(PYTHON) benchmarks/ledger/run.py --quick --out-dir bench-out
	$(PYTHON) -m pytest benchmarks/ledger -q

# two commits compared as benchmarks/ledger/README.md "Comparing two
# commits" prescribes: BASE and HEAD exported as sibling trees (a run from
# another location read 2-6 % apart with no line changed), one full-length
# run each per workload and seed, alternating which side goes first; every
# run's result line is appended to $(OUT)/<workload>.jsonl as {"side",
# "seed", "result"}; a run that fails or prints no result line stops the
# loop.  Measures commits: commit the change first.  A claim writes its
# committed files directly:
#   make ledger-pairs BASE=<rev> SEEDS="1 2 3" OUT=benchmarks/pairs/PR-<n>
BASE ?= HEAD~1
WORKLOADS ?= vol-write-churn vol-read-miss vol-mixed-hot fleet-fsync
SEEDS ?= 1 2 3 4 5 6 7 8 9 10
PAIRS := bench-out/pairs
OUT ?= $(PAIRS)
ledger-pairs:
	rm -rf $(PAIRS)/base $(PAIRS)/head
	mkdir -p $(PAIRS)/base $(PAIRS)/head $(OUT)
	git archive $(BASE) | tar -x -C $(PAIRS)/base
	git archive HEAD | tar -x -C $(PAIRS)/head
	for wl in $(WORKLOADS); do i=0; for seed in $(SEEDS); do \
	  if [ $$((i % 2)) -eq 0 ]; then order="base head"; else order="head base"; fi; \
	  for side in $$order; do \
	    out=$$(cd $(PAIRS)/$$side && $(PYTHON) benchmarks/ledger/run.py \
	      --workload $$wl --seed $$seed --seconds 10 --out-dir ../out-$$side) || exit 1; \
	    line=$$(printf '%s\n' "$$out" | grep '^{') || exit 1; \
	    printf '{"side": "%s", "seed": %s, "result": %s}\n' $$side $$seed "$$line" \
	      >> $(abspath $(OUT))/$$wl.jsonl; \
	  done; i=$$((i + 1)); \
	done; done
	rm -rf $(PAIRS)/base $(PAIRS)/head

# re-render every committed claim (benchmarks/pairs/PR-<n>/<workload>.jsonl,
# the lines ledger-pairs writes): median [q1-q3], wins and the per-seed ==
# verdict on every exact metric; fails when one differs or a run is not correct
pairs-report:
	$(PYTHON) benchmarks/pairs_report.py

# the paper-figure benchmarks sit outside tier-1, so nothing else notices
# when one stops importing or reaches for a private that was renamed:
# collect all of them, and run the quickest (Figure 11, ~6 s) end to end
paper-smoke:
	$(PYTHON) -m pytest benchmarks --collect-only -q
	$(PYTHON) -m pytest benchmarks/test_fig11_writeback.py -q

# the read-ahead both-regimes gate (DESIGN.md "Read-ahead controller"):
# off / constant / adaptive window x temporal / spatial / uniform reads;
# fails unless adaptive keeps the temporal-recall GET saving exactly, costs
# no GET on address-order scans and moves <= 1/4 the bytes on uniform reads;
# emits the nine (GETs, bytes/read) cells as BENCH_prefetch.json for bench-diff
ablation-prefetch:
	mkdir -p bench-out
	$(PYTHON) -m pytest benchmarks/test_ablation_prefetch.py -q

# the traffic census (DESIGN.md "One path per behaviour"): every production
# consumer runs under a call-only trace hook, then the src/repro defs no run
# called are printed by package; ~25 min, so not a CI step
traffic:
	$(PYTHON) benchmarks/traffic.py

# the lint census (DESIGN.md "Invariants & static checks"): today's rules
# over every commit's src tree, printing per-rule counts and the findings
# each commit removed; needs full git history, ~2.5 min, so not a CI step
lint-history:
	$(PYTHON) benchmarks/lint_history.py
