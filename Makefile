# Repo tooling. bench-litmus and bench-compress emit standard
# `go test -bench` output, which benchstat consumes directly:
#
#   make bench-litmus > new.txt   (on two commits)
#   benchstat old.txt new.txt

GO ?= go
COUNT ?= 5
BENCH_SCALE ?= test
BENCH_BASELINE ?= BENCH_baseline.json

.PHONY: test race bench bench-litmus bench-por bench-compress synth bench-json bench-diff bench-e2e bench-e2e-check chaos crash fuzz

# Per-target budget for the coverage-guided fuzzing runs.
FUZZTIME ?= 30s

# Seeds for the chaos fault schedules (comma-separated).
CHAOS_SEEDS ?= 1,2,3

test:
	$(GO) build ./... && $(GO) test ./...

# The concurrency-sensitive packages under the race detector; CI's
# race step runs this target, so the two lists are one. internal/tso
# runs -short here: its full-space walks (rotation choice, state keys
# from the component cache) are one goroutine each, so the detector has
# nothing to find in them and takes minutes; -short cuts them to 40 k
# states a space and keeps the dirty-flag contract tests (mesi's and
# tso's) whole.
race:
	$(GO) test -race ./internal/litmus/ ./internal/mesi/ ./internal/signals/ ./internal/rwlock/ ./internal/sched/ ./internal/fault/ ./internal/core/ ./internal/packetproc/ ./internal/workloads/
	$(GO) test -race -short ./internal/tso/

# Every paper figure and claim the registry knows (internal/bench), at
# test scale; `-h` on lbmfbench lists the experiments.
bench:
	$(GO) run ./cmd/lbmfbench -exp all -scale test

# Checker throughput: the parallel engine on the Dekker l-mfence and
# IRIW spaces, hashed and collapsed keys at 1 and 4 workers (states/sec
# and B/state), then the engine's visited set (1 M claims at a 65 %
# duplicate mix, 1 and 2 goroutines, hashed keys and the exact/
# 41-byte-key case) and its one-pass hash pair in isolation.
# benchstat-compatible.
bench-litmus:
	$(GO) test -run '^$$' -bench 'BenchmarkExplore|BenchmarkVisitedClaim|BenchmarkHashPair' -benchmem -count $(COUNT) ./internal/litmus/

# Partial-order reduction: the differential tests (reduced exploration
# must reproduce the unreduced reference semantics) and the loop-interval
# oracle (every transition on a state cycle is one the cycle proviso
# probes) under the race detector, then the reduced-vs-unreduced
# state-count table.
bench-por:
	$(GO) test -race -run 'Reduction|Visited|Frontier|LoopInterval' ./internal/litmus/
	$(GO) run ./cmd/litmus -por -reduction

# Representation-level scaling: the collapse/symmetry/spill
# differential tests under the race detector, with the visited-set and
# intern-table models, the signature-equivalence walk, the state-key
# cache's contract and from-scratch reference walks and the
# checkpoint/resume suites (spill, snapshot and restore run
# through the same table), the concurrent intern test repeated, then the
# key path's micro-benchmarks (intern lookups from 1 and 2
# goroutines, Canonicalize over a kept walk of peterson3 states, keying
# the successor of a kept bakery3 state from the component cache against
# Fingerprint + HashPair; benchstat-compatible) and the catalog plus the
# 3-process generators through the whole stack under a deliberately
# starved 1MB budget so cold stripes actually spill mid-run, then the
# catalog under the same budget with hashed keys (no -compress).
bench-compress:
	$(GO) test -race -run 'Collapse|Symmetry|Spill|Budget|Compress|Visited|Checkpoint|Resume|Intern|Canonical|StateKey|DirtyContract' -short ./internal/litmus/ ./internal/tso/ ./internal/mesi/
	$(GO) test -count=10 -race -run Intern ./internal/tso/
	$(GO) test -run '^$$' -bench 'BenchmarkIntern|BenchmarkCanonicalize|BenchmarkStateKey' -benchmem -count $(COUNT) ./internal/tso/
	$(GO) run ./cmd/litmus -compress -membudget 1048576 -nproc 3
	$(GO) run ./cmd/litmus -membudget 1048576

# Record a machine-readable bench run (versioned schema: git SHA,
# GOMAXPROCS, scale, per-experiment Sample summaries + obs snapshots)
# into the next free BENCH_<n>.json. Override the scale with
# BENCH_SCALE=small|medium|paper.
bench-json:
	$(GO) run ./cmd/lbmfbench -exp all -scale $(BENCH_SCALE) -bench-json auto

# Compare the newest BENCH_<n>.json against the committed baseline;
# exits non-zero on >10% regressions or dropped metrics.
bench-diff:
	$(GO) build -o /tmp/benchdiff ./cmd/benchdiff
	/tmp/benchdiff $(BENCH_BASELINE) $$(ls -v BENCH_[0-9]*.json | tail -1)

# The end-to-end benchmark BENCHMARK.json declares (six workloads,
# verdict_s / alloc_bytes_per_state / setup_s plus the traced per-layer
# metrics; see benchmark/README.md). bench-e2e-check runs the whole set
# twice and compares the two against the bounds: it says whether this
# host is quiet enough to resolve them.
bench-e2e:
	bash benchmark/run.sh

bench-e2e-check:
	bash benchmark/run.sh -repeat-check

# Chaos: seeded fault-injection suites under the race detector, then
# the chaos experiment (paper invariants under injected stalls, drops,
# freezes, and a killed primary) across the configured seeds.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Stall|Abandon|Watchdog|Close|Starvation|Deadline' ./internal/harness/ ./internal/signals/ ./internal/sched/ ./internal/fault/
	$(GO) run ./cmd/lbmfbench -exp chaos -scale test -faults $(CHAOS_SEEDS)

# Crash recovery, mirroring CI's crash-recovery job: the
# checkpoint/resume, corpus-journal, and job-runner suites under the
# race detector, the daemon's event-driven serve loop (wake, freed and
# drain interleavings) repeated, the real kill-and-resume smoke once per
# on-disk key format (SIGKILL at the first commit, exit 137, resumed
# summary identical to the reference), then the litmus_resume experiment
# (checkpoint overhead + exact-recovery contract).
crash:
	$(GO) test -race -run 'Checkpoint|Resume|Interrupt|Spill|Journal|Corpus|Daemon' ./internal/litmus/ ./internal/harness/ ./cmd/litmusd/
	$(GO) test -race -count=5 -run Daemon ./cmd/litmusd/
	scripts/crash-smoke.sh hashed-128
	scripts/crash-smoke.sh collapsed -compress
	scripts/crash-smoke.sh hashed-128 -membudget 4096
	$(GO) run ./cmd/lbmfbench -exp litmus_resume -scale test

# Coverage-guided fuzzing: the .litmus parser/compiler/renderer round
# trip, then the differential engine matrix over generated scenarios.
# Each target runs its seed corpus (testdata/fuzz/) plus FUZZTIME of
# new coverage-guided inputs; raise FUZZTIME for a longer hunt.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/litmuslang/
	$(GO) test -run '^$$' -fuzz FuzzDifferential -fuzztime $(FUZZTIME) ./internal/litmusgen/

# Counterexample-guided fence synthesis over the protocol registry,
# printing the minimal frontier per problem. The dekker row must show
# the Fig. 3(a) asymmetric placement as cost-optimal.
synth:
	$(GO) run ./cmd/fencesynth -v
