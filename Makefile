# Build / verify targets. `make verify` is the PR gate: tier-1 build+test
# plus a gofmt check, static vetting, the repo-native lint pass
# (determinism, hot-path allocation discipline, float-comparison hygiene,
# must-check errors — see internal/lint), a pure-Go test pass over the
# trial engine (the assembly kernels' fallbacks), a race-detector pass over
# the concurrent engine (the sim worker pool, parallel sweeps, the failure
# plan layer, the shared contraction state in partition/experiments,
# concurrent core analyses and rare's tail bootstrap), the statistical
# verification suite (golden regression + model invariants + deterministic
# replay), and a short fuzz smoke over the IO parser and plan compiler.

GO ?= go
FUZZTIME ?= 5s

.PHONY: all build test test-purego fmt vet lint race verify validate update-golden fuzz-smoke loadtest-smoke crosscompile bench bench-snapshot bench-check

all: verify

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# The trial engine with no assembly in play: on a host that selects the
# vector kernels, the Go loops they fall back to (and are held to) would
# otherwise never run under test. `purego` swaps in the pure-Go dispatch
# files of internal/graph and internal/xrand: the dense Bernoulli draws,
# the bootstrap's index draws (IntnInto, behind internal/stats) and the
# bit-matrix transpose (graph.Transpose64, behind the block evaluator and
# internal/crosslayer's block scoring).
test-purego:
	$(GO) test -tags purego ./internal/xrand/... ./internal/graph/... ./internal/failure/... ./internal/crosslayer/... ./internal/sim/... ./internal/rare/... ./internal/stats/...

# Formatting gate: fails, listing the files, when any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Repo-native static analysis: cmd/gicnetlint runs the determinism,
# crossdet, concheck, purecheck, hotpath, floatcmp, and errcheck analyzers
# over every package in the module — twice, because the purego build swaps
# the assembly kernel dispatch files for pure-Go variants that must satisfy
# the same contracts. Use `go run ./cmd/gicnetlint -json` for
# machine-readable diagnostics, and `-changed` to lint only the packages
# that differ from the lint-baseline.json snapshot while iterating.
lint:
	$(GO) run ./cmd/gicnetlint -root .
	$(GO) run ./cmd/gicnetlint -root . -tags purego

# The simulation engine and failure plans run concurrently (worker pools,
# parallel sweeps, shared sync.Once topology caches), partition and
# experiments share immutable contraction state across workers, core runs
# analyses concurrently over one world, and rare bootstraps tail points
# through the worker pool — race-check all of them on every PR.
race:
	$(GO) test -race ./internal/sim/... ./internal/failure/... ./internal/topology/... ./internal/graph/... ./internal/partition/... ./internal/experiments/... ./internal/serve/... ./internal/crosslayer/... ./internal/core/... ./internal/rare/...

verify: fmt vet lint test test-purego race validate loadtest-smoke fuzz-smoke crosscompile

# Serving smoke: drive the example-workload mix through a fully tiered
# server and a no-tier baseline and require identical order-independent
# answer fingerprints (caching/dedup/batching change no answer), plus
# live tier traffic. See internal/serve/loadtest.
loadtest-smoke:
	$(GO) test -run '^TestSmoke$$' -count 1 ./internal/serve/loadtest

# Cross-compile gate: the assembly kernels ship their build variants —
# the bitset popcount as AVX2 amd64 assembly, NEON arm64 assembly and a
# pure-Go fallback; the 64×64 bit-matrix transpose (graph.Transpose64) as
# AVX-512 amd64 assembly and the Go butterfly (arm64 and purego); the
# dense Bernoulli draws and the bootstrap's index draws (internal/xrand)
# as AVX-512 amd64 assembly and pure-Go fallbacks (arm64 and purego); the
# CPUID and XGETBV probes and the AVX-512 gate (internal/cpuid) as amd64
# assembly only — and all of them
# must always compile, whatever machine the PR was written on. Vetting the
# amd64 packages and the purego variants runs vet's asmdecl check on every
# assembly frame and keeps the fallbacks' declarations in step.
crosscompile:
	GOARCH=amd64 $(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
	$(GO) build -tags purego ./...
	GOARCH=amd64 $(GO) vet ./internal/cpuid ./internal/graph ./internal/xrand
	$(GO) vet -tags purego ./internal/graph ./internal/xrand ./internal/failure

# Statistical verification: diff every reproduce output against the
# checked-in golden snapshot, check model invariants, and prove replay
# is byte-identical across worker counts (see internal/verify).
validate:
	$(GO) run ./cmd/validate

# Recapture the golden snapshot after an intended model change. Review
# the resulting diff of internal/verify/goldens/reproduce.json before
# committing it — every changed number is a deliberate output change.
update-golden:
	$(GO) run ./cmd/validate -update

# Short fuzz runs over the network-JSON parser, the failure-plan compiler,
# the tilted sampler, the integer sampler (against its float form on
# rounding-edge probabilities, group breakpoints and raw-draw prefixes),
# the dense-draw kernel (against the Go loop, stream state included), the
# bootstrap index draws (against the scalar Intn loop, stream state
# included), the core-contraction connectivity engine, the
# bitset kernel primitives (assembly vs reference semantics), the
# bit-matrix transpose (the kernel against the Go butterfly, and twice
# against the identity), the cross-layer index (its AS
# attachment against the all-pairs scan), the repair scheduler (against
# its rescan reference), the nearest-point screen (against a
# brute-force scan) and the downstream entry points (malformed networks
# and dead sets refused, never a panic); each also replays its checked-in
# seed corpus.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadNetworkJSON$$' -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzPlanCompile$$' -fuzztime $(FUZZTIME) ./internal/failure
	$(GO) test -run '^$$' -fuzz '^FuzzTiltedSampler$$' -fuzztime $(FUZZTIME) ./internal/failure
	$(GO) test -run '^$$' -fuzz '^FuzzSampleThresholds$$' -fuzztime $(FUZZTIME) ./internal/failure
	$(GO) test -run '^$$' -fuzz '^FuzzBelowInto$$' -fuzztime $(FUZZTIME) ./internal/xrand
	$(GO) test -run '^$$' -fuzz '^FuzzIntnInto$$' -fuzztime $(FUZZTIME) ./internal/xrand
	$(GO) test -run '^$$' -fuzz '^FuzzSobol$$' -fuzztime $(FUZZTIME) ./internal/rare
	$(GO) test -run '^$$' -fuzz '^FuzzCoreContraction$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzBitsetKernels$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzTranspose64$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzCableASAdjacency$$' -fuzztime $(FUZZTIME) ./internal/crosslayer
	$(GO) test -run '^$$' -fuzz '^FuzzAnnotationComments$$' -fuzztime $(FUZZTIME) ./internal/lint
	$(GO) test -run '^$$' -fuzz '^FuzzPlanRecovery$$' -fuzztime $(FUZZTIME) ./internal/recovery
	$(GO) test -run '^$$' -fuzz '^FuzzNearest$$' -fuzztime $(FUZZTIME) ./internal/geo
	$(GO) test -run '^$$' -fuzz '^FuzzDownstreamInput$$' -fuzztime $(FUZZTIME) ./internal/verify

# Quick hot-path benchmarks with allocation counts: the trial engine (and
# its sampling program alone), the storm path (integrated timeline, repair scheduling, bridge picks,
# traffic routing) and world set-up (the three network generators and the
# cross-layer index compile).
bench:
	$(GO) test -run '^$$' -bench 'Fig6CableFailures|CountryConnectivity|CountryConnectivityFigures|AblationSimWorkers|TrialLoop|PlanCompile|SampleSparse|SampleProgram|BitsetEvaluate|BitsetKernels|Crosslayer|FullScenario|RecoveryPlanning|TopologyAugmentation|TrafficRouting|WorldGeneration|CrosslayerCompile' -benchmem .

# Dated JSON snapshot of the full benchmark suite (see cmd/benchdiff).
bench-snapshot:
	$(GO) run ./cmd/benchdiff -bench '.' -pkg . -count 3

# Perf gate: rerun the latest BENCH_*.json snapshot's benchmark selection
# and fail if any common benchmark regressed more than 15% ns/op, or if the
# contracted connectivity trial loop falls below 2x over the direct engine
# (the speedup gates hardcoded in cmd/benchdiff).
bench-check:
	$(GO) run ./cmd/benchdiff -check
