# Convenience targets for the bounded polynomial randomized consensus repo.

GO ?= go

.PHONY: all ci build test test-race test-short bench bench-json bench-check perfbench-smoke prof-smoke space-smoke native-smoke dispatch-smoke tail-smoke native-stress experiments experiments-quick fuzz vet fmt fmt-check clean

all: vet test build

# ci is the full gate. In order:
#   - formatting, vet and build of the module;
#   - vet and test of the nested perfbench module (the repository benchmark,
#     which `go test ./...` does not descend into), then perfbench-smoke, a
#     brief run of each gated workload in both modes against the committed
#     fingerprints;
#   - a benchmark smoke pass: the solve, scheduler-engine, register-operation
#     and adversary-consult microbenchmarks compile and run briefly;
#   - an audit smoke pass: every protocol under the online invariant monitor
#     with sampled probes run at every opportunity (consensus-sim exits
#     non-zero if any fires);
#   - the smoke scripts: the profiler (one profiled seed per protocol,
#     Perfetto validation, the traceview -prof golden), space accounting
#     (every protocol metered, the bounded protocol's static payload bounds,
#     the traceview -space golden), the native substrate (every protocol on
#     real goroutines with the monitor as oracle), commuting dispatch (both
#     dispatch modes with the monitor escalated, seed determinism, the
#     native+commuting rejection, a capped n=32 workload) and tail latency (a
#     metered batch with straggler digest and deterministic replay, bundle
#     completeness, the traceview -tail views);
#   - a benchdiff self-compare, to keep the regression gate runnable;
#   - `go test ./...`, then a -short -race pass over the whole module. The
#     race pass covers the batch worker pool, the dispatch engine's
#     equivalence suite, the substrate conformance suite, the native
#     preemption sweep and the commuting replay suite. Both run last, so a red
#     package test fails ci only after every other gate has run.
ci: fmt-check vet build
	cd perfbench && $(GO) vet . && $(GO) test .
	$(MAKE) perfbench-smoke
	$(GO) test -run XXX_none -bench 'BenchmarkSolveObservability|BenchmarkSolveDispatch|BenchmarkDispatch|BenchmarkRendezvous|BenchmarkSchedulerStep|BenchmarkRegisterOps|BenchmarkAdversaryNext' -benchmem -benchtime 0.2s -timeout 600s . ./internal/sched/ ./internal/register/
	for alg in bounded aspnes-herlihy local-coin strong-coin abrahamson anonymous; do \
		$(GO) run ./cmd/consensus-sim -alg $$alg -inputs 0,1,1,0 -schedule random -seed 42 -audit -audit-sample 1 >/dev/null || exit 1; \
	done
	./scripts/prof_smoke.sh
	./scripts/space_smoke.sh
	./scripts/native_smoke.sh
	./scripts/dispatch_smoke.sh
	./scripts/tail_smoke.sh
	$(GO) run ./cmd/benchdiff BENCH_batch.json BENCH_batch.json
	$(MAKE) test
	$(GO) test -short -race -timeout 900s ./...

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 1200s ./...

test-race:
	$(GO) test -race -timeout 1800s ./...

test-short:
	$(GO) test -short -timeout 600s ./...

bench:
	$(GO) test -bench=. -benchmem -timeout 3600s ./...

# bench-json emits the machine-readable batch benchmark artifact (schema in
# DESIGN.md): the standard workload matrix ({bounded, aspnes-herlihy} x
# {n=4, n=8, n=16, n=32} x {simulated, native} plus the commuting-dispatch
# rows, the K/M space-time frontier rows and the anonymous variant), each
# entry carrying throughput, the step distribution, the merged metrics
# snapshot, derived ratios, the phase histograms, the space-accounting
# block (peak/live registers, words, per-layer bits) that benchdiff's space
# gates compare, and the wall-clock latency block (quantiles + straggler
# digests + environment stamp) behind benchdiff's p99 tail gate and the
# traceview -tail view. The substrate, dispatch mode and K/M knobs are part of each
# workload's key, so benchdiff never pair-compares a native row against a
# simulated one, a commuting row against a sequential one, or across knobs.
bench-json:
	$(GO) run ./cmd/consensus-load -matrix -seed 42 -json > BENCH_batch.json
	@echo "wrote BENCH_batch.json"

# bench-check regenerates the benchmark under the committed artifact's exact
# workload matrix and diffs it against BENCH_batch.json with the default
# thresholds; exits nonzero on a throughput, step-distribution, or phase-mean
# regression in any workload.
bench-check:
	$(GO) run ./cmd/consensus-load -matrix -seed 42 -json > BENCH_batch.new.json
	$(GO) run ./cmd/benchdiff BENCH_batch.json BENCH_batch.new.json
	@rm -f BENCH_batch.new.json

# perfbench-smoke runs the repository benchmark for one second on each gated
# workload, untraced (--trace 0) and traced (--trace 1), and fails unless every
# run exits 0 and every fingerprint it prints is the committed seed-1
# fingerprint below. A change that is meant to move executions updates them.
PERFBENCH_FINGERPRINTS = seq-n8:a4e45974a14a20d6 anon-n8:fdde4ab4b3742029

perfbench-smoke:
	@for wf in $(PERFBENCH_FINGERPRINTS); do \
		w=$${wf%%:*}; fp=$${wf#*:}; \
		for tr in 0 1; do \
			out="$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace $$tr 2>&1)" || \
				{ echo "$$out"; echo "perfbench-smoke: $$w --trace $$tr exited non-zero"; exit 1; }; \
			fps="$$(echo "$$out" | grep " fingerprint $$w ")"; \
			if [ -z "$$fps" ] || echo "$$fps" | grep -qv ": $$fp$$"; then \
				echo "$$out"; echo "perfbench-smoke: $$w --trace $$tr did not print fingerprint $$fp"; exit 1; \
			fi; \
			echo "perfbench-smoke: $$w --trace $$tr ok ($$fp)"; \
		done; \
	done

prof-smoke:
	./scripts/prof_smoke.sh

space-smoke:
	./scripts/space_smoke.sh

native-smoke:
	./scripts/native_smoke.sh

dispatch-smoke:
	./scripts/dispatch_smoke.sh

tail-smoke:
	./scripts/tail_smoke.sh

# native-stress is the full (non -short) race-checked native sweep: the
# substrate conformance suite plus the preemption/crash stress matrices.
native-stress:
	$(GO) test -race -timeout 1800s -run 'TestNative|TestSubstrateConformance' . ./internal/core/ ./internal/conformance/

experiments:
	$(GO) run ./cmd/experiments

experiments-quick:
	$(GO) run ./cmd/experiments -quick

# Run each fuzz target briefly (extend -fuzztime for deeper exploration).
fuzz:
	$(GO) test -fuzz FuzzShrinkNormalize -fuzztime 30s ./internal/strip/
	$(GO) test -fuzz FuzzGameCounterEquivalence -fuzztime 30s ./internal/strip/
	$(GO) test -fuzz FuzzEdgeFromCounters -fuzztime 30s ./internal/strip/
	$(GO) test -fuzz FuzzParseEvent -fuzztime 30s ./internal/obs/
	$(GO) test -fuzz FuzzAuditDump -fuzztime 30s ./internal/obs/audit/
	$(GO) test -fuzz FuzzProfReport -fuzztime 30s ./internal/obs/prof/
	$(GO) test -fuzz FuzzParseUsage -fuzztime 30s ./internal/obs/space/
	$(GO) test -fuzz FuzzCommutingGrant -fuzztime 30s ./internal/sched/

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# fmt-check fails (listing the offending files) if anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

clean:
	$(GO) clean ./...
