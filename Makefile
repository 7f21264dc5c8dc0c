# Every step of .github/workflows/ci.yml that runs Go is `make <target>`
# and nothing else, so a green `make ci` plus the bench/e2e targets the
# workflow names is a green CI run by construction.

GO ?= go

.PHONY: build vet fmt-check test determinism race race-cluster lint lint-baseline golden bench bench-check bench-scale bench-scale-check bench-queue bench-queue-check bench-smoke trace-demo ablation-h cover e2e e2e-cluster ci

# COVER_FLOOR is the minimum total statement coverage; measured at 79.7%
# when the floor was introduced, with a small margin for platform noise.
COVER_FLOOR ?= 78.0

build:
	$(GO) build ./...

# bench writes the tracked throughput report (BENCH_fig4.json) with the
# embedded pre-optimisation baseline alongside the current measurement.
bench:
	$(GO) run ./cmd/bench -rounds 2 -seeds 3 -out BENCH_fig4.json

# bench-check re-measures and fails on a >5% simsec/wallsec regression
# against the tracked report — the gate that keeps the span tracer (and
# anything else) off the tracing-disabled hot path. The reference is read
# before the report file is rewritten, so checking against the same path
# the run overwrites is safe.
bench-check:
	$(GO) run ./cmd/bench -rounds 2 -seeds 3 -out BENCH_fig4.json -check BENCH_fig4.json -tol 5

# bench-scale measures the fleet-size scaling curve (constant-density
# megacity workload at 50/500/5k/50k vehicles) and rewrites the tracked
# BENCH_scale.json, including the measured O(n²) reference anchor the
# speedup columns extrapolate from.
bench-scale:
	$(GO) run ./cmd/bench -scale 50,500,5000,50000 -scale-out BENCH_scale.json

# bench-scale-check re-measures the cheap 500-vehicle point (median of
# five runs) and fails on a >8% simsec/wallsec regression against the tracked
# curve — wider than the Figure-4 gate because the point finishes in tens
# of milliseconds, where shared-host noise is proportionally larger. The
# 50k point is exercised separately (short horizon, ungated) so city-scale
# code paths still run on every CI pass.
bench-scale-check:
	$(GO) run ./cmd/bench -scale 500 -scale-out BENCH_scale_smoke.json -scale-check BENCH_scale.json -tol 8
	$(GO) run ./cmd/bench -scale 50000 -scale-horizon 60 -scale-out BENCH_scale_50k_smoke.json

# bench-queue measures the cluster queue protocol and rewrites the
# tracked BENCH_queue.json: the lease verbs at the default batch size vs
# at batch size one, and snapshot+tail replay vs full-log replay.
bench-queue:
	$(GO) run ./cmd/bench -queue -queue-out BENCH_queue.json

# bench-queue-check re-measures and fails unless both optimization
# ratios — batched-verb throughput and snapshot replay reduction — still
# clear a 10x floor. Ratios are measured single-host, so the gate holds
# on shared CI where raw fsync rates would be too noisy to compare.
bench-queue-check:
	$(GO) run ./cmd/bench -queue -queue-out BENCH_queue.json -queue-check BENCH_queue.json -queue-min-ratio 10

# bench-smoke is the seconds-long self-test of the benchmark spine
# (BENCHMARK.json + benchmark/): the four listed workloads at smoke size,
# each with its output checks — failed == 0, store and merge byte
# comparisons, fig4-sim merge SHA ≡ cluster-fig4 merge SHA. It gates
# correctness of the harness and of what it drives, not speed.
bench-smoke:
	$(GO) run ./benchmark -size smoke -seconds 0.3

# trace-demo writes the sample observability artifact: Chrome trace_event
# JSON + canonical CSV span timelines for a BASE and an OPP run.
trace-demo:
	$(GO) run ./cmd/figures -fig T -out results

# ablation-h regenerates the tracked channel-model ablation: BASE and OPP
# under analytic, radio, radio+queued, and a fitted oracle channel,
# exercising the record -> chanfit -> replay pipeline end to end.
ablation-h:
	$(GO) run ./cmd/figures -fig H -out results

vet:
	$(GO) vet ./...

# fmt-check fails when any Go file outside testdata/ (lint fixtures are
# deliberately odd) is not gofmt-clean.
fmt-check:
	@out=$$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l is not clean:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# determinism re-runs the reproducibility tests on their own, so a
# regression fails CI under an unambiguous step name. The ml line holds the
# sparse conv backward and the first layer's skipped input gradient to the
# dense kernels bit for bit.
determinism:
	$(GO) test ./internal/repro/ -run 'ByteIdentical|Invariant|MatchesSerial' -count=1
	$(GO) test ./internal/ml/ -run 'BitIdentical' -count=1

race:
	$(GO) test -race ./...

# race-cluster is the durable/distributed half under the race detector:
# queue, coordinator, the Worker loop, the chaos harness and the daemon.
race-cluster:
	$(GO) test -race -count=1 ./internal/cluster/... ./internal/campaign/ ./cmd/roadrunnerd/

# lint runs the whole determinism suite against the tracked baseline; the
# intended steady state is an empty lint.baseline, so any finding is new.
# CI sets LINT_FLAGS="-format sarif -out roadlint.sarif".
LINT_FLAGS ?=
lint:
	$(GO) run ./cmd/roadlint $(LINT_FLAGS) -baseline lint.baseline ./...

# golden checks the published CSV layouts (Figure 4, ablations G and H)
# against their golden files; -update must have been committed.
golden:
	$(GO) test ./cmd/figures/ -run 'Golden' -count=1

# lint-baseline re-captures current findings as accepted debt. Use it only
# mid-cleanup: the baseline is a ratchet, not a dumping ground.
lint-baseline:
	$(GO) run ./cmd/roadlint -baseline lint.baseline -update-baseline ./...

# cover writes coverage.out and fails if total statement coverage drops
# below COVER_FLOOR.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t=$$total -v floor=$(COVER_FLOOR) 'BEGIN { \
		if (t + 0 < floor) { printf "coverage %.1f%% is below the %.1f%% floor\n", t, floor; exit 1 } \
		printf "coverage %.1f%% (floor %.1f%%)\n", t, floor }'

# e2e smoke-tests the campaign service over real HTTP: cold campaign
# executes, identical resubmission is 100% cache hits with byte-identical
# served results, then roadctl drives the same default-mode daemon. Ends
# with the cluster scenario (e2e-cluster) unless E2E_SKIP_CLUSTER=1.
e2e:
	./scripts/e2e_smoke.sh

# e2e-cluster starts a coordinator plus three worker processes, SIGKILLs
# one worker holding claims mid-campaign, then a coordinator twice under
# a worker that re-joins, and asserts merged results byte-identical to a
# default-mode daemon's.
e2e-cluster:
	./scripts/e2e_cluster.sh

ci: build vet fmt-check test determinism race lint golden cover e2e
