# Every step of .github/workflows/ci.yml that runs Go is `make <target>`
# and nothing else, so a green `make ci` plus the bench/e2e targets the
# workflow names is a green CI run by construction.

GO ?= go

.PHONY: build vet fmt-check test fuzz-smoke determinism race race-cluster lint golden bench bench-smoke trace-demo ablation-h cover e2e e2e-cluster ci

# COVER_FLOOR is the minimum total statement coverage; measured at 79.7%
# when the floor was introduced, with a small margin for platform noise.
COVER_FLOOR ?= 78.0

build:
	$(GO) build ./...

# Every bench target runs ./benchmark, the one benchmark: BENCHMARK.json
# declares its workloads, end-to-end metrics and their regression bounds;
# benchmark/README.md explains them. No measured number is tracked in the
# repo, because a rate compares only with one taken on the same host.

# bench runs every workload of BENCHMARK.json once and prints the
# end-to-end metrics (`go run ./benchmark -trace 1` prints the per-layer
# budget). Each run is appended to .bench_build/out/report.json, so runs
# on other seeds (`go run ./benchmark -seed N -out .bench_build/out`) give
# `benchmark -check` its spread; "Comparing two commits" in
# benchmark/README.md is the paired recipe.
bench:
	$(GO) run ./benchmark -out .bench_build/out

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

# fuzz-smoke runs every fuzz target for FUZZTIME of generated input beyond
# its seed corpus (which `make test` already runs). `go test -fuzz` takes
# one target of one package per invocation, hence one line each.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/campaign/ -run '^$$' -fuzz '^FuzzQueueLogReplay$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/campaign/ -run '^$$' -fuzz '^FuzzQueueSnapshot$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/channel/ -run '^$$' -fuzz '^FuzzParseChannelTrace$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lint/ -run '^$$' -fuzz '^FuzzParseAllow$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mobility/ -run '^$$' -fuzz '^FuzzParseTrace$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim/ -run '^$$' -fuzz '^FuzzSkipNormFloat64$$' -fuzztime $(FUZZTIME)

# determinism re-runs the reproducibility tests on their own, so a
# regression fails CI under an unambiguous step name. The first line holds
# the library pool (campaign.Scheduler) to one worker and to a plain loop,
# and a run to its own replay. The ml line holds the
# sparse conv backward, the first layer's skipped input gradient and the
# batched forward kernels to their oracles bit for bit. The world line holds
# what a run reads of its world — traces cut at its horizon, each vehicle's
# data drawn on first read — to the eagerly built world and its goldens,
# and sim.RNG's normal sampler to math/rand's on a twin stream.
# The conformance line holds every strategy to same-seed byte identity and
# the collector strategies (OPP, RSU-assisted) to their digest golden.
determinism:
	$(GO) test ./internal/campaign/ ./internal/repro/ -run 'ByteIdentical|Invariant|MatchesSerial' -count=1
	$(GO) test ./internal/ml/ -run 'BitIdentical' -count=1
	$(GO) test ./internal/core/ ./internal/dataset/ ./internal/mobility/ ./internal/sim/ -run 'BitIdentical|MatchColdAndGolden' -count=1
	$(GO) test ./internal/conformance/ -count=1

race:
	$(GO) test -race ./...

# race-cluster is the durable/distributed half under the race detector:
# queue, coordinator, the Worker loop, the chaos harness and the daemon.
race-cluster:
	$(GO) test -race -count=1 ./internal/cluster/... ./internal/campaign/ ./cmd/roadrunnerd/

# lint runs the whole determinism suite; any finding fails it.
lint:
	$(GO) run ./cmd/roadlint ./...

# golden checks the CSV layouts of Figure 4 and ablations G and H (fixed
# inputs through the one CSV writer) and the whole of `figures -fig all
# -rounds 2 -seed 1`: its terminal output, the ten figure CSVs and trace
# T's two span CSVs, against testdata/r2s1/; -update must have been
# committed.
golden:
	$(GO) test ./cmd/figures/ -run 'Golden' -count=1

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

ci: build vet fmt-check test fuzz-smoke determinism race lint golden cover e2e
