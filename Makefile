GO ?= go

.PHONY: build test race vet fmt check serve-stress bench-build bench bench-smoke bench-gate fuzz-smoke table serve serve-smoke family family-smoke family-cover ledger-smoke dist-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/mc/... ./internal/dist/...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

check: build vet fmt test serve-stress bench-build

# The serving layer's ordering contracts (a job is "done" only once its
# ledger record and log line exist; records land in completion order)
# only show under repetition on a loaded box.
serve-stress:
	$(GO) test ./internal/serve -count=50

# The repository benchmark (bench/, see BENCHMARK.json) is a nested
# module, invisible to `go test ./...` at the root: vet it and run its
# smoke test here, so an mc/dist/serve API change that breaks it fails
# the check instead of the benchmark run.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Model-checker throughput at the paper config (3 caches, 2 dirs,
# 2 addrs): states/sec, speedup, and heap footprint for MSI/MESI/MOESI
# on the sequential and pipelined engines, exact and compact stores.
bench:
	$(GO) run ./cmd/vnbench -workers 4 -out BENCH_mc.json

# Small-bound version of bench for CI: exercises both engines end to
# end and emits the artifact, without the full paper-scale state count.
# 60,000 states is the smallest round bound whose rows (~130 ms) clear
# the gate's 50 ms noise floor since expansion got 3x faster; at the
# old 20,000 every row ran ~40 ms and throughput went ungated.
bench-smoke:
	$(GO) run ./cmd/vnbench -workers 4 -max-states 60000 -out BENCH_mc.json

# Perf-regression gate: rerun the smoke bench into a fresh artifact
# and diff it against the checked-in BENCH_mc.json baseline with
# noise-aware thresholds (see cmd/vnbench/compare.go). Exits nonzero
# on a >20% states/s or >50% heap regression, or when the baseline has
# gone stale (search shape drifted — regenerate with `make bench-smoke`
# and commit the result); exits 2, refusing to compare, when the
# baseline was recorded at a different GOMAXPROCS or CPU count.
bench-gate:
	$(GO) run ./cmd/vnbench -workers 4 -max-states 60000 -out BENCH_gate.json
	$(GO) run ./cmd/vnbench -compare -diff-out BENCH_diff.json \
		BENCH_mc.json BENCH_gate.json

# Bounded differential-fuzzing pass for CI: a fixed-seed campaign of
# generated protocols through the full analysis → assignment → model
# checking stack on both engines and both stores (~20s). Any oracle
# violation (soundness, parity, or assignment) exits nonzero and leaves
# a shrunk repro under vnfuzz-repros/.
fuzz-smoke:
	$(GO) run ./cmd/vnfuzz -self-test
	$(GO) run ./cmd/vnfuzz -seed 1 -count 40 -max-states 20000 \
		-engines seq,pipeline -stores exact,compact \
		-repro-dir vnfuzz-repros \
		-stats-json FUZZ_smoke.json

table:
	$(GO) run ./cmd/vntable -extensions

# Regenerate FAMILY_mc.json: every built-in in stalling and derived
# non-stalling form plus the two-level composites, analyzed statically
# and model checked on every engine × store combination (~30s).
family:
	$(GO) run ./cmd/vnsweep -out FAMILY_mc.json

# CI gate for the family sweep: recompute the whole campaign and
# compare classes, min-VN counts, and per-combination outcomes (plus
# states/depth for completed runs) against the checked-in
# FAMILY_mc.json. Cross-engine/cross-store disagreement fails the run
# on its own; on any mismatch the recomputed table is left in
# FAMILY_mc.json.fresh as the failure artifact.
family-smoke:
	$(GO) run ./cmd/vnsweep -check FAMILY_mc.json

# Coverage summary for the synthesis stack: the transform/compose
# pass, the property-test harness that differentially checks it, and
# the commands that consume it.
family-cover:
	$(GO) test -short -cover ./internal/protocol/xform/ ./internal/ptest/ \
		./cmd/vnsweep/ ./cmd/vntable/

# Run the analysis service in the foreground (SIGINT/SIGTERM drains
# gracefully and exits 0).
serve:
	$(GO) run ./cmd/vnserved -addr 127.0.0.1:8437

# Serving-layer smoke: spin up an in-process server, oversubscribe it
# with a burst of distinct verify jobs (asserting >=8 concurrent
# in-flight jobs and 503 backpressure), then check analyze, cold/hot
# cache byte-identity, and SSE event ordering. Artifacts:
# BENCH_serve.json (load-gen numbers) + SERVE_stats.json (server
# counters).
serve-smoke:
	$(GO) run ./cmd/vnbench -serve -serve-stats SERVE_stats.json \
		-out BENCH_serve.json

# Distributed-engine smoke, in three parts. First the agreement check:
# the pipelined and distributed (coordinator + 2 loopback workers)
# engines must agree byte-for-byte — outcome, state count, depth, and
# the full per-VN occupancy aggregate — on an exhaustively-checkable
# configuration; vnbench exits nonzero on any disagreement. (-max-states
# 0 because dist applies the state bound at level granularity.) Second,
# failure recovery under the race detector: a worker killed mid-run and
# a worker whose frontier endpoint blackholes must both fail the job
# cleanly (typed WorkerLostError, no hang, no partial result). Third, a
# dist run is recorded to a ledger and read back, proving dist runs
# carry the "dist" engine tag through the query side.
dist-smoke:
	$(GO) run ./cmd/vnbench -engines pipeline,dist -max-states 0 \
		-caches 2 -dirs 1 -addrs 1 -workers 2 \
		-out BENCH_dist.json MSI_nonblocking_cache
	$(GO) test -race -run 'TestDistWorkerLoss|TestDistSendFailure' ./internal/dist/
	rm -f LEDGER_dist.jsonl
	$(GO) run ./cmd/vnverify -engine dist -workers 2 -max-states 30000 \
		-ledger LEDGER_dist.jsonl MSI_nonblocking_cache
	grep -q '"engine":"dist"' LEDGER_dist.jsonl
	$(GO) run ./cmd/vnstats list -ledger LEDGER_dist.jsonl

# End-to-end check of the run ledger and regression attribution: record
# a real (bounded) verification, append a synthetically perturbed copy
# of it with vnstats inject, and require vnstats compare to attribute
# the regression to exactly the injected stage, rule, and stripe range
# (-expect exits nonzero on a miss). list and trend then read the same
# ledger back, proving the query side parses what the record side
# wrote. Leaves LEDGER_smoke.jsonl behind as the artifact.
ledger-smoke:
	rm -f LEDGER_smoke.jsonl
	$(GO) run ./cmd/vnverify -workers 4 -store compact -max-states 30000 \
		-ledger LEDGER_smoke.jsonl MSI_nonblocking_cache
	$(GO) run ./cmd/vnstats inject -ledger LEDGER_smoke.jsonl -slow 1.6 \
		-stage mc/check=2.0 -rule deliver/vn0=2.5 -stripes 12-19=2.0
	$(GO) run ./cmd/vnstats compare -ledger LEDGER_smoke.jsonl -top 5 \
		-json LEDGER_attr.json \
		-expect stage:mc/check,rule:deliver/vn0,stripes:12-19
	$(GO) run ./cmd/vnstats list -ledger LEDGER_smoke.jsonl
	$(GO) run ./cmd/vnstats trend -ledger LEDGER_smoke.jsonl
