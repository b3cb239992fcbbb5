GO ?= go

.PHONY: build test race vet fmt check serve-stress bench-build perf-gate fuzz-smoke table depth-table serve family family-smoke family-cover ledger-smoke dist-smoke

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

check: build vet fmt test serve-stress bench-build perf-gate

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

# Performance gate (~6 min): a same-session A/B of bench/ at
# `--seconds 1` against the base commit, two alternating pairs under
# BENCHMARK.json's bounds; see scripts/perf-gate.sh. There is no
# checked-in throughput baseline to go stale.
perf-gate:
	bash scripts/perf-gate.sh

# Bounded differential-fuzzing pass for CI: a fixed-seed campaign of
# generated protocols through the full analysis → assignment → model
# checking stack on both engines and both stores (~20s). Any oracle
# violation (soundness, parity, or assignment) exits nonzero and leaves
# a shrunk repro under vnfuzz-repros/; FUZZ_smoke.json is the campaign's
# run record.
fuzz-smoke:
	$(GO) run ./cmd/vnfuzz -self-test
	$(GO) run ./cmd/vnfuzz -seed 1 -count 40 -max-states 20000 \
		-engines seq,pipeline -stores exact,compact \
		-repro-dir vnfuzz-repros \
		-stats-json FUZZ_smoke.json

table:
	$(GO) run ./cmd/vntable -extensions

# How deep bounded verification gets at the paper's configuration on
# this box (~15 min, up to ~6 GB resident): every clean Table I row at
# 3c/2d/2a through `vnverify -engine seq -store exact` to 20,000,000
# states under GOMEMLIMIT=6GiB, as a Markdown table of deepest complete
# level, states, wall time and peak RSS. EXPERIMENTS.md § "Depth reached
# at 3c/2d/2a" is its output; Table I's note and deviation 1 cite it.
depth-table:
	python3 scripts/depth-table.py

# Regenerate FAMILY_mc.json: every built-in in stalling and derived
# non-stalling form plus the two-level composites, analyzed statically
# and model checked on every engine × store combination (~30s).
family:
	$(GO) run ./cmd/vnsweep -out FAMILY_mc.json

# CI gate for the family sweep: recompute the whole campaign and
# compare each row's static verdict and per-combination outcomes (plus
# states/max_depth for completed runs) against the checked-in
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
		./cmd/vnsweep/ ./cmd/vnfuzz/ ./cmd/vntable/

# Run the analysis service in the foreground (SIGINT/SIGTERM drains
# gracefully and exits 0).
serve:
	$(GO) run ./cmd/vnserved -addr 127.0.0.1:8437

# Distributed-engine smoke, in two parts. First, failure recovery
# under the race detector, twenty times over: a seeded lossy network
# around both transports (drops, duplicates, delays, reorders, lost
# control calls) must end every schedule in the fault-free result or a
# typed WorkerLostError; a canceled run must return while a worker is
# blocked mid-delivery; a replaced run must stop shipping; and over
# HTTP a worker killed mid-run and a worker whose frontier endpoint
# fails must both fail the job cleanly (no hang, no partial result).
# Second, a dist run is recorded to a ledger and read back, proving
# dist runs carry the "dist" engine tag through the query side.
# (Pipeline-vs-dist agreement, occupancy aggregate included, is
# TestDistParityComplete.)
dist-smoke:
	$(GO) test -race -count=20 -run 'TestDistFaults|TestDistCancelMidDelivery|TestInitStopsReplacedRun|TestDistWorkerLoss|TestDistSendFailure' ./internal/dist/
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
# wrote. Last, vnmin records CHI's static verdict (2 VNs, against the
# textbook's 4). Leaves LEDGER_smoke.jsonl (run records),
# LEDGER_attr.json (the attribution, itself a run record) and
# LEDGER_vnmin.json (vnmin's run record, indented) behind.
ledger-smoke:
	rm -f LEDGER_smoke.jsonl LEDGER_vnmin.json
	$(GO) run ./cmd/vnverify -workers 4 -store compact -max-states 30000 \
		-ledger LEDGER_smoke.jsonl MSI_nonblocking_cache
	grep -q '"verdict":{' LEDGER_smoke.jsonl
	grep -q '"max_states":30000' LEDGER_smoke.jsonl
	grep -q '"outcome":"bounded"' LEDGER_smoke.jsonl
	$(GO) run ./cmd/vnstats inject -ledger LEDGER_smoke.jsonl -slow 1.6 \
		-stage mc/check=2.0 -rule deliver/vn0=2.5 -stripes 12-19=2.0
	$(GO) run ./cmd/vnstats compare -ledger LEDGER_smoke.jsonl -top 5 \
		-json LEDGER_attr.json \
		-expect stage:mc/check,rule:deliver/vn0,stripes:12-19
	$(GO) run ./cmd/vnstats list -ledger LEDGER_smoke.jsonl
	$(GO) run ./cmd/vnstats trend -ledger LEDGER_smoke.jsonl
	$(GO) run ./cmd/vnmin -stats-json LEDGER_vnmin.json CHI
	grep -q '"static": {' LEDGER_vnmin.json
	grep -q '"num_vns": 2,' LEDGER_vnmin.json
	grep -q '"textbook_vns": 4,' LEDGER_vnmin.json
	grep -q '"outcome": "class3",' LEDGER_vnmin.json
