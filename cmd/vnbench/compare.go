package main

// vnbench -compare: the perf-regression gate. It diffs two BENCH
// artifacts produced by this tool (a checked-in baseline and a fresh
// run) row by row and fails on a states/s or heap regression beyond
// noise-aware thresholds.
//
// Noise handling, and why the thresholds are what they are:
//
//   - Relative, not absolute: machines differ; only the ratio
//     new/old within one artifact pair is meaningful.
//   - Same parallelism on both sides: artifacts recorded at different
//     GOMAXPROCS or CPU counts are refused like mismatched params —
//     the parallel engine's rows differ by construction there.
//   - A 20% states/s drop is the default gate. Short smoke runs
//     (~0.3s per engine) jitter by ±5-10% under CI load; 20% is far
//     enough outside that band to mean a real regression while still
//     catching an accidental O(n) → O(n log n) slip.
//   - Rows whose runtime is below the noise floor (default 50ms)
//     carry too few samples to judge throughput at all; they are
//     reported but never gate.
//   - Heap gates at +50% above a 32 MiB floor: allocator and GC
//     timing move peak heap by tens of percent run to run, and tiny
//     heaps are all measurement.
//   - Search-shape fields (outcome, states, depth, occupancy
//     aggregate) are deterministic for fixed params, so they are
//     compared exactly: any drift means the checker's behavior
//     changed and the baseline is stale — that is a failure too, with
//     a different message (regenerate the baseline), not a silent pass.
//
// Exit codes: 0 no regression, 1 regression or stale baseline,
// 2 unusable input (missing file, artifacts not comparable).

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"minvn/internal/mc"
	"minvn/internal/obs"
	"minvn/internal/obs/health"
	"minvn/internal/obs/ledger"
)

type compareOptions struct {
	// Threshold is the fractional states/s drop that fails the gate.
	Threshold float64
	// HeapThreshold is the fractional heap-bytes growth that fails.
	HeapThreshold float64
	// NoiseFloorSecs: rows faster than this never gate on throughput.
	NoiseFloorSecs float64
	// HeapFloorBytes: heaps smaller than this never gate on growth.
	HeapFloorBytes float64
	// DiffOut, when non-empty, receives the diff as a JSON artifact.
	DiffOut string
}

// compareRun is the subset of a vnbench row the gate reasons about.
type compareRun struct {
	Protocol     string  `json:"protocol"`
	Engine       string  `json:"engine"`
	Store        string  `json:"store"`
	Outcome      string  `json:"outcome"`
	States       int64   `json:"states"`
	MaxDepth     int64   `json:"max_depth"`
	StatesPerSec float64 `json:"states_per_sec"`
	HeapBytes    float64 `json:"heap_bytes"`
	Seconds      float64 `json:"seconds"`
	OccGlobalHWM int64   `json:"occ_global_hwm"`
	OccLocalHWM  int64   `json:"occ_local_hwm"`
	OccGlobal    float64 `json:"occ_global_mean"`
	OccLocal     float64 `json:"occ_local_mean"`
	// RuleFirings and Health ride on each protocol/store's baseline-
	// engine row; when present on both sides of a regression they feed
	// the attribution (which rule, which stripe range, which worker
	// phase absorbed the lost throughput).
	RuleFirings map[string]int64 `json:"rule_firings,omitempty"`
	Health      *health.Report   `json:"health,omitempty"`
}

type compareDoc struct {
	Tool       string         `json:"tool"`
	Created    string         `json:"created"`
	Provenance obs.Provenance `json:"provenance"`
	Params     map[string]any `json:"params"`
	Metrics    struct {
		Runs []compareRun `json:"runs"`
	} `json:"metrics"`
}

// diffRow is one gate decision, written to the diff artifact.
type diffRow struct {
	Protocol  string  `json:"protocol"`
	Engine    string  `json:"engine"`
	Store     string  `json:"store,omitempty"`
	Verdict   string  `json:"verdict"` // ok|improved|noisy|regression|heap-regression|search-changed|missing|new
	Detail    string  `json:"detail,omitempty"`
	OldSPS    float64 `json:"old_states_per_sec,omitempty"`
	NewSPS    float64 `json:"new_states_per_sec,omitempty"`
	SPSDelta  float64 `json:"states_per_sec_delta,omitempty"` // fractional: -0.25 = 25% slower
	OldHeap   float64 `json:"old_heap_bytes,omitempty"`
	NewHeap   float64 `json:"new_heap_bytes,omitempty"`
	HeapDelta float64 `json:"heap_bytes_delta,omitempty"`
	// Attribution names the top contributors behind a regression
	// verdict (per-rule firing excess, worker-phase time, stripe skew),
	// computed with the same engine vnstats compare uses. Present only
	// when the row regressed and either side carried profile data.
	Attribution *ledger.Attribution `json:"attribution,omitempty"`
}

func loadCompareDoc(path string) (*compareDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc compareDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Metrics.Runs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark runs in artifact (tool %q)", path, doc.Tool)
	}
	return &doc, nil
}

// comparabilityParams are the configuration knobs that must match
// between baseline and candidate for throughput ratios to mean
// anything. Engine coverage is checked per row instead, so an engine
// added to the new run surfaces as "new" rather than blocking the gate.
var comparabilityParams = []string{
	"max_states", "caches", "dirs", "addrs", "workers", "shards", "stores",
}

func checkComparableParam(k, ov, nv string) error {
	// Artifacts written before the store matrix carry no "stores"
	// param; treat that as the old single-store behavior ("exact") so
	// an old baseline still gates an exact-only candidate.
	if k == "stores" {
		if ov == "<nil>" {
			ov = "exact"
		}
		if nv == "<nil>" {
			nv = "exact"
		}
	}
	if ov != nv {
		return fmt.Errorf("param %q differs: baseline %s vs candidate %s", k, ov, nv)
	}
	return nil
}

func checkComparable(old, new *compareDoc) error {
	for _, k := range comparabilityParams {
		if err := checkComparableParam(k, fmt.Sprint(old.Params[k]), fmt.Sprint(new.Params[k])); err != nil {
			return err
		}
	}
	// Parallelism of the recording host: a 1-CPU baseline cannot gate a
	// 2-CPU candidate (or the reverse) on states/s — the parallel rows
	// differ by construction. Regenerate the baseline on the new host.
	for _, h := range []struct {
		name     string
		old, new int
	}{
		{"gomaxprocs", old.Provenance.GOMAXPROCS, new.Provenance.GOMAXPROCS},
		{"num_cpu", old.Provenance.NumCPU, new.Provenance.NumCPU},
	} {
		if h.old != h.new {
			return fmt.Errorf("provenance %q differs: baseline %d vs candidate %d", h.name, h.old, h.new)
		}
	}
	return nil
}

// runKey identifies a row. Rows from pre-store-matrix artifacts carry
// no store field and default to "exact", so old baselines keep
// matching new exact rows.
func runKey(r compareRun) string {
	store := r.Store
	if store == "" {
		store = "exact"
	}
	return r.Protocol + "/" + r.Engine + "/" + store
}

// compareRows produces the per-row gate decisions. Rows are ordered by
// the baseline's run order, with candidate-only rows appended.
func compareRows(old, new *compareDoc, opt compareOptions) []diffRow {
	newByKey := make(map[string]compareRun, len(new.Metrics.Runs))
	for _, r := range new.Metrics.Runs {
		newByKey[runKey(r)] = r
	}
	var rows []diffRow
	seen := make(map[string]bool)
	for _, o := range old.Metrics.Runs {
		if o.Protocol == "" || o.Engine == "" {
			continue // walk-failure rows carry no engine measurements
		}
		key := runKey(o)
		seen[key] = true
		n, ok := newByKey[key]
		if !ok {
			rows = append(rows, diffRow{
				Protocol: o.Protocol, Engine: o.Engine, Store: o.Store, Verdict: "missing",
				Detail: "row present in baseline but absent from candidate",
				OldSPS: o.StatesPerSec,
			})
			continue
		}
		rows = append(rows, compareOne(o, n, opt))
	}
	var extra []string
	for key := range newByKey {
		if !seen[key] {
			extra = append(extra, key)
		}
	}
	sort.Strings(extra)
	for _, key := range extra {
		n := newByKey[key]
		rows = append(rows, diffRow{
			Protocol: n.Protocol, Engine: n.Engine, Store: n.Store, Verdict: "new",
			Detail: "row absent from baseline", NewSPS: n.StatesPerSec,
		})
	}
	return rows
}

func compareOne(o, n compareRun, opt compareOptions) diffRow {
	row := diffRow{
		Protocol: o.Protocol, Engine: o.Engine, Store: o.Store,
		OldSPS: o.StatesPerSec, NewSPS: n.StatesPerSec,
		OldHeap: o.HeapBytes, NewHeap: n.HeapBytes,
	}
	if o.StatesPerSec > 0 {
		row.SPSDelta = n.StatesPerSec/o.StatesPerSec - 1
	}
	if o.HeapBytes > 0 {
		row.HeapDelta = n.HeapBytes/o.HeapBytes - 1
	}

	// Deterministic search shape first: a drift here is not noise.
	switch {
	case o.Outcome != n.Outcome:
		row.Verdict = "search-changed"
		row.Detail = fmt.Sprintf("outcome %s -> %s (baseline is stale; regenerate it)", o.Outcome, n.Outcome)
		return row
	case o.States != n.States || o.MaxDepth != n.MaxDepth:
		row.Verdict = "search-changed"
		row.Detail = fmt.Sprintf("states %d->%d depth %d->%d (baseline is stale; regenerate it)",
			o.States, n.States, o.MaxDepth, n.MaxDepth)
		return row
	case o.OccGlobalHWM != n.OccGlobalHWM || o.OccLocalHWM != n.OccLocalHWM ||
		o.OccGlobal != n.OccGlobal || o.OccLocal != n.OccLocal:
		row.Verdict = "search-changed"
		row.Detail = fmt.Sprintf("occupancy aggregate drifted: g%d/l%d mean %.4f/%.4f -> g%d/l%d mean %.4f/%.4f (baseline is stale; regenerate it)",
			o.OccGlobalHWM, o.OccLocalHWM, o.OccGlobal, o.OccLocal,
			n.OccGlobalHWM, n.OccLocalHWM, n.OccGlobal, n.OccLocal)
		return row
	}

	if o.Seconds < opt.NoiseFloorSecs || n.Seconds < opt.NoiseFloorSecs {
		row.Verdict = "noisy"
		row.Detail = fmt.Sprintf("runtime below the %.0fms noise floor; throughput not gated", 1000*opt.NoiseFloorSecs)
		return row
	}
	if row.SPSDelta < -opt.Threshold {
		row.Verdict = "regression"
		row.Detail = fmt.Sprintf("states/s fell %.1f%% (gate: %.0f%%)", -100*row.SPSDelta, 100*opt.Threshold)
		row.Attribution = rowAttribution(o, n)
		return row
	}
	if row.HeapDelta > opt.HeapThreshold &&
		o.HeapBytes >= opt.HeapFloorBytes && n.HeapBytes >= opt.HeapFloorBytes {
		row.Verdict = "heap-regression"
		row.Detail = fmt.Sprintf("heap grew %.1f%% (gate: %.0f%%)", 100*row.HeapDelta, 100*opt.HeapThreshold)
		row.Attribution = rowAttribution(o, n)
		return row
	}
	if row.SPSDelta > opt.Threshold {
		row.Verdict = "improved"
		return row
	}
	row.Verdict = "ok"
	return row
}

// rowAttribution runs the ledger attribution engine over a regressed
// row pair by lifting each row into a synthetic record. Rows that
// carry no profile data (non-baseline engines) attribute to nothing;
// the verdict stands on its own either way.
func rowAttribution(o, n compareRun) *ledger.Attribution {
	a := ledger.Attribute(recordFromRun(o), recordFromRun(n), 5)
	if len(a.Contributors) == 0 {
		return nil
	}
	return &a
}

func recordFromRun(r compareRun) *ledger.Record {
	return &ledger.Record{Snapshot: &mc.Snapshot{
		ElapsedSeconds: r.Seconds,
		StatesPerSec:   r.StatesPerSec,
		RuleFirings:    r.RuleFirings,
		Health:         r.Health,
	}}
}

// gateFailure reports whether a verdict fails the gate. "new" and
// "noisy" are informational; "missing" fails because a silently
// dropped row would otherwise shrink the gate's coverage forever.
func gateFailure(verdict string) bool {
	switch verdict {
	case "regression", "heap-regression", "search-changed", "missing":
		return true
	}
	return false
}

// runCompare is the -compare entry point; the returned int is the
// process exit code.
func runCompare(oldPath, newPath string, opt compareOptions, stdout, stderr io.Writer) int {
	oldDoc, err := loadCompareDoc(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "vnbench: -compare:", err)
		return 2
	}
	newDoc, err := loadCompareDoc(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "vnbench: -compare:", err)
		return 2
	}
	if err := checkComparable(oldDoc, newDoc); err != nil {
		fmt.Fprintf(stderr, "vnbench: -compare: artifacts not comparable: %v\n", err)
		return 2
	}

	rows := compareRows(oldDoc, newDoc, opt)
	failures := 0
	for _, row := range rows {
		mark := " "
		if gateFailure(row.Verdict) {
			mark = "!"
			failures++
		}
		store := row.Store
		if store == "" {
			store = "exact"
		}
		fmt.Fprintf(stdout, "%s %-26s %-9s %-8s %-15s %9.0f -> %9.0f states/s (%+6.1f%%)  heap %+6.1f%%",
			mark, row.Protocol, row.Engine, store, row.Verdict,
			row.OldSPS, row.NewSPS, 100*row.SPSDelta, 100*row.HeapDelta)
		if row.Detail != "" {
			fmt.Fprintf(stdout, "  %s", row.Detail)
		}
		fmt.Fprintln(stdout)
		if row.Attribution != nil {
			for _, c := range row.Attribution.Contributors {
				fmt.Fprintf(stdout, "      due to %s\n", c)
			}
		}
	}

	outcome := "ok"
	if failures > 0 {
		outcome = "regression"
	}
	if opt.DiffOut != "" {
		art := obs.NewArtifact("vnbench-compare")
		art.Params["baseline"] = oldPath
		art.Params["candidate"] = newPath
		art.Params["baseline_created"] = oldDoc.Created
		art.Params["candidate_created"] = newDoc.Created
		art.Params["threshold"] = opt.Threshold
		art.Params["heap_threshold"] = opt.HeapThreshold
		art.Params["noise_floor_secs"] = opt.NoiseFloorSecs
		art.Outcome = outcome
		art.Metrics = map[string]any{"rows": rows, "failures": failures}
		if err := art.WriteFile(opt.DiffOut); err != nil {
			fmt.Fprintln(stderr, "vnbench: -compare:", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s\n", opt.DiffOut)
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "vnbench: -compare: %d row(s) failed the gate\n", failures)
		return 1
	}
	return 0
}
