package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"minvn/internal/dist"
	"minvn/internal/mc"
	"minvn/internal/obs"
	"minvn/internal/obs/health"
	"minvn/internal/obs/ledger"
	"minvn/internal/vnassign"
)

// seedLedger writes a realistic baseline record and returns the path.
func seedLedger(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, err := ledger.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	occ := make([]int64, health.Stripes)
	for i := range occ {
		occ[i] = 500
	}
	rec := &ledger.Record{
		Tool:    "vnverify",
		Created: "2026-08-08T00:00:00Z",
		Params:  map[string]any{"protocol": "MSI_nonblocking_cache", "engine": "pipeline"},
		Outcome: "ok",
		Snapshot: &mc.Snapshot{
			Strategy:     "pipeline",
			States:       32000,
			StatesPerSec: 80000,
			DedupHitRate: 0.4,
			HeapBytes:    16 << 20,
			RuleFirings: map[string]int64{
				"core/load":   9000,
				"deliver/vn0": 15000,
				"process/Ack": 8000,
			},
			Health: &health.Report{
				Stripes:         health.Stripes,
				StripeOccupancy: occ,
				Workers: []health.WorkerStats{
					{Worker: 0, ExpandNS: 300e6, QueueWaitNS: 40e6, SendWaitNS: 10e6},
				},
			},
		},
		Stages: []obs.StageSummary{
			{Name: "mc/check", Count: 1, Seconds: 0.4, Max: 0.4},
			{Name: "vn/assign", Count: 1, Seconds: 0.02, Max: 0.02},
		},
	}
	rec.Snapshot.Health.Resummarize()
	if _, _, err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// TestInjectCompareAttribution is the end-to-end deterministic
// attribution contract (and what `make ledger-smoke` runs against a
// real verification): injecting an inflated stage, rule, and stripe
// range must be attributed to exactly those names by `compare`, and
// -expect must gate on it.
func TestInjectCompareAttribution(t *testing.T) {
	path := seedLedger(t)

	code, out, errOut := runCmd(t,
		"inject", "-ledger", path, "-slow", "1.6",
		"-stage", "mc/check=2.0", "-rule", "deliver/vn0=2.5",
		"-stripes", "12-19=3.0", "-expand", "2.0")
	if code != 0 {
		t.Fatalf("inject: code=%d out=%q err=%q", code, out, errOut)
	}

	code, out, errOut = runCmd(t,
		"compare", "-ledger", path, "-top", "5",
		"-expect", "stage:mc/check,rule:deliver/vn0,stripes:12-19,worker:expand")
	if code != 0 {
		t.Fatalf("compare: code=%d out=%q err=%q", code, out, errOut)
	}
	for _, want := range []string{
		"states/s (-37.5%)", // 1/1.6 - 1
		"[stage] mc/check",
		"[rule] deliver/vn0",
		"[stripes] 12-19",
		"[worker] expand",
		"all expectations met",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}

	// A wrong expectation must trip the gate.
	code, _, errOut = runCmd(t,
		"compare", "-ledger", path, "-top", "5", "-expect", "rule:core/store")
	if code != 1 {
		t.Fatalf("bad expectation: code=%d", code)
	}
	if !strings.Contains(errOut, "core/store") {
		t.Fatalf("gate error missing the unmet expectation: %q", errOut)
	}
}

func TestCompareJSONArtifact(t *testing.T) {
	path := seedLedger(t)
	if code, _, e := runCmd(t, "inject", "-ledger", path, "-slow", "2", "-stage", "mc/check=3"); code != 0 {
		t.Fatalf("inject failed: %s", e)
	}
	jsonOut := filepath.Join(t.TempDir(), "attr.json")
	if code, _, e := runCmd(t, "compare", "-ledger", path, "-json", jsonOut); code != 0 {
		t.Fatalf("compare failed: %s", e)
	}
	raw, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	// The result is a run record like every other tool's, with the
	// attribution under extra.metrics.
	var rec struct {
		Tool  string `json:"tool"`
		Extra struct {
			Metrics ledger.Attribution `json:"metrics"`
		} `json:"extra"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	att := rec.Extra.Metrics
	if rec.Tool != "vnstats" || len(att.Contributors) == 0 {
		t.Fatalf("record = %+v", rec)
	}
	if att.Contributors[0].Kind != "stage" || att.Contributors[0].Name != "mc/check" {
		t.Fatalf("top contributor = %+v", att.Contributors[0])
	}
}

func TestListAndTrend(t *testing.T) {
	path := seedLedger(t)
	if code, _, e := runCmd(t, "inject", "-ledger", path, "-slow", "1.5"); code != 0 {
		t.Fatalf("inject failed: %s", e)
	}

	code, out, _ := runCmd(t, "list", "-ledger", path)
	if code != 0 {
		t.Fatalf("list: code=%d", code)
	}
	if !strings.Contains(out, "MSI_nonblocking_cache") || !strings.Contains(out, "2 record(s)") {
		t.Fatalf("list output:\n%s", out)
	}
	// Filters must narrow.
	_, out, _ = runCmd(t, "list", "-ledger", path, "-protocol", "nope")
	if !strings.Contains(out, "0 record(s)") {
		t.Fatalf("filtered list output:\n%s", out)
	}

	code, out, _ = runCmd(t, "trend", "-ledger", path)
	if code != 0 {
		t.Fatalf("trend: code=%d", code)
	}
	if !strings.Contains(out, "MSI_nonblocking_cache (2 runs)") || !strings.Contains(out, "states/s") {
		t.Fatalf("trend output:\n%s", out)
	}
}

func TestUsageAndErrors(t *testing.T) {
	if code, _, _ := runCmd(t); code != 2 {
		t.Fatal("no args accepted")
	}
	if code, _, _ := runCmd(t, "bogus"); code != 2 {
		t.Fatal("unknown subcommand accepted")
	}
	if code, _, _ := runCmd(t, "list"); code != 2 {
		t.Fatal("missing -ledger accepted")
	}
	path := seedLedger(t)
	// compare needs two records.
	if code, _, _ := runCmd(t, "compare", "-ledger", path); code != 2 {
		t.Fatal("compare with one record accepted")
	}
	// inject -stage with no match must fail.
	if code, _, _ := runCmd(t, "inject", "-ledger", path, "-stage", "nope=2"); code != 2 {
		t.Fatal("inject with unmatched stage accepted")
	}
}

// TestLegacyLedgerByProtocol: list and trend find every record of a
// protocol, whether a verdict or static verdict names it or — in a
// ledger written before verdicts, one record each from vnverify,
// vnexplain, vnmin, a vnserved verify job and a vnserved analyze job —
// the params do. Analyze records have no snapshot, so no trend. The
// vnsweep and vnfuzz records of the same fixture, about no one
// protocol, list by tool.
func TestLegacyLedgerByProtocol(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "obs", "ledger", "testdata", "legacy.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := ledger.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := ledger.New("vnverify")
	rec.Verdict = &dist.Verdict{Protocol: "MSI_blocking_cache", Outcome: "bounded", States: 10}
	rec.Outcome, rec.Snapshot = "bounded", &mc.Snapshot{States: 10, StatesPerSec: 5}
	if _, _, err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	rec = ledger.New("vnmin")
	rec.Static = &vnassign.Verdict{Protocol: "CHI", Outcome: "class3", NumVNs: 2}
	rec.Outcome = rec.Static.Outcome
	if _, _, err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	l.Close()

	for proto, c := range map[string]struct {
		tools  []string
		trends int // records with a snapshot
	}{
		"MSI_nonblocking_cache":  {[]string{"vnverify"}, 1},
		"MSI_blocking_cache":     {[]string{"vnexplain", "vnverify"}, 2},
		"MESI_nonblocking_cache": {[]string{"vnmin", "vnserved"}, 1},
		"CHI":                    {[]string{"vnserved", "vnmin"}, 0},
	} {
		code, out, errOut := runCmd(t, "list", "-ledger", path, "-protocol", proto)
		if code != 0 {
			t.Fatalf("list -protocol %s: exit %d: %s", proto, code, errOut)
		}
		rows := strings.Split(strings.TrimSpace(out), "\n")
		if len(rows) != len(c.tools)+2 || rows[len(rows)-1] != fmt.Sprintf("%d record(s)", len(c.tools)) {
			t.Fatalf("list -protocol %s:\n%s", proto, out)
		}
		for i, tool := range c.tools {
			if f := strings.Fields(rows[i+1]); f[3] != tool || f[4] != proto {
				t.Errorf("list -protocol %s row %d = %q, want a %s run", proto, i, rows[i+1], tool)
			}
		}
		code, out, errOut = runCmd(t, "trend", "-ledger", path, "-protocol", proto)
		want := fmt.Sprintf("%s (%d runs)\n", proto, c.trends)
		if c.trends == 0 {
			want = "no trend data"
		}
		if code != 0 || !strings.HasPrefix(out, want) {
			t.Errorf("trend -protocol %s: exit %d, %q%s; want %q", proto, code, out, errOut, want)
		}
	}
	for tool, outcome := range map[string]string{"vnsweep": "ok", "vnfuzz": "clean"} {
		code, out, errOut := runCmd(t, "list", "-ledger", path, "-tool", tool)
		rows := strings.Split(strings.TrimSpace(out), "\n")
		if code != 0 || len(rows) != 3 || strings.Fields(rows[1])[4] != outcome {
			t.Errorf("list -tool %s: exit %d, %q%s; want one %s record", tool, code, out, errOut, outcome)
		}
	}
	if code, out, _ := runCmd(t, "list", "-ledger", path); code != 0 || !strings.HasSuffix(out, "\n9 record(s)\n") {
		t.Errorf("list: exit %d, %q; want every fixture record and both appended", code, out)
	}
}
