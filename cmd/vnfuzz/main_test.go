package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"minvn/internal/obs/ledger"
)

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// TestCampaignRecord: a small clean campaign exits 0, prints its
// verdict histogram, and records the outcome and the typed campaign
// metrics.
func TestCampaignRecord(t *testing.T) {
	dir := t.TempDir()
	stats := filepath.Join(dir, "fuzz.json")
	code, out, errOut := runCmd(t, "-seed", "1", "-count", "3", "-max-states", "2000",
		"-repro-dir", filepath.Join(dir, "repros"), "-stats-json", stats)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	if !strings.HasPrefix(out, "3 cases, ") || !strings.Contains(out, "0 violation(s)") {
		t.Errorf("summary = %q", out)
	}
	raw, err := os.ReadFile(stats)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		ledger.Record
		Extra struct {
			Metrics metrics `json:"metrics"`
		} `json:"extra"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	m := rec.Extra.Metrics
	if rec.Tool != "vnfuzz" || rec.Outcome != "clean" || m.Cases != 3 || m.Violations != 0 {
		t.Fatalf("record: tool %q, outcome %q, metrics %+v", rec.Tool, rec.Outcome, m)
	}
	byVerdict, byOrigin := 0, 0
	for _, n := range m.ByVerdict {
		byVerdict += n
	}
	for _, n := range m.ByOrigin {
		byOrigin += n
	}
	if byVerdict != 3 || byOrigin != 3 {
		t.Errorf("histograms count %d verdicts and %d origins, want 3 each: %+v", byVerdict, byOrigin, m)
	}
	if rec.Params["max_states"] != 2000.0 || rec.Params["seed"] != 1.0 {
		t.Errorf("params = %v", rec.Params)
	}
}

// TestSelfTest: the fault-injection self-test passes and reports both
// verdicts.
func TestSelfTest(t *testing.T) {
	code, out, errOut := runCmd(t, "-self-test", "-max-states", "20000")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	if !strings.HasPrefix(out, "self-test ok: clean=ok injected=soundness-bug") {
		t.Errorf("self-test output = %q", out)
	}
}
