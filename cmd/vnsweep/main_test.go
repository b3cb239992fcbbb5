package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"minvn/internal/ptest"
	"minvn/internal/vnassign"
)

// TestCheckAgainst covers the baseline comparison: a file round-trip
// agrees with itself, and each guarded column drifts loudly.
func TestCheckAgainst(t *testing.T) {
	fresh := &familyFile{
		Tool:    "vnsweep",
		Config:  config{Caches: 2, Dirs: 1, Addrs: 1, L2s: 1, MaxStates: 1000},
		Engines: "seq",
		Stores:  "exact",
		Rows: []row{{
			Protocol: "MSI_blocking_cache", Family: "MSI_blocking_cache",
			Variant: "stalling", Messages: 13,
			Static: vnassign.Verdict{Protocol: "MSI_blocking_cache", Outcome: "class2", Class: "Class 2",
				WaitsCycle: []string{"Fwd-GetM", "Inv"}, TextbookVNs: 3},
			VNMode: "permsg", NumVNsUsed: 13,
			Runs:  []ptest.Cell{{Engine: "seq", Store: "exact", Outcome: "complete", States: 500, MaxDepth: 20, Rules: 900}},
			Agree: true,
		}},
	}
	path := filepath.Join(t.TempDir(), "family.json")
	if err := writeJSON(path, fresh); err != nil {
		t.Fatal(err)
	}
	if err := checkAgainst(path, fresh); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}

	mutate := func(f func(*familyFile)) *familyFile {
		clone := *fresh
		clone.Rows = append([]row(nil), fresh.Rows...)
		clone.Rows[0].Runs = append([]ptest.Cell(nil), fresh.Rows[0].Runs...)
		f(&clone)
		return &clone
	}
	drifts := []struct {
		name string
		ff   *familyFile
		want string
	}{
		{"config", mutate(func(f *familyFile) { f.Config.Caches = 3 }), "configuration drift"},
		{"row-count", mutate(func(f *familyFile) { f.Rows = append(f.Rows, row{Protocol: "extra"}) }), "row count drift"},
		{"row-order", mutate(func(f *familyFile) { f.Rows[0].Protocol = "MESI_blocking_cache" }), "checked in"},
		{"class", mutate(func(f *familyFile) { f.Rows[0].Static.Class = "Class 3" }), "drifted"},
		{"static.num_vns", mutate(func(f *familyFile) { f.Rows[0].Static.NumVNs = 2 }), "drifted"},
		{"static.waits_cycle", mutate(func(f *familyFile) { f.Rows[0].Static.WaitsCycle = []string{"Inv", "Fwd-GetM"} }), "drifted"},
		{"outcome", mutate(func(f *familyFile) { f.Rows[0].Runs[0].Outcome = "deadlock" }), "outcome"},
		{"states", mutate(func(f *familyFile) { f.Rows[0].Runs[0].States = 501 }), "states/depth drift"},
		{"max_depth", mutate(func(f *familyFile) { f.Rows[0].Runs[0].MaxDepth = 21 }), "states/depth drift"},
	}
	for _, tc := range drifts {
		err := checkAgainst(path, tc.ff)
		if err == nil {
			t.Errorf("%s: drift not detected", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	if err := checkAgainst(filepath.Join(t.TempDir(), "missing.json"), fresh); !os.IsNotExist(err) {
		t.Errorf("missing baseline: err = %v, want not-exist", err)
	}
}
