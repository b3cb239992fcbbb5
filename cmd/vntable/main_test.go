package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"minvn/internal/protocols"
	"minvn/internal/ptest"
	"minvn/internal/vnassign"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGolden locks the static Table I output (no model checking, so
// the run is fast and fully deterministic). Regenerate with:
// go test ./cmd/vntable -run TestGolden -update
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"table", nil},
		{"table_extensions", []string{"-extensions"}},
		{"table_family", []string{"-extensions", "-family"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("run(%v) = %d, stderr: %s", tc.args, code, stderr.String())
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("output changed; run with -update if intended.\n--- got ---\n%s--- want ---\n%s", stdout.String(), want)
			}
		})
	}
}

// TestStatsJSONRows: every artifact row carries the library's static
// verdict for its protocol, and a family row its parent's too.
func TestStatsJSONRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-extensions", "-family", "-stats-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Extra struct {
			Metrics struct {
				Rows []tableRow `json:"rows"`
			} `json:"metrics"`
		} `json:"extra"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	fam, err := ptest.Family()
	if err != nil {
		t.Fatal(err)
	}
	var want []tableRow
	for _, r := range append(tableI, extensionRows...) {
		for _, name := range r.protos {
			want = append(want, tableRow{Experiment: r.experiment, Expected: r.expect,
				Static: vnassign.Assign(protocols.MustLoad(name)).Verdict()})
		}
	}
	for _, m := range fam {
		row := tableRow{Experiment: "family", Static: vnassign.Assign(m.Proto).Verdict()}
		if m.Parent != nil {
			parent := vnassign.Assign(m.Parent).Verdict()
			row.Parent = &parent
		}
		want = append(want, row)
	}
	got := rec.Extra.Metrics.Rows
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		got[i].Derivation = ""
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("row %d = %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
