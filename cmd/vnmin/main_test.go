package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"minvn"
	"minvn/internal/analysis"
	"minvn/internal/obs/ledger"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGolden locks the CLI's static-analysis output on the built-in
// protocols. Regenerate with: go test ./cmd/vnmin -run TestGolden -update
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"MSI_blocking_cache", []string{"MSI_blocking_cache"}},
		{"MSI_nonblocking_cache", []string{"-relations", "-textbook", "MSI_nonblocking_cache"}},
		{"MESI_nonblocking_cache", []string{"MESI_nonblocking_cache"}},
		{"MOSI_blocking_cache", []string{"MOSI_blocking_cache"}},
		{"CHI", []string{"-textbook", "CHI"}},
		{"TileLink", []string{"TileLink"}},
		{"MSI_completion", []string{"MSI_completion"}},
		{"list", []string{"-list"}},
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

func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"no_such_protocol"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown protocol: run = %d, want 1", code)
	}
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no args: run = %d, want 2", code)
	}
}

// TestStatsJSONStatic: a -stats-json record states the answer as the
// library's static verdict, with the run's outcome repeating its class
// tag; under -separate-data the verdict names the constraints it was
// computed under, Class 2 included, and counts MinimizeConstrained's VNs.
func TestStatsJSONStatic(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sepData bool
	}{
		{"CHI", false},
		{"MSI_blocking_cache", false},
		{"CHI", true},
		{"MSI_blocking_cache", true},
	} {
		p := protocols.MustLoad(tc.name)
		r := analysis.Analyze(p)
		a := vnassign.AssignFromAnalysis(r)
		args := []string{"-stats-json", filepath.Join(t.TempDir(), "rec.json"), tc.name}
		if tc.sepData {
			args = append([]string{"-separate-data"}, args...)
			var err error
			if a, err = vnassign.AssignConstrained(r, vnassign.SeparateDataFromControl(p)); err != nil {
				t.Fatal(err)
			}
		}
		want := a.Verdict()

		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d, stderr: %s", args, code, stderr.String())
		}
		raw, err := os.ReadFile(args[len(args)-2])
		if err != nil {
			t.Fatal(err)
		}
		var rec ledger.Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Static == nil || !reflect.DeepEqual(*rec.Static, want) || rec.Outcome != want.Outcome {
			t.Errorf("%v: record outcome %q, static %+v\nwant %+v", args, rec.Outcome, rec.Static, want)
		}
		if len(rec.Params) != 0 || len(rec.Extra) != 0 {
			t.Errorf("%v: record writes params %v, extra %v", args, rec.Params, rec.Extra)
		}
		if tc.sepData && len(want.Constraints) == 0 {
			t.Errorf("%v: verdict lacks its constraints", args)
		}
		if tc.sepData && want.Outcome == "class3" {
			res, err := minvn.MinimizeConstrained(p, minvn.SeparateDataFromControl(p))
			if err != nil || res.NumVNs != want.NumVNs {
				t.Errorf("%v: num_vns %d, MinimizeConstrained %v (err %v)", args, want.NumVNs, res, err)
			}
		}
		if want.Outcome == "class2" && len(want.WaitsCycle) == 0 {
			t.Errorf("%v: Class 2 verdict lacks its waits cycle", args)
		}
	}
}
