package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"minvn/internal/dist"
	"minvn/internal/mc"
	"minvn/internal/protocol"
	"minvn/internal/protocol/xform"
	"minvn/internal/protocols"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenMSIBlocking pins the full explanation of the MSI blocking
// cache's Class 2 deadlock: the per-message hunt is a seeded sequential
// DFS, so the counterexample — and therefore the report, including the
// blocking cycle's messages, VNs, and queue positions — is
// deterministic. Regenerate with:
//
//	go test ./cmd/vnexplain -run TestGolden -update
func TestGoldenMSIBlocking(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "deadlock.dot")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-chart", "4", "-dot", dot, "MSI_blocking_cache"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}

	// The dot path is temp-dir dependent; pin its content separately
	// and strip the "wrote …" line from the golden body.
	var kept []string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "wrote ") {
			continue
		}
		kept = append(kept, line)
	}
	got := strings.Join(kept, "\n")

	golden := filepath.Join("testdata", "msi_blocking.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("output changed; run with -update if intended.\n--- got ---\n%s--- want ---\n%s", got, want)
		}
	}

	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph deadlock", "\"Fwd-GetM\"", "color=red", "style=dashed", "queues C0.vn5"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("dot output misses %q:\n%s", want, data)
		}
	}
}

// TestGoldenComposite pins the explanation of the two-level
// MSI-under-MESI composite wedging under a single uniform VN: the
// request the L1 re-queues behind its own launch shares the network
// with the outer protocol's responses, and the sequential DFS finds
// the resulting cycle in a handful of states. The composite is built
// by the transform pass, so this golden also pins Compose's renaming
// and pruning end to end. Regenerate with:
//
//	go test ./cmd/vnexplain -run TestGolden -update
func TestGoldenComposite(t *testing.T) {
	comp, err := xform.Compose(
		protocols.MustLoad("MSI_blocking_cache"),
		protocols.MustLoad("MESI_blocking_cache"), "MSI_under_MESI")
	if err != nil {
		t.Fatal(err)
	}
	data, err := protocol.Encode(comp)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "composite.json")
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{"-file", "-vn", "uniform", "-caches", "2", "-dirs", "1",
		"-addrs", "1", "-seed-owned=false", "-chart", "8", file}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	got := stdout.String()
	for _, want := range []string{"MSI_under_MESI", "2 caches, 1 l2s", "deadlock after"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output misses %q:\n%s", want, got)
		}
	}

	golden := filepath.Join("testdata", "composite.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("output changed; run with -update if intended.\n--- got ---\n%s--- want ---\n%s", got, want)
		}
	}
}

// TestNoDeadlockExit: a Class 3 protocol under its minimal assignment
// has no deadlock to explain; the command must say so and exit 1.
func TestNoDeadlockExit(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-vn", "minimal", "-caches", "2", "-dirs", "1", "-addrs", "1",
		"-seed-owned=false", "-max-states", "50000", "-strategy", "bfs",
		"MSI_nonblocking_cache"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "no deadlock") {
		t.Errorf("missing no-deadlock notice:\n%s", stdout.String())
	}
}

// TestDefaults: with no flags given, vnexplain hunts the way it always
// has — per-message VNs, sequential DFS with traces from the Fig. 3
// ownership seed, 600k states.
func TestDefaults(t *testing.T) {
	job, err := defaults.Resolve(protocols.MustLoad("MSI_blocking_cache"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := dist.Spec{VN: "permsg", Caches: 3, Dirs: 2, Addrs: 2, Strategy: "dfs",
		MaxStates: 600_000, Engine: "seq", Store: "exact", SeedOwned: true, Traces: true}
	if !reflect.DeepEqual(job.Spec, want) {
		t.Errorf("spec = %+v\nwant   %+v", job.Spec, want)
	}
	if job.Engine != dist.EngineSeq || len(job.Seeds) != 1 || job.Options.DisableTraces ||
		job.Options.Strategy != mc.DFS || job.Config.NumVNs != len(job.Config.Protocol.Messages) {
		t.Errorf("job: engine %v seeds %d options %+v vns %d", job.Engine, len(job.Seeds), job.Options, job.Config.NumVNs)
	}
}

// TestRunErrors covers flag and argument failures.
func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"no_such_protocol"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown protocol: run = %d, want 1", code)
	}
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no args: run = %d, want 2", code)
	}
	if code := run([]string{"-vn", "bogus", "MSI_blocking_cache"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad vn mode: run = %d, want 2", code)
	}
	if code := run([]string{"-strategy", "sideways", "MSI_blocking_cache"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad strategy: run = %d, want 2", code)
	}
}

// TestTraceAndStatsArtifacts: the shared telemetry flags produce a
// Chrome trace and a JSON artifact alongside the explanation.
func TestTraceAndStatsArtifacts(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "trace.json")
	statsOut := filepath.Join(dir, "stats.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-chart", "0", "-trace-out", traceOut, "-stats-json", statsOut,
		"-occupancy", "MSI_blocking_cache"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	for _, path := range []string{traceOut, statsOut} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", path)
		}
	}
	stats, _ := os.ReadFile(statsOut)
	for _, want := range []string{`"occupancy"`, `"report"`, `"deadlock"`} {
		if !strings.Contains(string(stats), want) {
			t.Errorf("stats artifact misses %s", want)
		}
	}
}
