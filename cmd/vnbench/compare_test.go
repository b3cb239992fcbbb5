package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"minvn/internal/obs"
	"minvn/internal/obs/health"
)

func gateOpts() compareOptions {
	return compareOptions{
		Threshold:      0.20,
		HeapThreshold:  0.50,
		NoiseFloorSecs: 0.05,
		HeapFloorBytes: 32 << 20,
	}
}

func benchDoc(t *testing.T, dir, name string, runs []map[string]any) string {
	t.Helper()
	art := obs.NewArtifact("vnbench")
	art.Params = map[string]any{
		"max_states": 20000, "caches": 3, "dirs": 2, "addrs": 2,
		"workers": 4, "shards": 0,
	}
	art.Outcome = "ok"
	art.Metrics = map[string]any{"runs": runs}
	path := filepath.Join(dir, name)
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func benchRow(engine string, sps, heap, seconds float64) map[string]any {
	return map[string]any{
		"protocol":        "MSI_nonblocking_cache",
		"engine":          engine,
		"outcome":         "bounded",
		"states":          20000,
		"max_depth":       8,
		"states_per_sec":  sps,
		"heap_bytes":      heap,
		"seconds":         seconds,
		"occ_global_hwm":  6,
		"occ_local_hwm":   3,
		"occ_global_mean": 1.179,
		"occ_local_mean":  0.057,
	}
}

func TestCompareIdenticalArtifactsPass(t *testing.T) {
	dir := t.TempDir()
	path := benchDoc(t, dir, "base.json", []map[string]any{
		benchRow("seq", 60000, 64<<20, 0.33),
		benchRow("pipeline", 150000, 80<<20, 0.13),
	})
	var out, errw bytes.Buffer
	if code := runCompare(path, path, gateOpts(), &out, &errw); code != 0 {
		t.Fatalf("identical artifacts: exit %d\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Fatalf("no ok verdicts in output:\n%s", out.String())
	}
}

func TestCompareRegressionFails(t *testing.T) {
	dir := t.TempDir()
	old := benchDoc(t, dir, "old.json", []map[string]any{benchRow("seq", 60000, 64<<20, 0.33)})
	// 25% slower: past the 20% gate.
	new := benchDoc(t, dir, "new.json", []map[string]any{benchRow("seq", 45000, 64<<20, 0.44)})
	diffOut := filepath.Join(dir, "diff.json")
	opt := gateOpts()
	opt.DiffOut = diffOut
	var out, errw bytes.Buffer
	if code := runCompare(old, new, opt, &out, &errw); code != 1 {
		t.Fatalf("25%% regression: exit %d, want 1\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "regression") {
		t.Fatalf("no regression verdict:\n%s", out.String())
	}

	// The diff artifact records the failing row.
	raw, err := os.ReadFile(diffOut)
	if err != nil {
		t.Fatal(err)
	}
	var diff struct {
		Outcome string `json:"outcome"`
		Metrics struct {
			Rows     []diffRow `json:"rows"`
			Failures int       `json:"failures"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &diff); err != nil {
		t.Fatal(err)
	}
	if diff.Outcome != "regression" || diff.Metrics.Failures != 1 {
		t.Fatalf("diff artifact outcome=%q failures=%d", diff.Outcome, diff.Metrics.Failures)
	}
	if diff.Metrics.Rows[0].Verdict != "regression" || diff.Metrics.Rows[0].SPSDelta > -0.20 {
		t.Fatalf("diff row = %+v", diff.Metrics.Rows[0])
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	dir := t.TempDir()
	old := benchDoc(t, dir, "old.json", []map[string]any{benchRow("seq", 60000, 64<<20, 0.33)})
	// 10% slower: inside the 20% band.
	new := benchDoc(t, dir, "new.json", []map[string]any{benchRow("seq", 54000, 64<<20, 0.37)})
	var out, errw bytes.Buffer
	if code := runCompare(old, new, gateOpts(), &out, &errw); code != 0 {
		t.Fatalf("10%% drift: exit %d, want 0\n%s%s", code, out.String(), errw.String())
	}
}

func TestCompareNoiseFloorSuppressesGate(t *testing.T) {
	dir := t.TempDir()
	// 50% slower, but both runs are sub-noise-floor: report, don't gate.
	old := benchDoc(t, dir, "old.json", []map[string]any{benchRow("seq", 60000, 64<<20, 0.01)})
	new := benchDoc(t, dir, "new.json", []map[string]any{benchRow("seq", 30000, 64<<20, 0.02)})
	var out, errw bytes.Buffer
	if code := runCompare(old, new, gateOpts(), &out, &errw); code != 0 {
		t.Fatalf("sub-floor rows gated: exit %d\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "noisy") {
		t.Fatalf("no noisy verdict:\n%s", out.String())
	}
}

func TestCompareHeapRegressionFails(t *testing.T) {
	dir := t.TempDir()
	old := benchDoc(t, dir, "old.json", []map[string]any{benchRow("seq", 60000, 64<<20, 0.33)})
	new := benchDoc(t, dir, "new.json", []map[string]any{benchRow("seq", 60000, 128<<20, 0.33)})
	var out, errw bytes.Buffer
	if code := runCompare(old, new, gateOpts(), &out, &errw); code != 1 {
		t.Fatalf("2x heap: exit %d, want 1\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "heap-regression") {
		t.Fatalf("no heap-regression verdict:\n%s", out.String())
	}
}

func TestCompareSearchShapeDriftFails(t *testing.T) {
	dir := t.TempDir()
	old := benchDoc(t, dir, "old.json", []map[string]any{benchRow("seq", 60000, 64<<20, 0.33)})
	row := benchRow("seq", 60000, 64<<20, 0.33)
	row["states"] = 19999
	new := benchDoc(t, dir, "new.json", []map[string]any{row})
	var out, errw bytes.Buffer
	if code := runCompare(old, new, gateOpts(), &out, &errw); code != 1 {
		t.Fatalf("state-count drift: exit %d, want 1\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "search-changed") || !strings.Contains(out.String(), "regenerate") {
		t.Fatalf("missing stale-baseline diagnosis:\n%s", out.String())
	}
}

func TestCompareIncomparableParamsRejected(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(*obs.Artifact)
		wantErr string
	}{
		{"max_states", func(a *obs.Artifact) { a.Params["max_states"] = 300000 }, `param "max_states"`},
		// The baseline's host parallelism is part of what a states/s
		// number means: a 1-CPU recording must not gate a 2-CPU run.
		{"gomaxprocs", func(a *obs.Artifact) { a.Provenance.GOMAXPROCS++ }, `provenance "gomaxprocs"`},
		{"num_cpu", func(a *obs.Artifact) { a.Provenance.NumCPU++ }, `provenance "num_cpu"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			old := benchDoc(t, dir, "old.json", []map[string]any{benchRow("seq", 60000, 64<<20, 0.33)})

			art := obs.NewArtifact("vnbench")
			art.Params = map[string]any{
				"max_states": 20000, "caches": 3, "dirs": 2, "addrs": 2,
				"workers": 4, "shards": 0,
			}
			tc.mutate(art)
			art.Metrics = map[string]any{"runs": []map[string]any{benchRow("seq", 66000, 120<<20, 4.5)}}
			new := filepath.Join(dir, "new.json")
			if err := art.WriteFile(new); err != nil {
				t.Fatal(err)
			}

			var out, errw bytes.Buffer
			if code := runCompare(old, new, gateOpts(), &out, &errw); code != 2 {
				t.Fatalf("mismatched %s: exit %d, want 2\n%s%s", tc.name, code, out.String(), errw.String())
			}
			if !strings.Contains(errw.String(), "not comparable") || !strings.Contains(errw.String(), tc.wantErr) {
				t.Fatalf("missing comparability error naming %s:\n%s", tc.wantErr, errw.String())
			}
		})
	}
}

func TestCompareMissingRowFails(t *testing.T) {
	dir := t.TempDir()
	old := benchDoc(t, dir, "old.json", []map[string]any{
		benchRow("seq", 60000, 64<<20, 0.33),
		benchRow("pipeline", 150000, 80<<20, 0.13),
	})
	new := benchDoc(t, dir, "new.json", []map[string]any{benchRow("seq", 60000, 64<<20, 0.33)})
	var out, errw bytes.Buffer
	if code := runCompare(old, new, gateOpts(), &out, &errw); code != 1 {
		t.Fatalf("dropped row: exit %d, want 1\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "missing") {
		t.Fatalf("no missing verdict:\n%s", out.String())
	}
}

// TestCompareRegressionAttribution: a regressed row that carries the
// baseline-engine profile (rule firings + health) gets its slowdown
// attributed — the diff artifact and the console both name the rule
// whose firings grew beyond uniform scale and the stripe range that
// absorbed the excess state mass.
func TestCompareRegressionAttribution(t *testing.T) {
	dir := t.TempDir()

	profiledRow := func(sps, seconds float64, firings map[string]int64, stripes []int64, cv float64) map[string]any {
		row := benchRow("seq", sps, 64<<20, seconds)
		row["rule_firings"] = firings
		row["health"] = &health.Report{
			Stripes:         len(stripes),
			StripeOccupancy: stripes,
			OccCV:           cv,
		}
		return row
	}
	uniform := func(n int, v int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}

	old := benchDoc(t, dir, "old.json", []map[string]any{profiledRow(
		60000, 0.33,
		map[string]int64{"core/load": 10000, "deliver/vn0": 20000, "process/Ack": 10000},
		uniform(8, 1000), 0.02,
	)})
	// Candidate: 50% slower; deliver/vn0 fired 2.5x while the others
	// stayed flat, and stripes 2-3 tripled their occupancy.
	hotStripes := uniform(8, 1000)
	hotStripes[2], hotStripes[3] = 3000, 3000
	new := benchDoc(t, dir, "new.json", []map[string]any{profiledRow(
		30000, 0.66,
		map[string]int64{"core/load": 10000, "deliver/vn0": 50000, "process/Ack": 10000},
		hotStripes, 0.41,
	)})

	diffOut := filepath.Join(dir, "diff.json")
	opt := gateOpts()
	opt.DiffOut = diffOut
	var out, errw bytes.Buffer
	if code := runCompare(old, new, opt, &out, &errw); code != 1 {
		t.Fatalf("regression: exit %d, want 1\n%s%s", code, out.String(), errw.String())
	}
	for _, want := range []string{"due to", "[rule] deliver/vn0", "[stripes] 2-3"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("console attribution misses %q:\n%s", want, out.String())
		}
	}

	raw, err := os.ReadFile(diffOut)
	if err != nil {
		t.Fatal(err)
	}
	var diff struct {
		Metrics struct {
			Rows []diffRow `json:"rows"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &diff); err != nil {
		t.Fatal(err)
	}
	attr := diff.Metrics.Rows[0].Attribution
	if attr == nil {
		t.Fatal("diff artifact row carries no attribution")
	}
	kinds := map[string]string{}
	for _, c := range attr.Contributors {
		if _, ok := kinds[c.Kind]; !ok {
			kinds[c.Kind] = c.Name // top contributor per kind (sorted by share)
		}
	}
	if kinds["rule"] != "deliver/vn0" || kinds["stripes"] != "2-3" {
		t.Fatalf("top contributors = %v, want rule deliver/vn0 and stripes 2-3", kinds)
	}
}

// A regressed row with no profile data still gates — it just carries
// no attribution.
func TestCompareRegressionWithoutProfile(t *testing.T) {
	dir := t.TempDir()
	old := benchDoc(t, dir, "old.json", []map[string]any{benchRow("seq", 60000, 64<<20, 0.33)})
	new := benchDoc(t, dir, "new.json", []map[string]any{benchRow("seq", 30000, 64<<20, 0.66)})
	var out, errw bytes.Buffer
	if code := runCompare(old, new, gateOpts(), &out, &errw); code != 1 {
		t.Fatalf("regression: exit %d, want 1\n%s%s", code, out.String(), errw.String())
	}
	if strings.Contains(out.String(), "due to") {
		t.Fatalf("attribution invented contributors from nothing:\n%s", out.String())
	}
}
