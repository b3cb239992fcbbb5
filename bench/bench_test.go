package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"minvn/internal/obs/trace/tracetest"
)

// TestMain lets the test binary stand in for the bench binary: the
// bench re-executes itself for every repetition, and under `go test`
// "itself" is this binary.
func TestMain(m *testing.M) {
	if os.Getenv(childEnvVar) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesMatchBenchmarkJSON pins the code's vocabulary to the file
// the driver and later issues read.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the bench %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, bench %q/%q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, file []jsonMetric, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the bench %d", kind, len(file), len(code))
		}
		for i, m := range code {
			if got := (metricDef{file[i].Name, file[i].Unit, file[i].Better, file[i].Bound}); got != m {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, bench %+v", kind, i, got, m)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)

	seen := map[string]bool{}
	var all []string
	for _, w := range workloads {
		all = append(all, w.name)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		all = append(all, m.name)
	}
	for _, n := range all {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q uses characters outside letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if !endToEndHas("setup_s") {
		t.Error("no setup_s end-to-end metric")
	}
}

func endToEndHas(name string) bool {
	for _, m := range endToEnd {
		if m.name == name {
			return true
		}
	}
	return false
}

// contractLine runs the bench as the driver does, at smoke size, and
// returns the JSON object on the last line of its output.
func contractLine(t *testing.T, out, workload, traceFlag string) map[string]json.RawMessage {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", "7", "--seconds", "0", "--trace", traceFlag, "-smoke", "-out", out)
	cmd.Env = append(os.Environ(), childEnvVar+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s --trace %s: %v\n%s%s", workload, traceFlag, err, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatalf("%s: last line is not a JSON object: %v\n%s", workload, err, lines[len(lines)-1])
	}
	return obj
}

// TestSmoke runs all seven workloads end to end at about 1/50 size:
// every verdict must check out, the reported names must be exactly
// the declared ones, and the trace must be well-formed with every span
// inside its parent.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			out := t.TempDir()
			for traceFlag, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
				obj := contractLine(t, out, w.name, traceFlag)
				for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
					if _, ok := obj[key]; !ok {
						t.Errorf("--trace %s: result has no %q", traceFlag, key)
					}
				}
				if len(obj) != 4 {
					t.Errorf("--trace %s: result has %d keys, want exactly 4", traceFlag, len(obj))
				}
				var attempted, failed int
				var correct bool
				_ = json.Unmarshal(obj["attempted"], &attempted)
				_ = json.Unmarshal(obj["failed"], &failed)
				_ = json.Unmarshal(obj["correct"], &correct)
				if !correct || failed != 0 || attempted < 1 {
					t.Errorf("--trace %s: correct=%v attempted=%d failed=%d", traceFlag, correct, attempted, failed)
				}
				var metrics map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				}
				if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				if len(metrics) != len(defs) {
					t.Errorf("--trace %s: %d metrics reported, %d declared", traceFlag, len(metrics), len(defs))
				}
				for _, m := range defs {
					got, ok := metrics[m.name]
					switch {
					case !ok || got.Value == nil:
						t.Errorf("--trace %s: metric %s missing", traceFlag, m.name)
					case got.Unit != m.unit:
						t.Errorf("metric %s: unit %q, declared %q", m.name, got.Unit, m.unit)
					case traceFlag == "0" && *got.Value <= 0:
						t.Errorf("end-to-end metric %s reads %v; it must never be 0", m.name, *got.Value)
					}
				}
			}
			checkTrace(t, filepath.Join(out, "trace-"+w.name+".json"))
		})
	}
}

// checkTrace validates an exported trace and the containment of every
// span in a span of its parent's name.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type span struct{ start, end float64 }
	byName := map[string][]span{}
	for _, ev := range tracetest.Validate(t, data) {
		if ev["ph"] != "X" {
			continue
		}
		ts, _ := ev["ts"].(float64)
		dur, _ := ev["dur"].(float64)
		name, _ := ev["name"].(string)
		byName[name] = append(byName[name], span{ts, ts + dur})
	}
	if len(byName["rep"]) != 1 || len(byName["verdict"]) != 1 {
		t.Fatalf("%s: want one rep and one verdict span, got %d and %d", path, len(byName["rep"]), len(byName["verdict"]))
	}
	const slack = 0.002 // µs: timestamps are rounded to the nanosecond
	for name, spans := range byName {
		if name == "rep" {
			continue
		}
		parent, ok := spanParent[name]
		if !ok {
			t.Errorf("%s: span %q has no declared parent", path, name)
			continue
		}
		for _, s := range spans {
			inside := false
			for _, p := range byName[parent] {
				if s.start >= p.start-slack && s.end <= p.end+slack {
					inside = true
					break
				}
			}
			if !inside {
				t.Errorf("%s: %s span [%.3f, %.3f] lies in no %s span", path, name, s.start, s.end, parent)
			}
		}
	}
}

// TestQuartilesMatchPython pins the spread rule to Python's
// statistics.quantiles(v, n=4), in which the acceptance rule is stated.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 9, 3, 7, 2, 8, 10, 4, 6}, 2.75, 8.25},
		{[]float64{1.5, 2.5}, 1.25, 2.75},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

// TestCompare covers the three verdicts and the provenance refusal.
func TestCompare(t *testing.T) {
	lower := metricDef{"verdict_s", "s", "lower", 0.10}
	higher := metricDef{"units_per_s", "1/s", "higher", 0.10}
	s := func(v ...float64) sample { return newSample("", v) }
	for _, c := range []struct {
		m    metricDef
		a, b sample
		want string
	}{
		{lower, s(1.00, 1.01, 1.02), s(1.05, 1.06, 1.07), "pass"},
		{lower, s(1.00, 1.01, 1.02), s(1.20, 1.21, 1.22), "regressed"},
		{higher, s(100, 101, 102), s(80, 81, 82), "regressed"},
		{higher, s(100, 101, 102), s(120, 121, 122), "pass"},
		{lower, s(1.0, 1.3, 1.6), s(1.1, 1.4, 1.7), "unresolved"},
		{lower, s(1.0, 1.3, 1.6), s(0.5, 0.7, 0.9), "pass"}, // wide, but every run beats every baseline run
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.m.name, c.a.Values, c.b.Values, got, c.want)
		}
	}

	dir := t.TempDir()
	write := func(name string, procs int) string {
		f := resultFile{Workloads: map[string]*workloadResult{}}
		f.Provenance.GOMAXPROCS = procs
		for _, w := range workloads {
			wr := &workloadResult{EndToEnd: map[string]sample{}}
			for _, m := range endToEnd {
				wr.EndToEnd[m.name] = s(1.00, 1.01, 1.02)
			}
			f.Workloads[w.name] = wr
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.json", 2), write("b.json", 2), write("c.json", 1)
	var out bytes.Buffer
	if code := runCompare([]string{a, b}, &out); code != 0 {
		t.Errorf("identical runs compare with exit %d:\n%s", code, out.String())
	}
	if rows := strings.Count(out.String(), "pass"); rows != len(workloads)*len(endToEnd) {
		t.Errorf("%d pass rows, want one per (workload, metric) = %d", rows, len(workloads)*len(endToEnd))
	}
	if code := runCompare([]string{a, c}, &out); code != 2 {
		t.Errorf("runs at different GOMAXPROCS compare with exit %d, want refusal (2)", code)
	}
}
