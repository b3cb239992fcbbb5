// Command bench is the repository's benchmark: seven verdict workloads
// measured end to end, every verdict checked against a known answer,
// and a separate traced repetition per workload that attributes the
// time to layers from outside, by timing calls into their exported
// functions. See README.md in this directory.
//
//	bash bench/run.sh                                     every workload, result file in bench/out
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   one workload, one JSON result line
//	bash bench/run.sh -compare a.json b.json              apply the bounds to two result files
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"

	"minvn/internal/obs"
)

// minReps is the fewest untraced repetitions a run reports a median
// of; setupSamples is how many times set-up is timed per run.
const (
	minReps      = 3
	setupSamples = 9
)

// childEnvVar marks a process the bench spawned. The bench itself never
// reads it; bench_test.go does, so that the test binary can stand in
// for the bench binary when the bench re-executes "itself".
const childEnvVar = "MINVN_BENCH_CHILD"

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	smoke    bool
	outDir   string
}

func main() {
	var o options
	var child, setupOnly, compare bool
	var spawnedAt int64
	flag.StringVar(&o.workload, "workload", "", "run only this workload and end with one JSON result line")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "keep repeating a workload until this much verdict time is measured")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 1 runs the traced repetition and reports per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "run every workload at about 1/50 size (for tests; never for published numbers)")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for result, trace and corpus files")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.BoolVar(&child, "child", false, "internal: run one repetition and print its result")
	flag.BoolVar(&setupOnly, "setup-only", false, "internal: stop a child after set-up")
	flag.Int64Var(&spawnedAt, "spawned-at", 0, "internal: when the parent started this child (unix ns)")
	flag.Parse()

	switch {
	case compare:
		os.Exit(runCompare(flag.Args(), os.Stdout))
	case child:
		if err := childMain(o, setupOnly, spawnedAt); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
	default:
		os.Exit(parentMain(o))
	}
}

func childMain(o options, setupOnly bool, spawnedAt int64) error {
	wl := findWorkload(o.workload)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	e := &childEnv{wl: wl, seed: o.seed, sz: fullSizes, smoke: o.smoke, setupOnly: setupOnly,
		outDir: o.outDir, spawnedAt: time.Unix(0, spawnedAt), exp: exp}
	if o.smoke {
		e.sz = smokeSizes
	}
	if o.trace == 1 {
		e.tr = newTracer()
	}
	return runChild(e)
}

// spawn runs one repetition of the named workload in a fresh child
// process and returns its result with the child's peak resident set
// size.
func spawn(o options, name string, extra ...string) (*repResult, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatInt(o.seed, 10), "-out", o.outDir}
	if o.smoke {
		args = append(args, "-smoke")
	}
	args = append(args, extra...)
	args = append(args, "-spawned-at", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.Env = append(os.Environ(), childEnvVar+"=1")
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s repetition: %w", name, err)
	}
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, 0, fmt.Errorf("%s repetition printed no result: %w", name, err)
	}
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) * 1024 // Linux reports KiB
	}
	return &res, rss, nil
}

// sample is one metric of one workload over the repetitions of a run.
type sample struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func newSample(unit string, values []float64) sample {
	q1, q3 := quartiles(values)
	return sample{Unit: unit, Median: median(values), Q1: q1, Q3: q3, N: len(values), Values: values}
}

// workloadResult is everything one run learned about one workload.
type workloadResult struct {
	Reps      int                `json:"reps"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]sample  `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Detail    map[string]any     `json:"detail,omitempty"`
}

func (w *workloadResult) absorb(r *repResult) {
	w.Attempted += r.Attempted
	w.Failed += r.Failed
	for _, f := range r.Failures {
		if !slices.Contains(w.Failures, f) {
			w.Failures = append(w.Failures, f)
		}
	}
}

// measure runs the untraced repetitions of a workload: fresh children
// until o.seconds of verdict time has been measured, at least minReps,
// then set-up-only children so set-up is timed setupSamples times.
func measure(o options, wl *workload) (*workloadResult, error) {
	w := &workloadResult{}
	cols := map[string][]float64{}
	var measured float64
	for w.Reps < minReps || measured < float64(o.seconds) {
		r, rss, err := spawn(o, wl.name)
		if err != nil {
			return nil, err
		}
		if r.Units == 0 || r.VerdictS == 0 {
			return nil, fmt.Errorf("%s: repetition did no work", wl.name)
		}
		w.Reps++
		w.absorb(r)
		w.Detail = r.Detail
		measured += r.VerdictS
		u := float64(r.Units)
		for name, v := range map[string]float64{
			"setup_s": r.SetupS, "verdict_s": r.VerdictS, "verdict_cpu_s": r.VerdictCPUS,
			"units_per_s": u / r.VerdictS, "allocs_per_unit": float64(r.Mallocs) / u,
			"alloc_bytes_per_unit": float64(r.AllocBytes) / u, "peak_rss_bytes": rss,
			"op_ms_p50": r.OpMsP50, "op_ms_p95": r.OpMsP95, "op_ms_p99": r.OpMsP99,
		} {
			cols[name] = append(cols[name], v)
		}
	}
	for len(cols["setup_s"]) < setupSamples {
		r, _, err := spawn(o, wl.name, "-setup-only")
		if err != nil {
			return nil, err
		}
		cols["setup_s"] = append(cols["setup_s"], r.SetupS)
	}
	w.EndToEnd = map[string]sample{}
	for _, m := range endToEnd {
		w.EndToEnd[m.name] = newSample(m.unit, cols[m.name])
	}
	return w, nil
}

// traceRun produces the per-layer numbers of a workload: one untraced
// and one traced repetition (their ratio is the tracing overhead) and
// the corpus replay, each in its own child. The replay does not depend
// on the workload, so a run over all workloads passes the one it has
// already made; nil makes a fresh one.
func traceRun(o options, wl *workload, replay *repResult) (*workloadResult, error) {
	w := &workloadResult{PerLayer: map[string]float64{}}
	plain, _, err := spawn(o, wl.name)
	if err != nil {
		return nil, err
	}
	traced, _, err := spawn(o, wl.name, "-trace", "1")
	if err != nil {
		return nil, err
	}
	if replay == nil {
		if replay, _, err = spawn(o, layerReplay.name); err != nil {
			return nil, err
		}
	}
	w.Reps = 1
	w.absorb(plain)
	w.absorb(traced)
	w.Detail = traced.Detail
	for _, m := range perLayer {
		w.PerLayer[m.name] = 0 // a metric that does not apply here reads 0
	}
	for _, layers := range []map[string]float64{traced.Layer, replay.Layer} {
		for name, v := range layers {
			w.PerLayer[name] = v
		}
	}
	if plain.VerdictS > 0 {
		w.PerLayer["trace.overhead_share"] = traced.VerdictS/plain.VerdictS - 1
	}
	return w, nil
}

// resultFile is what a full run writes to bench/out/result.json and
// what -compare reads.
type resultFile struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
	Traced     map[string]*workloadResult `json:"traced"`
}

// provenance is what two result files must share to be comparable.
type provenance struct {
	obs.Provenance
	Seed    int64 `json:"seed"`
	Seconds int   `json:"seconds"`
	MinReps int   `json:"min_reps"`
	Smoke   bool  `json:"smoke,omitempty"`
}

func collectProvenance(o options) provenance {
	p := provenance{Provenance: obs.CollectProvenance(), Seed: o.seed, Seconds: o.seconds, MinReps: minReps, Smoke: o.smoke}
	p.GOMAXPROCS = benchProcs() // what the children run at
	if p.GitCommit == "" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			p.GitCommit = string(bytes.TrimSpace(out))
		}
	}
	return p
}

func parentMain(o options) int {
	if o.workload != "" {
		return contractRun(o)
	}
	file := resultFile{Provenance: collectProvenance(o),
		Workloads: map[string]*workloadResult{}, Traced: map[string]*workloadResult{}}
	failed := 0
	replay, _, err := spawn(o, layerReplay.name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for i := range workloads {
		wl := &workloads[i]
		w, err := measure(o, wl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		t, err := traceRun(o, wl, replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		file.Workloads[wl.name], file.Traced[wl.name] = w, t
		printEndToEnd(wl, w)
		printPerLayer(wl, t)
		failed += w.Failed + t.Failed
	}
	path := filepath.Join(o.outDir, "result.json")
	if err := writeJSON(path, file); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", path)
	if failed > 0 {
		fmt.Printf("FAILED: %d checked operations were wrong, errored or refused\n", failed)
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printFailures(w *workloadResult) {
	share := 0.0
	if w.Attempted > 0 {
		share = float64(w.Failed) / float64(w.Attempted)
	}
	fmt.Printf("  %-28s %14.6g share (%d of %d checked operations)\n", "failed_share", share, w.Failed, w.Attempted)
	for _, f := range w.Failures {
		fmt.Printf("    FAILED %s\n", f)
	}
}

func printEndToEnd(wl *workload, w *workloadResult) {
	fmt.Printf("%s (unit: %s, %d repetitions)\n", wl.name, wl.unit, w.Reps)
	for _, m := range endToEnd {
		s := w.EndToEnd[m.name]
		fmt.Printf("  %-28s %14.6g %-6s q1 %.6g q3 %.6g n %d\n", m.name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
	}
	printFailures(w)
}

func printPerLayer(wl *workload, w *workloadResult) {
	fmt.Printf("%s traced\n", wl.name)
	for _, m := range perLayer {
		fmt.Printf("  %-40s %14.6g %s\n", m.name, w.PerLayer[m.name], m.unit)
	}
	printFailures(w)
}

// contractRun measures one workload and ends with the one-line JSON
// result the benchmark contract asks for.
func contractRun(o options) int {
	wl := findWorkload(o.workload)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	var w *workloadResult
	var err error
	if o.trace == 1 {
		if w, err = traceRun(o, wl, nil); err == nil {
			printPerLayer(wl, w)
			for _, m := range perLayer {
				metrics[m.name] = value{w.PerLayer[m.name], m.unit}
			}
		}
	} else {
		if w, err = measure(o, wl); err == nil {
			printEndToEnd(wl, w)
			for _, m := range endToEnd {
				metrics[m.name] = value{w.EndToEnd[m.name].Median, m.unit}
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	kind := "end_to_end"
	if o.trace == 1 {
		kind = "per_layer"
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-%s-seed%d.json", wl.name, kind, o.seed))
	if err := writeJSON(path, struct {
		Provenance provenance      `json:"provenance"`
		Result     *workloadResult `json:"result"`
	}{collectProvenance(o), w}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(map[string]any{
		"correct": w.Failed == 0, "attempted": w.Attempted, "failed": w.Failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if w.Failed > 0 {
		return 1
	}
	return 0
}
