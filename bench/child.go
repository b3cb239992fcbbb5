package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"minvn/internal/obs/trace"
)

// childEnv is what one repetition sees. Every repetition runs in a
// fresh child process of the bench binary, so heap, caches and peak
// RSS start clean each time.
type childEnv struct {
	wl        *workload
	seed      int64
	sz        sizes
	smoke     bool
	setupOnly bool
	outDir    string
	spawnedAt time.Time
	exp       *expected
	tr        *tracer // nil unless this is the traced repetition

	res   *repResult
	setup trace.Span
	m     meter
}

// repResult is what a child reports to its parent: one JSON line on
// standard output.
type repResult struct {
	Workload    string  `json:"workload"`
	SetupS      float64 `json:"setup_s"`
	VerdictS    float64 `json:"verdict_s"`
	VerdictCPUS float64 `json:"verdict_cpu_s"`
	// Units is the work done in the verdict interval: stored states,
	// protocols minimised or requests completed.
	Units      int64   `json:"units"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	OpCount    int     `json:"op_count"`
	OpMsP50    float64 `json:"op_ms_p50"`
	OpMsP95    float64 `json:"op_ms_p95"`
	OpMsP99    float64 `json:"op_ms_p99"`
	// Attempted counts checked operations; Failed those that were
	// wrong, errored or refused.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Layer holds per-layer metrics (traced repetition only).
	Layer map[string]float64 `json:"layer,omitempty"`
	// Detail is workload-specific evidence kept in the result file.
	Detail map[string]any `json:"detail,omitempty"`
}

// meter brackets the verdict interval: wall clock, this process's CPU
// time and the allocator's counters.
type meter struct {
	t0      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{t0: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

func (m meter) stop(r *repResult) {
	wall := time.Since(m.t0)
	cpu := cpuTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.VerdictS = wall.Seconds()
	r.VerdictCPUS = cpu.Seconds()
	r.Mallocs = ms.Mallocs - m.mallocs
	r.AllocBytes = ms.TotalAlloc - m.bytes
}

// errSetupOnly unwinds a set-up-only child once set-up is done.
var errSetupOnly = fmt.Errorf("set-up only")

// begin ends set-up and opens the verdict interval. Everything a
// workload does before calling it is set-up time: measured from the
// moment the parent spawned this process, so it includes process start
// and runtime initialisation.
func (e *childEnv) begin() error {
	e.res.SetupS = time.Since(e.spawnedAt).Seconds()
	e.setup.End()
	if e.setupOnly {
		return errSetupOnly
	}
	runtime.GC() // every repetition starts from a collected heap
	e.m = startMeter()
	return nil
}

// end closes the verdict interval with the op latencies it produced.
func (e *childEnv) end(units int64, opMs []float64) {
	e.m.stop(e.res)
	e.res.Units = units
	sort.Float64s(opMs)
	e.res.OpCount = len(opMs)
	e.res.OpMsP50 = percentile(opMs, 50)
	e.res.OpMsP95 = percentile(opMs, 95)
	e.res.OpMsP99 = percentile(opMs, 99)
}

// check counts one checked operation; a non-empty problem fails it.
func (e *childEnv) check(problem string) {
	e.res.Attempted++
	if problem == "" {
		return
	}
	e.res.Failed++
	if len(e.res.Failures) < 20 {
		e.res.Failures = append(e.res.Failures, problem)
	}
}

func (e *childEnv) layer(name string, v float64) {
	if e.res.Layer == nil {
		e.res.Layer = map[string]float64{}
	}
	e.res.Layer[name] = v
}

// runChild executes one repetition and prints its result.
func runChild(e *childEnv) error {
	runtime.GOMAXPROCS(benchProcs())
	e.res = &repResult{Workload: e.wl.name, Detail: map[string]any{}}
	rep := e.tr.span("rep")
	e.setup = e.tr.span("setup")
	err := e.wl.run(e)
	if err == errSetupOnly {
		err = nil
	}
	if err != nil {
		return err
	}
	rep.End()
	if e.tr != nil {
		if err := os.MkdirAll(e.outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(e.outDir, "trace-"+e.wl.name+".json")
		if err := e.tr.write(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		e.res.Detail["trace_file"] = path
	}
	return json.NewEncoder(os.Stdout).Encode(e.res)
}

// benchProcs pins the load shape: min(nproc, 2).
func benchProcs() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}
