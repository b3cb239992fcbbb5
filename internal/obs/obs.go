// Package obs is the repository's zero-dependency telemetry layer:
// atomic counters and gauges, wall-clock stage timers, and a
// serializable Snapshot.
//
// The package exists so that long explicit-state model-checking runs
// (paper §VII: millions of states) and the static analysis pipeline
// are observable while they run. What a run leaves behind is one
// document, ledger.Record (obs/ledger): this package supplies its
// provenance (CollectProvenance) and its stage columns
// (Timeline.Summaries). Everything here is standard library only; the
// hot-path primitives (Counter, Gauge) are single atomic words so they
// are safe to hammer from the parallel searcher's workers.
package obs

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be non-negative for the value to stay monotone).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomically updated instantaneous value (frontier size,
// heap bytes, ...).
type Gauge struct{ v atomic.Int64 }

// Set stores x.
func (g *Gauge) Set(x int64) { g.v.Store(x) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Stage is one completed timed phase of a pipeline.
type Stage struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Timeline records named stage durations in completion order. A nil
// *Timeline is valid and records nothing, so instrumented code can
// accept an optional timeline without branching:
//
//	defer tl.Start("fas")()
type Timeline struct {
	mu     sync.Mutex
	stages []Stage
}

// Start begins timing a stage and returns the function that ends it.
func (t *Timeline) Start(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		t.mu.Lock()
		t.stages = append(t.stages, Stage{Name: name, Seconds: d.Seconds()})
		t.mu.Unlock()
	}
}

// Time runs fn as the named stage.
func (t *Timeline) Time(name string, fn func()) {
	stop := t.Start(name)
	fn()
	stop()
}

// Stages returns a copy of the completed stages.
func (t *Timeline) Stages() []Stage {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Stage(nil), t.stages...)
}

// StageSummary aggregates every completion of one named stage: how
// many times it ran, the total seconds across runs, and the slowest
// single run. A stage that runs once has Count 1 and Max == Seconds.
type StageSummary struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
	Max     float64 `json:"max_seconds"`
}

// stageSums accumulates stage runs by name.
type stageSums map[string]*StageSummary

// add folds one completed run of the named stage into its summary.
func (m stageSums) add(name string, seconds float64) {
	s, ok := m[name]
	if !ok {
		s = &StageSummary{Name: name}
		m[name] = s
	}
	s.Count++
	s.Seconds += seconds
	if seconds > s.Max {
		s.Max = seconds
	}
}

// sorted renders the summaries in stage-name order.
func (m stageSums) sorted() []StageSummary {
	if len(m) == 0 {
		return nil
	}
	out := make([]StageSummary, 0, len(m))
	for _, name := range SortedNames(m) {
		out = append(out, *m[name])
	}
	return out
}

// Summaries aggregates the completed stages by name, sorted by name
// for deterministic rendering: a run record's stage columns.
func (t *Timeline) Summaries() []StageSummary {
	sums := stageSums{}
	for _, s := range t.Stages() {
		sums.add(s.Name, s.Seconds)
	}
	return sums.sorted()
}

// Snapshot is a serializable point-in-time view of a metric set.
type Snapshot struct {
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
	// StageSummaries is the per-name aggregation of every stage run
	// timed through the registry (count, total, max), sorted by name.
	StageSummaries []StageSummary `json:"stage_summaries,omitempty"`
}

// Registry is a named collection of counters, gauges and stage timers,
// snapshotted together. Counter and Gauge handles are created on first
// use and stable thereafter, so hot paths can resolve them once and
// update lock-free. Stage timers keep per-name running summaries only:
// a server times a stage per job, and a snapshot must not cost O(jobs).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	stages   stageSums
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		stages:   stageSums{},
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// StartStage begins timing one run of the named stage and returns the
// function that ends it, folding the run into the stage's summary.
func (r *Registry) StartStage(name string) func() {
	start := time.Now()
	return func() {
		seconds := time.Since(start).Seconds()
		r.mu.Lock()
		r.stages.add(name, seconds)
		r.mu.Unlock()
	}
}

// Snapshot captures every counter, gauge, and stage summary.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:       make(map[string]int64, len(r.counters)),
		Gauges:         make(map[string]int64, len(r.gauges)),
		StageSummaries: r.stages.sorted(),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	return s
}

// HeapBytes reports the process's heap in use (runtime HeapAlloc): every
// search in the process, and garbage not yet swept. It is not one
// search's footprint. It calls runtime.ReadMemStats, which
// briefly stops the world, so call it at snapshot granularity, not per
// state.
func HeapBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// FormatBytes renders a byte count for humans (1.5 GiB, 23.4 MiB...).
func FormatBytes(n uint64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := uint64(unit), 0
	for v := n / unit; v >= unit; v /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// SortedNames returns the keys of a metric map in stable order, for
// deterministic rendering.
func SortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
