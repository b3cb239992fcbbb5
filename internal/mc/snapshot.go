package mc

import (
	"fmt"
	"time"

	"minvn/internal/icn"
	"minvn/internal/obs"
	"minvn/internal/obs/health"
	"minvn/internal/obs/trace"
)

// Snapshot is a point-in-time view of a running (or finished) search —
// the Go counterpart of CMurphi's periodic progress reports. It is
// fully serializable so every run can persist its final one inside
// its run record (ledger.Record).
type Snapshot struct {
	Strategy string `json:"strategy"`
	// Store names the visited-set mode the run used ("exact" or
	// "compact"); compact runs carry an omission probability (see
	// StoreCompact) that consumers of "complete" outcomes should know.
	Store          string  `json:"store"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// States is the number of distinct states stored; Frontier the
	// current work-list size: stored states not yet expanded (the DFS
	// stack under DFS).
	States   int `json:"states"`
	Frontier int `json:"frontier"`
	MaxDepth int `json:"max_depth"`
	// Expansions counts Successors calls; Generated the successor
	// states they produced; DedupHits the generated (or initial)
	// states that were already in the visited set. DedupHitRate is
	// DedupHits over all visited-set probes.
	Expansions   int64   `json:"expansions"`
	Generated    int64   `json:"successors_generated"`
	DedupHits    int64   `json:"dedup_hits"`
	DedupHitRate float64 `json:"dedup_hit_rate"`
	StatesPerSec float64 `json:"states_per_sec"`
	// DepthHistogram[d] is the number of stored states at depth d.
	DepthHistogram []int64 `json:"depth_histogram"`
	// RuleFirings attributes generated successors to the guarded rule
	// that produced them, when the model names its rules (see
	// Expander.RuleNames).
	RuleFirings map[string]int64 `json:"rule_firings,omitempty"`
	// HeapBytes is the whole process's heap in use at snapshot time
	// (runtime HeapAlloc): garbage not yet swept is in it, and so is every
	// other search running in the process (under vnserved, each concurrent
	// job reports the sum of all of them). What this search holds is
	// Health.SetBytes + Health.FrontierBytes.
	HeapBytes uint64 `json:"heap_bytes"`
	// Occupancy is the per-VN queue-depth profile of the stored states
	// (histograms and high-water marks), when Options.Observer is an
	// occupancy profiler (machine.OccupancyProfiler) or, on the
	// distributed engine, when each worker runs one.
	Occupancy *icn.OccupancyStats `json:"occupancy,omitempty"`
	// Health is the run's contention profile: per-stripe visited-set
	// occupancy and dedup-hit histograms (identical across engines by
	// construction), per-worker expand/queue-wait/send-wait times,
	// visited-set and frontier footprint, and — for the pipelined
	// engine — the loop's waits on its workers' batches.
	Health *health.Report `json:"health,omitempty"`
	// Final marks the end-of-run snapshot stored in Result.Stats.
	Final bool `json:"final"`
}

// String renders a one-line progress report.
func (s Snapshot) String() string {
	return fmt.Sprintf("[%8.2fs] %s: %d states (%.0f/s), frontier %d, depth %d, %d expansions, dedup %.1f%%, heap %s",
		s.ElapsedSeconds, s.Strategy, s.States, s.StatesPerSec, s.Frontier,
		s.MaxDepth, s.Expansions, 100*s.DedupHitRate, obs.FormatBytes(s.HeapBytes))
}

// profiler is an Options.Observer that profiles queue occupancy
// (machine.OccupancyProfiler): every snapshot carries its aggregate.
type profiler interface {
	Stats() *icn.OccupancyStats
}

// tracker is the search core's telemetry (search.go): the search's
// books, plus progress scheduling and the pipelined engine's
// wait counts. Everything except the worker profiles is only updated
// (and read) from the single store thread, so the counters are plain
// ints.
type tracker struct {
	books
	opts       Options
	start      time.Time
	nextStates int
	nextTime   time.Time
	// lane, when tracing, receives progress instants from the search
	// goroutine; the search sets it to its main lane.
	lane *trace.Lane

	reorderStalls int64
	// setHealth contributes the visited set's and the state log's
	// footprint to each report.
	setHealth func(*health.Report)
}

func newTracker(opts Options, start time.Time, exp Expander, workers int) *tracker {
	t := &tracker{books: *newBooks(exp, workers), opts: opts, start: start}
	if opts.Progress != nil {
		if opts.ProgressEvery > 0 {
			t.nextStates = opts.ProgressEvery
		}
		if opts.ProgressInterval > 0 {
			t.nextTime = start.Add(opts.ProgressInterval)
		}
	}
	return t
}

// maybeProgress emits a snapshot when a count or wall-clock threshold
// has been crossed. Called from the single-threaded search loop.
func (t *tracker) maybeProgress(states, frontier, maxDepth, expansions int) {
	if t.opts.Progress == nil {
		return
	}
	fire := false
	if t.opts.ProgressEvery > 0 && states >= t.nextStates {
		fire = true
		t.nextStates = states - states%t.opts.ProgressEvery + t.opts.ProgressEvery
	}
	if t.opts.ProgressInterval > 0 {
		if now := time.Now(); !now.Before(t.nextTime) {
			fire = true
			t.nextTime = now.Add(t.opts.ProgressInterval)
		}
	}
	if fire {
		t.lane.InstantArg("progress", "states", int64(states))
		s := t.snapshot(states, frontier, maxDepth, expansions, false)
		s.HeapBytes = obs.HeapBytes()
		t.opts.Progress(s)
	}
}

// snapshot is the search's account so far, but for the heap: reading it
// stops the world, so the callers that report it read it (a Partition's
// snapshot leaves it to the merge, which reads its own).
func (t *tracker) snapshot(states, frontier, maxDepth, expansions int, final bool) Snapshot {
	s := Snapshot{
		Strategy:       t.opts.Strategy.String(),
		Store:          t.opts.Store.String(),
		ElapsedSeconds: time.Since(t.start).Seconds(),
		States:         states,
		Frontier:       frontier,
		MaxDepth:       maxDepth,
		Expansions:     int64(expansions),
		Health:         &health.Report{ReorderStalls: t.reorderStalls},
		Final:          final,
	}
	if t.setHealth != nil {
		t.setHealth(s.Health)
	}
	if p, ok := t.opts.Observer.(profiler); ok {
		s.Occupancy = p.Stats()
	}
	return t.books.report(s)
}

// finish builds the final snapshot and delivers it to the Progress
// callback (Final = true) so observers always see the closing metrics.
func (t *tracker) finish(states, maxDepth, expansions int) Snapshot {
	s := t.snapshot(states, 0, maxDepth, expansions, true)
	s.HeapBytes = obs.HeapBytes()
	if t.opts.Progress != nil {
		t.opts.Progress(s)
	}
	return s
}
