package mc

import (
	"fmt"
	"math"
	"time"

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
	// that produced them, when the model implements NamedModel.
	RuleFirings map[string]int64 `json:"rule_firings,omitempty"`
	// HeapBytes is the whole process's heap in use at snapshot time
	// (runtime HeapAlloc): garbage not yet swept is in it, and so is every
	// other search running in the process (under vnserved, each concurrent
	// job reports the sum of all of them). What this search holds is
	// Health.SetBytes + Health.FrontierBytes.
	HeapBytes uint64 `json:"heap_bytes"`
	// Occupancy is the state observer's summary at snapshot time, when
	// Options.Observer implements SummarizingObserver — for the ICN
	// occupancy profiler, an *icn.OccupancyStats with per-VN queue
	// depth histograms and high-water marks.
	Occupancy any `json:"occupancy,omitempty"`
	// Health is the run's contention profile: per-stripe visited-set
	// occupancy and dedup-hit histograms (identical across engines by
	// construction), per-worker expand/queue-wait/send-wait times,
	// visited-set and frontier footprint and shard lock-wait, and — for
	// the pipelined engine — reorder-buffer stalls.
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

// tracker accumulates search telemetry for the shared search core
// (search.go). Everything except the worker profiles — counters, depth
// histogram, rule firings, progress scheduling — is only updated (and
// read) from the single store thread, so the counters are plain ints.
type tracker struct {
	opts      Options
	strategy  Strategy
	start     time.Time
	probes    int64 // visited-set probes (push attempts)
	dedupHits int64
	generated int64
	depthHist []int64
	// rules counts firings by rule id, nil unless the model attributes
	// rules; exp.RuleNames resolves the ids, once per snapshot.
	rules      []int64
	exp        Expander
	nextStates int
	nextTime   time.Time
	// lane, when tracing, receives progress instants from the search
	// goroutine; the engines set it to their main/merge lane.
	lane *trace.Lane

	// Contention profile. shardSamp and the reorder fields follow the
	// single-threaded store/merge-path contract above; workers is
	// internally atomic (the pool writes it while snapshots read).
	shardSamp     health.ShardSampler
	workers       *health.WorkerSet
	unverified    int64 // conflated dedup hits (compact store)
	reorderStalls int64
	reorderMax    int64
	// setHealth contributes the visited set's fields (footprint, lock
	// wait) to each report.
	setHealth func(*health.Report)
}

func newTracker(opts Options, start time.Time, exp Expander) *tracker {
	t := &tracker{opts: opts, strategy: opts.Strategy, start: start, exp: exp}
	if names := exp.RuleNames(); names != nil {
		t.rules = make([]int64, len(names))
	}
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

// recordProbe accounts one visited-set lookup; fresh means the state
// was new and stored at the given depth. fp is the state's fingerprint,
// attributing the probe to its telemetry stripe. conflated marks a
// compact-store duplicate verdict that could not be byte-verified;
// conflation verdicts are stable over a run (see compactShard.lookup),
// so this count is deterministic and identical across engines.
func (t *tracker) recordProbe(fp uint64, depth int32, fresh, conflated bool) {
	t.probes++
	if !fresh {
		t.dedupHits++
		if conflated {
			t.unverified++
		}
		t.shardSamp.Dup(fp)
		return
	}
	t.shardSamp.Store(fp)
	for int(depth) >= len(t.depthHist) {
		t.depthHist = append(t.depthHist, 0)
	}
	t.depthHist[depth]++
}

// health assembles the contention report for a snapshot. Called from
// the single-threaded snapshot path.
func (t *tracker) health() *health.Report {
	r := new(health.Report)
	t.shardSamp.Fill(r)
	r.Workers = t.workers.Stats()
	r.UnverifiedHits = t.unverified
	r.ReorderStalls = t.reorderStalls
	r.ReorderMax = t.reorderMax
	if t.setHealth != nil {
		t.setHealth(r)
	}
	return r
}

// fire records a rule firing (one generated successor) by rule id.
func (t *tracker) fire(rule int32) {
	if t.rules == nil {
		return
	}
	for int(rule) >= len(t.rules) {
		t.rules = append(t.rules, 0) // an adapted model interns names as it goes
	}
	t.rules[rule]++
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
		t.opts.Progress(t.snapshot(states, frontier, maxDepth, expansions, false))
	}
}

// SanitizeRate guards a derived rate against +Inf/NaN (which
// encoding/json rejects, breaking -stats-json artifacts) and negative
// values from clock weirdness: anything non-finite or negative reports
// as 0. Exported for out-of-package snapshot producers — the
// distributed coordinator (internal/dist) recomputes merged rates from
// summed counters over its own elapsed clock and must apply the same
// guard, or a zero-elapsed merge of worker snapshots would ship +Inf.
func SanitizeRate(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0
	}
	return v
}

func (t *tracker) snapshot(states, frontier, maxDepth, expansions int, final bool) Snapshot {
	elapsed := time.Since(t.start).Seconds()
	if elapsed < 0 || math.IsNaN(elapsed) {
		// A start time in the future (clock step, bad injection) must
		// not leak a negative duration into artifacts.
		elapsed = 0
	}
	s := Snapshot{
		Strategy:       t.strategy.String(),
		Store:          t.opts.Store.String(),
		ElapsedSeconds: elapsed,
		States:         states,
		Frontier:       frontier,
		MaxDepth:       maxDepth,
		Expansions:     int64(expansions),
		Generated:      t.generated,
		DedupHits:      t.dedupHits,
		DepthHistogram: append([]int64(nil), t.depthHist...),
		HeapBytes:      obs.HeapBytes(),
		Final:          final,
	}
	// Both rates are division results on counters an engine bug (or a
	// sub-resolution elapsed time) could zero out; sanitize so a tiny
	// run can never emit +Inf/NaN and break JSON encoding.
	if t.probes > 0 {
		s.DedupHitRate = SanitizeRate(float64(s.DedupHits) / float64(t.probes))
	}
	if elapsed > 0 {
		s.StatesPerSec = SanitizeRate(float64(states) / elapsed)
	}
	if t.rules != nil {
		names := t.exp.RuleNames()
		s.RuleFirings = make(map[string]int64)
		for id, n := range t.rules {
			if n != 0 {
				s.RuleFirings[names[id]] += n
			}
		}
	}
	if so, ok := t.opts.Observer.(SummarizingObserver); ok {
		s.Occupancy = so.Summary()
	}
	s.Health = t.health()
	return s
}

// finish builds the final snapshot and delivers it to the Progress
// callback (Final = true) so observers always see the closing metrics.
func (t *tracker) finish(states, maxDepth, expansions int) Snapshot {
	s := t.snapshot(states, 0, maxDepth, expansions, true)
	if t.opts.Progress != nil {
		t.opts.Progress(s)
	}
	return s
}
