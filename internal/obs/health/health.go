// Package health is the model checker's contention profiler: per-stripe
// and per-worker hot-spot statistics cheap enough to collect on every
// run. Where package obs answers "how fast is the search" and package
// trace answers "what happened when", health answers "where does the
// time go" — which stripes of fingerprint space are hot, whether workers spend
// their time expanding states or waiting for work or for their peers,
// and how often the search loop waits on a batch its workers have not
// finished.
//
// Everything here is strictly passive. Collectors only count and time;
// they never touch search state, so runs with and without them are
// bit-identical (pinned by TestTraceAndObserverDoNotPerturb and the
// engine-parity suite). The per-stripe occupancy histogram is computed
// over a fixed fingerprint partition (Stripes) rather than the
// engine's physical visited-set layout, so sequential, pipelined and
// distributed runs of the same model produce the identical histogram
// — cross-engine comparability is what makes a skew reading trustable.
package health

import (
	"math"
	"sync/atomic"
	"time"
)

// Stripes is the fixed stripe count of the telemetry occupancy
// histogram: a virtual partition of fingerprint space, identical across
// engines by construction. The visited set is one table, so no stripe is
// a physical part of it. It must be a power of two: mc masks a
// fingerprint to its stripe (mc/fphash.go).
const Stripes = 64

// WorkerStats is one engine worker's contention profile. On every
// engine ExpandNS brackets the same work per state — expanding it and
// canonicalizing and fingerprinting each successor, nothing else — so
// ExpandNS / States compares across engines. The engines fill it
// differently:
//
//   - pipeline: one entry per pool worker; Batches counts work-channel
//     batches, QueueWaitNS the time blocked receiving work (a slow search
//     loop shows here: a worker never blocks handing a batch back).
//   - seq: a single entry; ExpandNS and States cover a 1-in-N sample of
//     expansions, with Batches counting the sampled ones.
//   - dist: one entry per worker, each filled like seq's, plus
//     SendWaitNS, the time the worker's expansion waited on frontier
//     delivery to its peers: blocked on a peer's full send queue, and
//     draining the queues at the end of each level (sends count no
//     batch).
type WorkerStats struct {
	Worker      int   `json:"worker"`
	Batches     int64 `json:"batches"`
	States      int64 `json:"states_expanded"`
	ExpandNS    int64 `json:"expand_ns"`
	QueueWaitNS int64 `json:"queue_wait_ns,omitempty"`
	SendWaitNS  int64 `json:"send_wait_ns,omitempty"`
}

// Report is the serializable contention profile of one search run,
// embedded in mc.Snapshot (and therefore in every run record and the
// serving layer's SSE snapshots).
type Report struct {
	// Stripes is the length of the per-stripe slices (always the
	// package constant today; carried so records self-describe).
	Stripes int `json:"stripes"`
	// StripeOccupancy[i] counts stored states whose fingerprint maps
	// to stripe i; StripeDedupHits[i] counts duplicate probes there.
	// Together they expose occupancy and dedup-rate skew.
	StripeOccupancy []int64 `json:"stripe_occupancy"`
	StripeDedupHits []int64 `json:"stripe_dedup_hits"`
	// Occupancy skew summary over StripeOccupancy: min, max, mean, and
	// the coefficient of variation (stddev/mean; 0 = perfectly even).
	OccMin  int64   `json:"occ_min"`
	OccMax  int64   `json:"occ_max"`
	OccMean float64 `json:"occ_mean"`
	OccCV   float64 `json:"occ_cv"`

	// ArenaBytes counts full canonical state bytes retained by the
	// visited set: every stored key for the exact set, only the
	// collision-verification cache for the compact one.
	ArenaBytes int64 `json:"arena_bytes,omitempty"`
	// SetBytes approximates the visited set's total footprint —
	// canonical bytes plus index structures — the number the
	// exact-vs-compact store comparison is about.
	SetBytes int64 `json:"set_bytes,omitempty"`
	// FrontierBytes is what the search holds beside the visited set:
	// the state log's chunks (stored states not yet expanded — every
	// stored state with traces on) plus the parent table and DFS stack,
	// and the raw cache of a sequential BFS (see RawHits); on a dist
	// worker, its state-log chunks and raw cache plus every frame it
	// holds — those being filled, queued or in delivery, the received
	// batches it keeps until its level settles and its free buffers —
	// each at its capacity.
	// Exact, read off the structures. (SetBytes + FrontierBytes) / states
	// is the search's resident bytes per stored state, by structure.
	FrontierBytes int64 `json:"frontier_bytes,omitempty"`
	// UnverifiedHits counts duplicate verdicts the compact store could
	// not byte-verify (hash-compaction conflations). Always 0 for the
	// exact store; deterministic and identical across engines for the
	// compact one.
	UnverifiedHits int64 `json:"unverified_hits,omitempty"`
	// RawHits counts successors settled without canonicalization: the
	// sequential BFS, or a dist worker, found each byte-equal to a state
	// it stores, still in its state log — a duplicate of it. On dist it
	// counts received states too, summed over the workers. The pipeline
	// and DFS report 0.
	RawHits int64 `json:"raw_hits,omitempty"`
	// LockWaitNS is never set: the visited set has one writer and no
	// locks. The field stays only because the benchmark harness still
	// reads it, and goes with that read.
	LockWaitNS int64 `json:"lock_wait_ns,omitempty"`

	// ReorderStalls counts the times the search loop waited on a batch
	// its workers had not finished yet (the loop's only wait state).
	// Pipeline engine only.
	ReorderStalls int64 `json:"reorder_stalls,omitempty"`
	// ReorderMax is never set: it was the depth of a reorder buffer the
	// pipeline no longer has. The field stays so that run records written
	// with it decode and re-encode unchanged.
	ReorderMax int64 `json:"reorder_max,omitempty"`

	// Workers is the per-worker breakdown (see WorkerStats).
	Workers []WorkerStats `json:"workers,omitempty"`
}

// summarizeOccupancy fills the skew summary fields from
// StripeOccupancy.
func (r *Report) summarizeOccupancy() {
	if len(r.StripeOccupancy) == 0 {
		return
	}
	r.OccMin = r.StripeOccupancy[0]
	var sum int64
	for _, v := range r.StripeOccupancy {
		if v < r.OccMin {
			r.OccMin = v
		}
		if v > r.OccMax {
			r.OccMax = v
		}
		sum += v
	}
	n := float64(len(r.StripeOccupancy))
	r.OccMean = float64(sum) / n
	if r.OccMean > 0 {
		var ss float64
		for _, v := range r.StripeOccupancy {
			d := float64(v) - r.OccMean
			ss += d * d
		}
		r.OccCV = math.Sqrt(ss/n) / r.OccMean
	}
}

// Resummarize recomputes the occupancy skew summary (OccMin, OccMax,
// OccMean, OccCV) after StripeOccupancy has been edited — for tooling
// that perturbs a finished report (vnstats inject); engines never call
// it.
func (r *Report) Resummarize() {
	r.OccMin, r.OccMax, r.OccMean, r.OccCV = 0, 0, 0, 0
	r.summarizeOccupancy()
}

// ExpandNS sums worker expansion time across the pool.
func (r *Report) ExpandNS() int64 {
	var t int64
	for _, w := range r.Workers {
		t += w.ExpandNS
	}
	return t
}

// QueueWaitNS sums worker queue-wait time across the pool.
func (r *Report) QueueWaitNS() int64 {
	var t int64
	for _, w := range r.Workers {
		t += w.QueueWaitNS
	}
	return t
}

// ShardSampler accumulates the per-stripe occupancy and dedup-hit
// histograms. It is deliberately not thread-safe: every engine calls
// it only from its single-threaded store path (the sequential loop or
// the merge goroutine), the same contract as mc.StateObserver.
type ShardSampler struct {
	occ [Stripes]int64
	dup [Stripes]int64
}

// Store records one freshly stored state in stripe i.
func (s *ShardSampler) Store(i int) { s.occ[i]++ }

// Dup records one duplicate visited-set probe in stripe i.
func (s *ShardSampler) Dup(i int) { s.dup[i]++ }

// Fill copies the histograms into r and computes the skew summary.
func (s *ShardSampler) Fill(r *Report) {
	r.Stripes = Stripes
	r.StripeOccupancy = append([]int64(nil), s.occ[:]...)
	r.StripeDedupHits = append([]int64(nil), s.dup[:]...)
	r.summarizeOccupancy()
}

// WorkerProfile is one worker's accumulator. Fields are atomic because
// the pipelined engine's search loop snapshots profiles while workers
// are still expanding speculatively.
type WorkerProfile struct {
	batches  atomic.Int64
	states   atomic.Int64
	expandNS atomic.Int64
	queueNS  atomic.Int64
	sendNS   atomic.Int64
}

// AddBatch records one unit of worker work: states expanded, time
// spent expanding, and (where observable) time blocked waiting for it.
func (w *WorkerProfile) AddBatch(states int, expand, queueWait time.Duration) {
	w.batches.Add(1)
	w.states.Add(int64(states))
	w.expandNS.Add(int64(expand))
	w.queueNS.Add(int64(queueWait))
}

// AddSendWait records time blocked handing results on (a dist worker's
// frontier sends; a pipeline worker never blocks there).
func (w *WorkerProfile) AddSendWait(d time.Duration) { w.sendNS.Add(int64(d)) }

// WorkerSet is a fixed pool of worker profiles, one per worker index.
type WorkerSet struct {
	ws []WorkerProfile
}

// NewWorkerSet allocates profiles for n workers.
func NewWorkerSet(n int) *WorkerSet {
	if n < 1 {
		n = 1
	}
	return &WorkerSet{ws: make([]WorkerProfile, n)}
}

// Worker returns the profile for worker i.
func (s *WorkerSet) Worker(i int) *WorkerProfile { return &s.ws[i] }

// Stats snapshots every worker's counters.
func (s *WorkerSet) Stats() []WorkerStats {
	if s == nil {
		return nil
	}
	out := make([]WorkerStats, len(s.ws))
	for i := range s.ws {
		w := &s.ws[i]
		out[i] = WorkerStats{
			Worker:      i,
			Batches:     w.batches.Load(),
			States:      w.states.Load(),
			ExpandNS:    w.expandNS.Load(),
			QueueWaitNS: w.queueNS.Load(),
			SendWaitNS:  w.sendNS.Load(),
		}
	}
	return out
}

// Merge folds another run's report into r, for coordinators that
// combine per-worker reports over a partitioned fingerprint space
// (internal/dist). The stripe histograms add element-wise — ownership
// partitions fingerprints, so each stored state and each duplicate
// probe is counted by exactly one worker and the merged histograms
// equal a single-process run's (the distributed parity suite pins
// this). Worker entries concatenate with renumbered indices, giving
// the merged report one lane per process; footprint and conflation
// counters sum. The skew summary is
// recomputed over the merged histogram.
func (r *Report) Merge(o *Report) {
	if o == nil {
		return
	}
	if r.Stripes == 0 {
		r.Stripes = o.Stripes
	}
	addHist := func(dst *[]int64, src []int64) {
		for len(*dst) < len(src) {
			*dst = append(*dst, 0)
		}
		for i, v := range src {
			(*dst)[i] += v
		}
	}
	addHist(&r.StripeOccupancy, o.StripeOccupancy)
	addHist(&r.StripeDedupHits, o.StripeDedupHits)
	for _, w := range o.Workers {
		w.Worker = len(r.Workers)
		r.Workers = append(r.Workers, w)
	}
	r.ArenaBytes += o.ArenaBytes
	r.SetBytes += o.SetBytes
	r.FrontierBytes += o.FrontierBytes
	r.UnverifiedHits += o.UnverifiedHits
	r.RawHits += o.RawHits
	r.ReorderStalls += o.ReorderStalls
	r.Resummarize()
}
