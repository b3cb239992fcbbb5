package mc

import (
	"math"
	"time"

	"minvn/internal/icn"
	"minvn/internal/obs"
	"minvn/internal/obs/health"
)

// expandSample is the expansion-timing sample period: 1-in-N expansions
// get their collection (expand, canonicalize and fingerprint every
// successor — exactly what a pipeline worker's expand time covers) timed
// for the worker profile, keeping the clock-read cost off the hot path.
const expandSample = 8

// books are one search's counts: dedup hits and the conflated ones among
// them, generated successors, the depth histogram, rule firings by id,
// the per-stripe occupancy and dedup histograms and the per-worker
// profiles. Every engine keeps the same books — the search core in its
// tracker, in process and in each distributed worker's Partition — and
// reports them through report, so a counter is defined once and every
// engine's snapshot carries it. A probe is either a stored state or a
// dedup hit, so States + DedupHits is the probe count and the books need
// no third counter.
//
// The books are single-threaded, written only from the store path,
// except for the worker profiles, which are internally atomic.
type books struct {
	exp        Expander // resolves rule ids, once per snapshot
	dedupHits  int64
	unverified int64 // conflated dedup hits (compact store)
	generated  int64
	depthHist  []int64
	rules      []int64 // firings by rule id, nil unless exp attributes rules
	stripes    health.ShardSampler
	workers    *health.WorkerSet
}

// newBooks opens the books of a search of exp's model with the given
// number of worker profiles.
func newBooks(exp Expander, workers int) *books {
	b := &books{exp: exp, workers: health.NewWorkerSet(workers)}
	if names := exp.RuleNames(); names != nil {
		b.rules = make([]int64, len(names))
	}
	return b
}

// probe accounts one visited-set lookup; fresh means the state was new
// and stored at the given depth. fp is the state's fingerprint,
// attributing the probe to its telemetry stripe. conflated marks a
// compact-store duplicate verdict that could not be byte-verified;
// conflation verdicts are stable over a run (see VisitedStore.lookup), so
// this count is deterministic and identical across engines.
func (b *books) probe(fp uint64, depth int32, fresh, conflated bool) {
	if !fresh {
		b.dedupHits++
		if conflated {
			b.unverified++
		}
		b.stripes.Dup(stripeOf(fp))
		return
	}
	b.stripes.Store(stripeOf(fp))
	for int(depth) >= len(b.depthHist) {
		b.depthHist = append(b.depthHist, 0)
	}
	b.depthHist[depth]++
}

// fire records a rule firing (one generated successor) by rule id.
func (b *books) fire(rule int) {
	if b.rules == nil {
		return
	}
	for rule >= len(b.rules) {
		b.rules = append(b.rules, 0) // an adapted model interns names as it goes
	}
	b.rules[rule]++
}

// addGenerated counts the n successors of one expansion that did not end
// the search.
func (b *books) addGenerated(n int) { b.generated += int64(n) }

// startExpansion starts the clock on expansion number n (counted from 0)
// when it falls in the 1-in-expandSample timing sample, and returns the
// zero time when it does not.
func (b *books) startExpansion(n int) time.Time {
	if n%expandSample != 0 {
		return time.Time{}
	}
	return time.Now()
}

// endExpansion closes startExpansion's clock: a sampled expansion is
// one batch of one state on worker profile 0.
func (b *books) endExpansion(t0 time.Time) {
	if !t0.IsZero() {
		b.workers.Worker(0).AddBatch(1, time.Since(t0), 0)
	}
}

// sendWait records time worker 0 spent blocked handing work on.
func (b *books) sendWait(d time.Duration) { b.workers.Worker(0).AddSendWait(d) }

// report derives a snapshot from the books — the one derivation every
// engine reports through. s carries what only the caller knows: its
// identity (Strategy, Store), its position (ElapsedSeconds, States,
// Frontier, MaxDepth, Expansions, Final), the heap, the occupancy
// profile and, in s.Health when non-nil, the footprint and scheduling
// fields. The books add their counters, histograms, rule firings and
// contention profile, and derive the rates.
func (b *books) report(s Snapshot) Snapshot {
	s.Generated = b.generated
	s.DedupHits = b.dedupHits
	s.DepthHistogram = append([]int64(nil), b.depthHist...)
	if b.rules != nil {
		names := b.exp.RuleNames()
		s.RuleFirings = make(map[string]int64)
		for id, n := range b.rules {
			if n != 0 {
				s.RuleFirings[names[id]] += n
			}
		}
	}
	if s.Health == nil {
		s.Health = new(health.Report)
	}
	b.stripes.Fill(s.Health)
	s.Health.Workers = b.workers.Stats()
	s.Health.UnverifiedHits = b.unverified
	s.derive()
	return s
}

// MergeSnapshots folds the latest cumulative snapshots of the workers of
// one partitioned search — each state probed and stored by exactly one
// of them — into the search's, over the merging clock's elapsed
// seconds. Counts, the frontier, the depth histogram and rule firings
// sum; the depth is the deepest; health merges by health.Report.Merge
// and the occupancy profiles by icn.OccupancyStats.Merge. Identity
// comes from the first snapshot, and the merge is Final when every
// snapshot is. The merge is a fresh aggregate and modifies no input, so
// merging the same snapshots again gives the same result. The heap is
// read now, and the rates are derived again from the sums — never
// averaged from per-worker rates, whose clocks differ. Because every
// snapshot is cumulative, merging each worker's latest one replaces
// rather than double-counts a snapshot reported twice.
func MergeSnapshots(snaps []Snapshot, elapsed float64) Snapshot {
	m := Snapshot{ElapsedSeconds: elapsed, Final: len(snaps) > 0}
	if len(snaps) > 0 {
		m.Strategy, m.Store = snaps[0].Strategy, snaps[0].Store
	}
	for i := range snaps {
		s := &snaps[i]
		m.States += s.States
		m.Frontier += s.Frontier
		m.MaxDepth = max(m.MaxDepth, s.MaxDepth)
		m.Expansions += s.Expansions
		m.Generated += s.Generated
		m.DedupHits += s.DedupHits
		for len(m.DepthHistogram) < len(s.DepthHistogram) {
			m.DepthHistogram = append(m.DepthHistogram, 0)
		}
		for d, v := range s.DepthHistogram {
			m.DepthHistogram[d] += v
		}
		if s.RuleFirings != nil && m.RuleFirings == nil {
			m.RuleFirings = make(map[string]int64, len(s.RuleFirings))
		}
		for k, v := range s.RuleFirings {
			m.RuleFirings[k] += v
		}
		if s.Health != nil {
			if m.Health == nil {
				m.Health = new(health.Report)
			}
			m.Health.Merge(s.Health)
		}
		if s.Occupancy != nil {
			if m.Occupancy == nil {
				m.Occupancy = new(icn.OccupancyStats)
			}
			m.Occupancy.Merge(s.Occupancy)
		}
		m.Final = m.Final && s.Final
	}
	m.HeapBytes = obs.HeapBytes()
	m.derive()
	return m
}

// derive finishes a snapshot's derived fields from its counts: the
// elapsed clock clamped to non-negative, the dedup hit rate over all
// probes (States + DedupHits) and the states per second. A start time
// in the future (clock step, bad injection) must not leak a negative
// duration into artifacts, and a zero or sub-resolution denominator
// must not leak NaN or ±Inf, which encoding/json rejects. It is the one
// place a snapshot's rates are computed.
func (s *Snapshot) derive() {
	if !(s.ElapsedSeconds > 0) {
		s.ElapsedSeconds = 0
	}
	if probes := int64(s.States) + s.DedupHits; probes > 0 {
		s.DedupHitRate = sanitizeRate(float64(s.DedupHits) / float64(probes))
	}
	if s.ElapsedSeconds > 0 {
		s.StatesPerSec = sanitizeRate(float64(s.States) / s.ElapsedSeconds)
	}
}

// sanitizeRate guards a derived rate against +Inf/NaN and negative
// values from clock weirdness: anything non-finite or negative reports
// as 0.
func sanitizeRate(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0
	}
	return v
}
