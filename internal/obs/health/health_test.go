package health

import (
	"testing"
	"time"
)

func TestShardSamplerHistogramsAndSkew(t *testing.T) {
	var s ShardSampler
	// Three stored states, two of them in the same stripe.
	const a, c = 5, 9
	s.Store(a)
	s.Store(a)
	s.Store(c)
	s.Dup(c)

	var r Report
	s.Fill(&r)
	if r.Stripes != Stripes || len(r.StripeOccupancy) != Stripes {
		t.Fatalf("stripes = %d, len = %d", r.Stripes, len(r.StripeOccupancy))
	}
	if got := r.StripeOccupancy[a]; got != 2 {
		t.Fatalf("stripe %d holds %d, want 2", a, got)
	}
	if got := r.StripeDedupHits[c]; got != 1 {
		t.Fatalf("dedup stripe %d holds %d, want 1", c, got)
	}
	if r.OccMin != 0 || r.OccMax != 2 {
		t.Fatalf("occ min/max = %d/%d, want 0/2", r.OccMin, r.OccMax)
	}
	if r.OccMean <= 0 || r.OccCV <= 0 {
		t.Fatalf("skew summary not computed: mean=%g cv=%g", r.OccMean, r.OccCV)
	}
}

func TestWorkerSetStats(t *testing.T) {
	ws := NewWorkerSet(3)
	ws.Worker(0).AddBatch(16, 5*time.Millisecond, time.Millisecond)
	ws.Worker(0).AddBatch(8, 3*time.Millisecond, 0)
	ws.Worker(0).AddSendWait(time.Millisecond)
	ws.Worker(2).AddBatch(4, time.Millisecond, 0)

	st := ws.Stats()
	if len(st) != 3 {
		t.Fatalf("got %d workers, want 3", len(st))
	}
	if st[0].Batches != 2 || st[0].States != 24 {
		t.Fatalf("worker 0 = %+v", st[0])
	}
	if st[0].ExpandNS != int64(8*time.Millisecond) {
		t.Fatalf("worker 0 expand = %d", st[0].ExpandNS)
	}
	if st[0].QueueWaitNS != int64(time.Millisecond) || st[0].SendWaitNS != int64(time.Millisecond) {
		t.Fatalf("worker 0 waits = %+v", st[0])
	}
	if st[1].Batches != 0 {
		t.Fatalf("idle worker 1 = %+v", st[1])
	}
	if st[2].States != 4 {
		t.Fatalf("worker 2 = %+v", st[2])
	}
	var nilSet *WorkerSet
	if nilSet.Stats() != nil {
		t.Fatal("nil WorkerSet must report no stats")
	}
}

func TestReportAggregates(t *testing.T) {
	r := Report{Workers: []WorkerStats{
		{ExpandNS: 10, QueueWaitNS: 3},
		{ExpandNS: 20, QueueWaitNS: 4},
	}}
	if r.ExpandNS() != 30 || r.QueueWaitNS() != 7 {
		t.Fatalf("aggregates: expand=%d queue=%d", r.ExpandNS(), r.QueueWaitNS())
	}
}

// TestResummarize: perturbing a finished report's stripes and calling
// Resummarize recomputes the occupancy aggregates exactly as the
// engine-side summarization would have.
func TestResummarize(t *testing.T) {
	var s ShardSampler
	for i := 0; i < 1000; i++ {
		s.Store(i * i % Stripes)
	}
	var want Report
	s.Fill(&want)

	got := want // copy, then wreck the aggregates
	got.OccMin, got.OccMax, got.OccMean, got.OccCV = -1, -1, -1, -1
	got.Resummarize()
	if got.OccMin != want.OccMin || got.OccMax != want.OccMax ||
		got.OccMean != want.OccMean || got.OccCV != want.OccCV {
		t.Fatalf("Resummarize drifted from Fill: got min=%d max=%d mean=%g cv=%g, want min=%d max=%d mean=%g cv=%g",
			got.OccMin, got.OccMax, got.OccMean, got.OccCV,
			want.OccMin, want.OccMax, want.OccMean, want.OccCV)
	}
}

// TestMergeSumsFootprint: the three footprint fields add across the
// reports of a partitioned run, so a merged record still answers "bytes
// per stored state, by structure".
func TestMergeSumsFootprint(t *testing.T) {
	r := Report{ArenaBytes: 10, SetBytes: 30, FrontierBytes: 7}
	r.Merge(&Report{ArenaBytes: 1, SetBytes: 2, FrontierBytes: 3})
	if r.ArenaBytes != 11 || r.SetBytes != 32 || r.FrontierBytes != 10 {
		t.Fatalf("merged footprint = arena %d, set %d, frontier %d", r.ArenaBytes, r.SetBytes, r.FrontierBytes)
	}
}
