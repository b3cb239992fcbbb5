package mc_test

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"minvn/internal/icn"
	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/obs/health"
	"minvn/internal/protocols"
)

func finite(t *testing.T, name string, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		t.Fatalf("%s = %v, want finite non-negative", name, v)
	}
}

// TestMergeSnapshotsDegenerate is the zero-worker / one-worker regression
// for the merged-snapshot guard: merging no snapshots, or one at zero
// elapsed time, must produce finite rates (no NaN/Inf from 0/0 or n/0)
// and a snapshot encoding/json accepts.
func TestMergeSnapshotsDegenerate(t *testing.T) {
	t.Run("zero-workers", func(t *testing.T) {
		s := mc.MergeSnapshots(nil, 0)
		finite(t, "StatesPerSec", s.StatesPerSec)
		finite(t, "DedupHitRate", s.DedupHitRate)
		if s.States != 0 || s.Expansions != 0 || s.Health != nil || s.Occupancy != nil {
			t.Fatalf("zero-worker merge not empty: %+v", s)
		}
		if _, err := json.Marshal(s); err != nil {
			t.Fatalf("marshal: %v", err)
		}
	})

	t.Run("one-worker-zero-elapsed", func(t *testing.T) {
		w := mc.Snapshot{
			States: 10, Expansions: 9, Generated: 30, DedupHits: 21,
			MaxDepth: 3, DepthHistogram: []int64{1, 2, 3, 4},
			RuleFirings: map[string]int64{"r": 30},
			Health:      &health.Report{Stripes: health.Stripes},
		}
		s := mc.MergeSnapshots([]mc.Snapshot{w}, 0)
		finite(t, "StatesPerSec", s.StatesPerSec)
		finite(t, "DedupHitRate", s.DedupHitRate)
		if s.StatesPerSec != 0 {
			t.Fatalf("zero elapsed must give 0 rate, got %v", s.StatesPerSec)
		}
		if s.States != 10 || s.DedupHits != 21 || s.RuleFirings["r"] != 30 {
			t.Fatalf("one-worker merge lost counters: %+v", s)
		}
		if want := 21.0 / 31.0; s.DedupHitRate != want {
			t.Fatalf("DedupHitRate = %v, want %v (hits over states + hits)", s.DedupHitRate, want)
		}
		if _, err := json.Marshal(s); err != nil {
			t.Fatalf("marshal: %v", err)
		}
	})

	t.Run("negative-elapsed", func(t *testing.T) {
		s := mc.MergeSnapshots([]mc.Snapshot{{States: 5}}, -1)
		if s.ElapsedSeconds != 0 || s.StatesPerSec != 0 {
			t.Fatalf("negative elapsed leaked: %+v", s)
		}
	})
}

// occ is a one-VN occupancy profile of n states with the given
// global-buffer depth histogram.
func occ(n int64, global ...int64) *icn.OccupancyStats {
	hw := len(global) - 1
	return &icn.OccupancyStats{
		StatesObserved: n, GlobalCap: 2, LocalCap: 2,
		PerVN: []icn.VNOccupancy{{
			VN: 0, Messages: []string{"GetS"},
			GlobalHist: global, LocalHist: []int64{n}, GlobalHighWater: hw,
		}},
		GlobalHighWater: hw,
	}
}

// TestMergeSnapshotsSums pins the multi-worker semantics: counters,
// frontiers and histograms sum, depths max, rates are recomputed from
// the sums over the merging clock (never averaged per-worker rates),
// worker health lanes concatenate with renumbered indices, and
// occupancy profiles fold by icn.OccupancyStats.Merge.
func TestMergeSnapshotsSums(t *testing.T) {
	h := func(occ ...int64) *health.Report {
		r := &health.Report{Stripes: health.Stripes}
		r.StripeOccupancy = make([]int64, health.Stripes)
		copy(r.StripeOccupancy, occ)
		r.StripeDedupHits = make([]int64, health.Stripes)
		r.Workers = []health.WorkerStats{{Worker: 0, Batches: 1}}
		return r
	}
	a := mc.Snapshot{
		Store: "compact", States: 4, Frontier: 3, Expansions: 3, Generated: 8, DedupHits: 4,
		MaxDepth: 2, DepthHistogram: []int64{1, 2, 1}, RuleFirings: map[string]int64{"x": 5, "y": 3},
		Health: h(3, 1), Occupancy: occ(2, 3, 1), Final: true,
	}
	b := mc.Snapshot{
		Store: "compact", States: 6, Frontier: 4, Expansions: 5, Generated: 12, DedupHits: 6,
		MaxDepth: 3, DepthHistogram: []int64{0, 2, 2, 2}, RuleFirings: map[string]int64{"x": 7},
		Health: h(2, 4), Occupancy: occ(3, 4, 1, 1), Final: true,
	}
	s := mc.MergeSnapshots([]mc.Snapshot{a, b}, 2.0)
	if s.States != 10 || s.Expansions != 8 || s.Generated != 20 || s.DedupHits != 10 {
		t.Fatalf("sums wrong: %+v", s)
	}
	if s.MaxDepth != 3 || s.Frontier != 7 || s.Store != "compact" || !s.Final {
		t.Fatalf("metadata wrong: %+v", s)
	}
	for i, want := range []int64{1, 4, 3, 2} {
		if s.DepthHistogram[i] != want {
			t.Fatalf("depth hist[%d] = %d, want %d", i, s.DepthHistogram[i], want)
		}
	}
	if s.RuleFirings["x"] != 12 || s.RuleFirings["y"] != 3 {
		t.Fatalf("rule firings wrong: %v", s.RuleFirings)
	}
	if s.StatesPerSec != 5.0 {
		t.Fatalf("StatesPerSec = %v, want 5 (10 states / 2s)", s.StatesPerSec)
	}
	if s.DedupHitRate != 0.5 {
		t.Fatalf("DedupHitRate = %v, want 0.5", s.DedupHitRate)
	}
	if s.Health == nil || s.Health.StripeOccupancy[0] != 5 || s.Health.StripeOccupancy[1] != 5 {
		t.Fatalf("stripe merge wrong: %+v", s.Health)
	}
	if len(s.Health.Workers) != 2 || s.Health.Workers[1].Worker != 1 {
		t.Fatalf("worker lanes not renumbered: %+v", s.Health.Workers)
	}
	if want := occ(5, 7, 2, 1); !s.Occupancy.Equal(want) {
		t.Fatalf("occupancy = %+v, want %+v", s.Occupancy, want)
	}
}

// TestMergeSnapshotsFresh pins that a merge builds a fresh aggregate
// and modifies no input: the coordinator merges its latest worker
// snapshots again at every level, so merging the same snapshots twice
// gives equal profiles, and the inputs' profiles stay as they were.
func TestMergeSnapshotsFresh(t *testing.T) {
	p := protocols.MustLoad("MSI_nonblocking_cache")
	vn, n := machine.PerMessageVN(p)
	sys, err := machine.New(machine.Config{Protocol: p, Caches: 2, Dirs: 1, Addrs: 1, VN: vn, NumVNs: n})
	if err != nil {
		t.Fatal(err)
	}
	var snaps []mc.Snapshot
	var before []*icn.OccupancyStats
	for _, depth := range []int{4, 6} {
		res := mc.Check(sys, mc.Options{MaxDepth: depth, Observer: sys.NewOccupancyProfiler()})
		clone := new(icn.OccupancyStats)
		clone.Merge(res.Stats.Occupancy)
		snaps, before = append(snaps, res.Stats), append(before, clone)
	}
	for _, in := range [][]mc.Snapshot{snaps[:1], snaps} {
		first, second := mc.MergeSnapshots(in, 1), mc.MergeSnapshots(in, 1)
		if !first.Occupancy.Equal(second.Occupancy) {
			t.Fatalf("%d snapshots: merging twice differs:\n%+v\n%+v", len(in), first.Occupancy, second.Occupancy)
		}
		for i, s := range in {
			if s.Occupancy == first.Occupancy {
				t.Fatalf("%d snapshots: the merge aliases input %d's profile", len(in), i)
			}
			if !s.Occupancy.Equal(before[i]) {
				t.Fatalf("%d snapshots: merging modified input %d's profile:\n%+v\nwas %+v", len(in), i, s.Occupancy, before[i])
			}
		}
	}
}

// TestMergeSnapshotsOfOne pins that a snapshot has one derivation:
// merging a sequential run's final snapshot alone, over its own elapsed
// time, returns that snapshot — counters, histograms, rule firings,
// health, occupancy and the derived rates alike. Only the heap, which
// the merge reads afresh, may differ.
func TestMergeSnapshotsOfOne(t *testing.T) {
	p := protocols.MustLoad("MSI_nonblocking_cache")
	vn, n := machine.PerMessageVN(p)
	sys, err := machine.New(machine.Config{Protocol: p, Caches: 2, Dirs: 1, Addrs: 1, VN: vn, NumVNs: n})
	if err != nil {
		t.Fatal(err)
	}
	res := mc.Check(sys, mc.Options{MaxDepth: 6, Store: mc.StoreCompact, Observer: sys.NewOccupancyProfiler()})
	want := res.Stats
	if want.Occupancy == nil || want.RuleFirings == nil || want.DedupHits == 0 || want.StatesPerSec == 0 {
		t.Fatalf("run too thin to pin the merge: %+v", want)
	}
	got := mc.MergeSnapshots([]mc.Snapshot{want}, want.ElapsedSeconds)
	got.HeapBytes = want.HeapBytes
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge of one snapshot differs:\n got %+v\nwant %+v", got, want)
	}
}
