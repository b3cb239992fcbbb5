package dist_test

// Distributed parity suite: the dist engine must agree with the
// pipelined engine — itself pinned to the sequential reference — on
// outcome, stored-state count, max depth, expansion (Rules) count,
// generated/dedup counters, depth histogram, per-rule firings, stripe
// histograms, and per-VN occupancy aggregates, for every built-in
// protocol, both visited-set stores, and 1, 2, and 4 workers, each on
// both transports: in process and over HTTP.
//
// The compared runs are Complete or depth-bounded. Without symmetry
// reduction those quantities are order-independent (each distinct state
// is probed and stored at exactly one owner), so the level-synchronized
// distributed order must reproduce them exactly — the guarantee the
// 3-cache NoSymmetry row of TestDistParityComplete pins. With symmetry
// reduction on (every other row) the stored set is one representative
// per cache-permutation orbit, whichever is expanded first, so parity
// is an observation about these 2-cache configurations, where the
// orders agree, not a general property: at 3 caches the counts move
// with the worker count (see the package comment, "Parity"). MaxStates
// runs are excluded by design — the dist engine applies that bound at
// level granularity — and terminal (deadlock/violation) runs compare
// outcome only, since the engines legitimately stop at different
// points mid-level.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"minvn/internal/dist"
	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

func permsgConfig(t testing.TB, proto string, caches, dirs, addrs int) machine.Config {
	t.Helper()
	p := protocols.MustLoad(proto)
	vn, n := machine.PerMessageVN(p)
	return machine.Config{Protocol: p, Caches: caches, Dirs: dirs, Addrs: addrs, VN: vn, NumVNs: n}
}

func minimalConfig(t testing.TB, proto string, caches, dirs, addrs int) machine.Config {
	t.Helper()
	p := protocols.MustLoad(proto)
	a := vnassign.Assign(p)
	if a.Class != vnassign.Class3 {
		t.Fatalf("%s is %s", proto, a.Class)
	}
	return machine.Config{Protocol: p, Caches: caches, Dirs: dirs, Addrs: addrs, VN: a.VN, NumVNs: a.NumVNs}
}

// pipelineBaseline runs the in-process oracle with the occupancy
// profiler attached.
func pipelineBaseline(t testing.TB, cfg machine.Config, opts mc.Options) mc.Result {
	t.Helper()
	sys, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts.Observer = sys.NewOccupancyProfiler()
	return mc.CheckPipelined(sys, opts, 4, 0)
}

// assertParity requires dist's result to be the pipeline's, snapshot
// and all, but for the fields that legitimately differ, which it zeroes
// on both sides first: the elapsed clock and the rates over it, the
// heap, the health report's byte and time fields and worker entries
// (each engine has its own structures and workers), the sequential
// BFS's raw-cache hits, the pipeline's reorder counts, and the final
// frontier (mc reports 0 where dist
// reports the states a bound left unexpanded). Occupancy is compared
// apart, by value. So a field dist forgets to merge fails here.
func assertParity(t *testing.T, want, got mc.Result) {
	t.Helper()
	if want.Outcome != got.Outcome {
		t.Fatalf("outcome: pipeline %v vs dist %v (%s)", want.Outcome, got.Outcome, got.Message)
	}
	if want.Outcome == mc.Deadlock || want.Outcome == mc.Violation {
		return // terminal runs stop mid-level; only the verdict is pinned
	}
	if got.Stats.Occupancy == nil {
		t.Fatal("dist occupancy missing")
	}
	if !want.Stats.Occupancy.Equal(got.Stats.Occupancy) {
		t.Fatalf("occupancy aggregates differ:\npipeline %+v\ndist     %+v", want.Stats.Occupancy, got.Stats.Occupancy)
	}
	if want.Stats.Health == nil || got.Stats.Health == nil {
		t.Fatalf("missing health report: pipeline %v dist %v", want.Stats.Health != nil, got.Stats.Health != nil)
	}
	comparable := func(r mc.Result) mc.Result {
		r.Duration = 0
		s := &r.Stats
		s.ElapsedSeconds, s.StatesPerSec, s.HeapBytes, s.Frontier, s.Occupancy = 0, 0, 0, 0, nil
		h := *s.Health
		h.ArenaBytes, h.SetBytes, h.FrontierBytes, h.RawHits = 0, 0, 0, 0
		h.ReorderStalls, h.ReorderMax, h.Workers = 0, 0, nil
		s.Health = &h
		return r
	}
	if w, g := comparable(want), comparable(got); !reflect.DeepEqual(w, g) {
		t.Fatalf("results differ:\npipeline %+v\n         %+v\ndist     %+v\n         %+v", w, *w.Stats.Health, g, *g.Stats.Health)
	}
}

var parityWorkerCounts = []int{1, 2, 4}

var transports = []string{"in-process", "http"}

// onFleet runs job on n workers over the named transport: in this
// process (Job.Workers), or as worker handlers behind httptest servers
// (Job.Peers).
func onFleet(t testing.TB, transport string, job dist.Job, n int) (mc.Result, error) {
	t.Helper()
	job.Workers = n
	if transport == "http" {
		for range n {
			srv := httptest.NewServer(dist.NewWorker().Handler())
			t.Cleanup(srv.Close)
			job.Peers = append(job.Peers, srv.URL)
		}
	}
	return dist.Check(context.Background(), job)
}

// TestDistParityAllProtocols sweeps every built-in protocol × both
// stores × 1/2/4 workers × both transports on a depth-bounded
// per-message-VN config.
func TestDistParityAllProtocols(t *testing.T) {
	for _, proto := range protocols.Names() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			cfg := permsgConfig(t, proto, 2, 1, 1)
			for _, store := range []mc.Store{mc.StoreExact, mc.StoreCompact} {
				store := store
				t.Run(store.String(), func(t *testing.T) {
					opts := mc.Options{MaxDepth: 4, Store: store, DisableTraces: true}
					want := pipelineBaseline(t, cfg, opts)
					for _, workers := range parityWorkerCounts {
						workers := workers
						t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
							for _, transport := range transports {
								got, err := onFleet(t, transport, dist.Job{Config: cfg, Options: opts, Occupancy: true}, workers)
								if err != nil {
									t.Fatalf("%s: %v", transport, err)
								}
								assertParity(t, want, got)
							}
						})
					}
				})
			}
		})
	}
}

// TestDistParityComplete exhausts a state space so the Complete
// outcome — termination detection finding a genuinely empty global
// frontier — is compared too, not just bounded prefixes; and runs one
// 3-cache configuration without symmetry reduction, where parity at
// every worker count is a guarantee rather than an observation.
func TestDistParityComplete(t *testing.T) {
	nosym := minimalConfig(t, "CXL_cache", 3, 1, 1)
	nosym.NoSymmetry = true
	for _, tc := range []struct {
		name string
		cfg  machine.Config
		opts mc.Options
		want mc.Outcome
	}{
		{"2c complete", minimalConfig(t, "MSI_nonblocking_cache", 2, 1, 1),
			mc.Options{DisableTraces: true}, mc.Complete},
		{"3c nosym depth-bounded", nosym,
			mc.Options{MaxDepth: 10, DisableTraces: true}, mc.Bounded},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want := pipelineBaseline(t, tc.cfg, tc.opts)
			if want.Outcome != tc.want {
				t.Fatalf("baseline outcome %v, want %v", want.Outcome, tc.want)
			}
			for _, workers := range append([]int{3}, parityWorkerCounts...) {
				for _, transport := range transports {
					got, err := onFleet(t, transport, dist.Job{Config: tc.cfg, Options: tc.opts, Occupancy: true}, workers)
					if err != nil {
						t.Fatalf("workers %d %s: %v", workers, transport, err)
					}
					assertParity(t, want, got)
				}
			}
		})
	}
}

// TestDistStoredCounts pins the stored-state counts of complete searches
// with symmetry reduction on at 3 caches, where the parity suite cannot:
// there the counts depend on which orbit representative is stored
// first, so they move with the fleet size and with the order a worker
// stores its states in (its own successors in generation order, then
// received batches by sender and sequence; package comment, "Parity").
// The numbers were recorded before the worker's data path was last
// rewritten, over HTTP, and hold on both transports; the 2-worker ones
// are bench/expected.json's complete_batch_dist verdicts.
func TestDistStoredCounts(t *testing.T) {
	for _, tc := range []struct {
		proto   string
		workers int
		states  int
	}{
		{"CXL_cache", 1, 44_662},
		{"CXL_cache", 2, 44_719},
		{"CXL_cache", 3, 44_763},
		{"CHI", 2, 64_938},
		{"TileLink", 2, 36_860},
		{"MSI_completion", 2, 107_944},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s/w%d", tc.proto, tc.workers), func(t *testing.T) {
			t.Parallel()
			job := dist.Job{Config: minimalConfig(t, tc.proto, 3, 1, 1), Options: mc.Options{DisableTraces: true}}
			for _, transport := range transports {
				got, err := onFleet(t, transport, job, tc.workers)
				if err != nil {
					t.Fatalf("%s: %v", transport, err)
				}
				if got.Outcome != mc.Complete || got.States != tc.states {
					t.Errorf("%s: %v with %d states, want complete with %d", transport, got.Outcome, got.States, tc.states)
				}
			}
		})
	}
}

// TestDistMaxStatesLevelGranular pins the documented MaxStates
// semantics: the run stops Bounded at the first level boundary at or
// past the bound, so the state count is a full level's, not the
// sequential engine's mid-level cut.
func TestDistMaxStatesLevelGranular(t *testing.T) {
	t.Parallel()
	cfg := permsgConfig(t, "MSI_blocking_cache", 2, 1, 1)
	unbounded := pipelineBaseline(t, cfg, mc.Options{MaxDepth: 5, DisableTraces: true})
	bound := unbounded.States / 2
	if bound < 2 {
		t.Fatalf("state space too small: %d", unbounded.States)
	}
	got, err := dist.Check(context.Background(), dist.Job{
		Config:  cfg,
		Options: mc.Options{MaxStates: bound, DisableTraces: true},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Outcome != mc.Bounded {
		t.Fatalf("outcome %v, want Bounded", got.Outcome)
	}
	if got.States < bound {
		t.Fatalf("stopped below the bound: %d < %d", got.States, bound)
	}
	// Level granularity: the cumulative depth histogram must account
	// for every stored state (whole levels, nothing abandoned mid-way).
	var sum int64
	for _, v := range got.Stats.DepthHistogram {
		sum += v
	}
	if int(sum) != got.States {
		t.Fatalf("depth histogram sums to %d, want %d", sum, got.States)
	}
}

// TestDistDeadlock runs the contrived Class-1 protocol to its genuine
// protocol deadlock and checks the verdict and single-state trace.
func TestDistDeadlock(t *testing.T) {
	t.Parallel()
	cfg := permsgConfig(t, "MSI_class1", 2, 1, 1)
	sys, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := mc.Check(sys, mc.Options{DisableTraces: true})
	if want.Outcome != mc.Deadlock {
		t.Skipf("reference run did not deadlock (%v); config drifted", want.Outcome)
	}
	got, err := dist.Check(context.Background(), dist.Job{
		Config: cfg, Options: mc.Options{DisableTraces: true}, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Outcome != mc.Deadlock {
		t.Fatalf("outcome %v, want Deadlock", got.Outcome)
	}
	if len(got.Trace) != 1 || len(got.Trace[0]) == 0 {
		t.Fatalf("want single-state trace, got %d states", len(got.Trace))
	}
}

// TestDistCancel pins the cancellation contract: a canceled context
// yields Outcome Canceled with a nil error (the user stopped it; the
// fleet did not break).
func TestDistCancel(t *testing.T) {
	t.Parallel()
	cfg := permsgConfig(t, "MSI_blocking_cache", 2, 1, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := dist.Check(ctx, dist.Job{
		Config: cfg, Options: mc.Options{DisableTraces: true}, Workers: 2,
	})
	if err != nil {
		t.Fatalf("canceled context must not be an infra error: %v", err)
	}
	if res.Outcome != mc.Canceled {
		t.Fatalf("outcome %v, want Canceled", res.Outcome)
	}
}

// TestDistProgress checks the coordinator delivers merged per-level
// snapshots with monotonically non-decreasing state counts and a
// final snapshot matching the result.
func TestDistProgress(t *testing.T) {
	t.Parallel()
	cfg := permsgConfig(t, "MSI_blocking_cache", 2, 1, 1)
	var snaps []mc.Snapshot
	res, err := dist.Check(context.Background(), dist.Job{
		Config: cfg,
		Options: mc.Options{
			MaxDepth: 4, DisableTraces: true,
			Progress: func(s mc.Snapshot) { snaps = append(snaps, s) },
		},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("want per-level snapshots plus a final one, got %d", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if !last.Final || last.States != res.States {
		t.Fatalf("final snapshot inconsistent: %+v vs %d states", last, res.States)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].States < snaps[i-1].States {
			t.Fatalf("state count regressed between snapshots: %d then %d",
				snaps[i-1].States, snaps[i].States)
		}
	}
	if time.Duration(last.ElapsedSeconds*float64(time.Second)) > time.Minute {
		t.Fatalf("implausible elapsed: %v", last.ElapsedSeconds)
	}
}

// TestDistWorkerBatches pins what a dist worker's profile counts: like
// the sequential engine's, Batches counts the sampled expansions, so it
// equals States in every worker entry — frontier sends add send wait
// but no batch — on both transports.
func TestDistWorkerBatches(t *testing.T) {
	t.Parallel()
	job := dist.Job{Config: permsgConfig(t, "MSI_nonblocking_cache", 2, 1, 1), Options: mc.Options{MaxDepth: 8, DisableTraces: true}}
	for _, transport := range transports {
		got, err := onFleet(t, transport, job, 2)
		if err != nil {
			t.Fatalf("%s: %v", transport, err)
		}
		ws := got.Stats.Health.Workers
		if len(ws) != 2 {
			t.Fatalf("%s: %d worker entries, want 2", transport, len(ws))
		}
		for _, w := range ws {
			if w.States == 0 || w.Batches != w.States {
				t.Errorf("%s: worker %d counts %d batches for %d sampled expansions", transport, w.Worker, w.Batches, w.States)
			}
		}
	}
}
