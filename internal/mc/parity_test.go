package mc_test

// Parity suite: the pipelined parallel engine must agree with the
// sequential reference engine on every protocol configuration the
// repo's tests exercise: same Outcome, same stored-state count, same
// depth, same expansion (Rules) count, for unbounded, state-bounded,
// and depth-bounded runs, with and without traces, and with progress
// callbacks enabled (exercised under -race). Rules equality matters on
// early-terminating runs in particular: speculative expansions past the
// stopping point must not count.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"minvn/internal/icn"
	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

func paritySystem(t *testing.T, proto, vnMode string, caches, dirs, addrs int) *machine.System {
	t.Helper()
	p := protocols.MustLoad(proto)
	var vn map[string]int
	var n int
	switch vnMode {
	case "minimal":
		a := vnassign.Assign(p)
		if a.Class != vnassign.Class3 {
			t.Fatalf("%s is %s", proto, a.Class)
		}
		vn, n = a.VN, a.NumVNs
	case "permsg":
		vn, n = machine.PerMessageVN(p)
	case "uniform":
		vn, n = machine.UniformVN(p)
	default:
		t.Fatalf("unknown vn mode %q", vnMode)
	}
	sys, err := machine.New(machine.Config{
		Protocol: p, Caches: caches, Dirs: dirs, Addrs: addrs,
		VN: vn, NumVNs: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestParallelParityProtocols runs every row on both engines and both
// visited-set modes: all four runs must mc.Agree with the sequential
// exact-store reference, fire the same rules the same number of times
// and profile the same per-VN occupancy, and the reference's search
// shape is pinned. The 3c/2d/2a rows are the paper's system under the
// minimal assignment: the exact pin of the search at that size.
func TestParallelParityProtocols(t *testing.T) {
	small, paper := [3]int{2, 1, 1}, [3]int{3, 2, 2}
	cases := []struct {
		name   string
		proto  string
		vnMode string
		size   [3]int // caches, dirs, addrs
		opts   mc.Options
		// Pinned shape of the search: stored states, deepest level,
		// duplicate successors.
		states, depth int
		dedup         int64
	}{
		{"MSI-minimal-bounded", "MSI_nonblocking_cache", "minimal", small,
			mc.Options{MaxStates: 4000, DisableTraces: true}, 4000, 20, 5787},
		{"MSI-minimal-traces", "MSI_nonblocking_cache", "minimal", small,
			mc.Options{MaxStates: 2500}, 2500, 17, 3332},
		{"MESI-minimal-bounded", "MESI_nonblocking_cache", "minimal", small,
			mc.Options{MaxStates: 4000, DisableTraces: true}, 4000, 22, 6278},
		{"MESI-uniform-depth", "MESI_nonblocking_cache", "uniform", small,
			mc.Options{MaxDepth: 3, DisableTraces: true}, 31, 3, 26},
		{"MOESI-minimal-bounded", "MOESI_nonblocking_cache", "minimal", small,
			mc.Options{MaxStates: 3000, DisableTraces: true}, 1764, 20, 1680},
		{"CHI-permsg-bounded", "CHI", "permsg", small,
			mc.Options{MaxStates: 2000, DisableTraces: true}, 2000, 32, 3480},
		{"MSI-minimal-paper", "MSI_nonblocking_cache", "minimal", paper,
			mc.Options{MaxStates: 40_000, DisableTraces: true}, 40000, 6, 38224},
		{"MESI-minimal-paper", "MESI_nonblocking_cache", "minimal", paper,
			mc.Options{MaxStates: 40_000, DisableTraces: true}, 40000, 6, 38224},
		{"MOESI-minimal-paper", "MOESI_nonblocking_cache", "minimal", paper,
			mc.Options{MaxStates: 40_000, DisableTraces: true}, 40000, 6, 36494},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sys := paritySystem(t, tc.proto, tc.vnMode, tc.size[0], tc.size[1], tc.size[2])
			var ref mc.Result
			var refOcc *icn.OccupancyStats
			for _, store := range []mc.Store{mc.StoreExact, mc.StoreCompact} {
				for _, engine := range []mc.Engine{mc.EngineSeq, mc.EnginePipeline} {
					name := engine.String() + "/" + store.String()
					opts := tc.opts
					opts.Store = store
					prof := sys.NewOccupancyProfiler()
					opts.Observer = prof
					// The progress callback runs on the pipeline's merge
					// goroutine; -race verifies it never races with workers.
					snaps := 0
					opts.Progress = func(mc.Snapshot) { snaps++ }
					opts.ProgressEvery = 500
					res := mc.CheckEngineCtx(context.Background(), sys, opts, engine, 4)
					if !res.Stats.Final || res.Stats.States != res.States {
						t.Fatalf("%s Stats inconsistent: %+v", name, res.Stats)
					}
					if snaps == 0 {
						t.Fatalf("%s delivered no progress snapshots", name)
					}
					if refOcc == nil {
						ref, refOcc = res, prof.Stats()
						continue
					}
					if !mc.Agree(ref, res) || ref.Rules != res.Rules {
						t.Fatalf("%s: %v vs reference %v", name, res, ref)
					}
					if !reflect.DeepEqual(ref.Stats.RuleFirings, res.Stats.RuleFirings) {
						t.Fatalf("%s rule firings: %v vs reference %v", name, res.Stats.RuleFirings, ref.Stats.RuleFirings)
					}
					if !prof.Stats().Equal(refOcc) {
						t.Fatalf("%s occupancy aggregate differs from the reference's", name)
					}
				}
			}
			if ref.States != tc.states || ref.MaxDepth != tc.depth || ref.Stats.DedupHits != tc.dedup {
				t.Fatalf("search shape: %d states, depth %d, %d dedup hits; pinned %d, %d, %d",
					ref.States, ref.MaxDepth, ref.Stats.DedupHits, tc.states, tc.depth, tc.dedup)
			}
		})
	}
}

// TestParallelParityComplete exhausts a small state space so the
// Complete outcome (not just bounded prefixes) is compared too.
func TestParallelParityComplete(t *testing.T) {
	sys := paritySystem(t, "MSI_nonblocking_cache", "minimal", 2, 1, 1)
	opts := mc.Options{MaxStates: 2_000_000, DisableTraces: true}
	seq := mc.Check(sys, opts)
	pip := mc.CheckPipelined(sys, opts, 0, 0) // 0 workers = GOMAXPROCS, 0 shards = default
	if seq.Outcome != mc.Complete {
		t.Fatalf("expected the 2-cache MSI space to be exhaustible, got %v", seq)
	}
	if seq.Outcome != pip.Outcome || seq.States != pip.States || seq.MaxDepth != pip.MaxDepth || seq.Rules != pip.Rules {
		t.Fatalf("seq %v vs pipeline %v", seq, pip)
	}
}

// TestContextParityProtocols pins that threading a background context
// through the Ctx variants is invisible on a real protocol system —
// same Outcome, States, Rules, and MaxDepth as the context-free calls
// — and that a canceled context stops both engines promptly with
// the Canceled outcome.
func TestContextParityProtocols(t *testing.T) {
	sys := paritySystem(t, "MESI_nonblocking_cache", "minimal", 2, 1, 1)
	opts := mc.Options{MaxStates: 4000, DisableTraces: true}
	bg := context.Background()

	seq := mc.Check(sys, opts)
	for _, eng := range []struct {
		name string
		res  mc.Result
	}{
		{"seq-ctx", mc.CheckCtx(bg, sys, opts)},
		{"pipeline-ctx", mc.CheckPipelinedCtx(bg, sys, opts, 4)},
		{"engine-ctx", mc.CheckEngineCtx(bg, sys, opts, mc.EnginePipeline, 4)},
	} {
		if seq.Outcome != eng.res.Outcome || seq.States != eng.res.States ||
			seq.Rules != eng.res.Rules || seq.MaxDepth != eng.res.MaxDepth {
			t.Fatalf("%s with background ctx diverges: %v vs %v", eng.name, eng.res, seq)
		}
	}

	// A canceled context stops every engine promptly: the unbounded
	// 3-cache space is far larger than anything explorable in the few
	// milliseconds before the cancel lands.
	big := paritySystem(t, "MOESI_nonblocking_cache", "minimal", 3, 2, 2)
	unbounded := mc.Options{DisableTraces: true}
	for _, eng := range []struct {
		name string
		run  func(context.Context) mc.Result
	}{
		{"seq", func(ctx context.Context) mc.Result { return mc.CheckCtx(ctx, big, unbounded) }},
		{"pipeline", func(ctx context.Context) mc.Result { return mc.CheckPipelinedCtx(ctx, big, unbounded, 4) }},
	} {
		ctx, cancel := context.WithCancel(bg)
		done := make(chan mc.Result, 1)
		go func() { done <- eng.run(ctx) }()
		time.Sleep(10 * time.Millisecond)
		cancel()
		select {
		case res := <-done:
			if res.Outcome != mc.Canceled {
				t.Fatalf("%s: outcome after cancel = %v, want Canceled", eng.name, res.Outcome)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: engine did not stop after cancel", eng.name)
		}
	}
}

// TestPipelineParityAllProtocols sweeps every built-in protocol under
// the per-message assignment (valid for all of them) and requires the
// pipelined engine to reproduce the sequential run exactly — the
// reproducibility contract the engine advertises. Bounded prefixes
// keep the sweep fast; the bound also exercises the early-termination
// path on every protocol.
func TestPipelineParityAllProtocols(t *testing.T) {
	for _, name := range protocols.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := protocols.MustLoad(name)
			vn, n := machine.PerMessageVN(p)
			sys, err := machine.New(machine.Config{
				Protocol: p, Caches: 2, Dirs: 1, Addrs: 1, VN: vn, NumVNs: n,
			})
			if err != nil {
				t.Fatal(err)
			}
			opts := mc.Options{MaxStates: 1500}
			seq := mc.Check(sys, opts)
			pip := mc.CheckPipelined(sys, opts, 4, 0)
			if seq.Outcome != pip.Outcome || seq.Message != pip.Message {
				t.Fatalf("outcome: seq %v %q vs pipeline %v %q", seq.Outcome, seq.Message, pip.Outcome, pip.Message)
			}
			if seq.States != pip.States || seq.MaxDepth != pip.MaxDepth || seq.Rules != pip.Rules {
				t.Fatalf("states/depth/rules: seq %d/%d/%d vs pipeline %d/%d/%d",
					seq.States, seq.MaxDepth, seq.Rules, pip.States, pip.MaxDepth, pip.Rules)
			}
			if len(seq.Trace) != len(pip.Trace) {
				t.Fatalf("trace length: seq %d vs pipeline %d", len(seq.Trace), len(pip.Trace))
			}
			for i := range seq.Trace {
				if string(seq.Trace[i]) != string(pip.Trace[i]) {
					t.Fatalf("trace diverges at step %d", i)
				}
			}
		})
	}
}
