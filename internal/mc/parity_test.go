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
	"bytes"
	"context"
	"crypto/sha256"
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

// parityCase is one row of the parity suite: a system, search options
// and the pinned shape of the sequential exact-store search — its
// outcome, stored states, deepest level, duplicate successors.
type parityCase struct {
	name          string
	proto         string
	vnMode        string
	size          [3]int // caches, dirs, addrs
	opts          mc.Options
	outcome       mc.Outcome
	states, depth int
	dedup         int64
}

// inProcess are the in-process engines the mc suites compare: the
// sequential loop and the pipeline at 4 workers.
var inProcess = []struct {
	name string
	run  func(context.Context, mc.Model, mc.Options) mc.Result
}{
	{"seq", mc.CheckCtx},
	{"pipeline", func(ctx context.Context, m mc.Model, opts mc.Options) mc.Result {
		return mc.CheckPipelinedCtx(ctx, m, opts, 4)
	}},
}

// The parity rows' sizes: caches, dirs, addrs.
var smallSize, paperSize = [3]int{2, 1, 1}, [3]int{3, 2, 2}

// parityCases are the parity suite's rows. The 3c/2d/2a rows are the
// paper's system under the minimal assignment: the exact pin of the
// search at that size. The complete 3c/1d/1a row is one where symmetry
// reduction stores whichever orbit representative comes first, so it
// pins the store order itself. The MOESI and MOSI 2c/1d/1a rows end
// before their bound, each at a cell its table leaves unspecified
// (ROADMAP item 1).
var parityCases = []parityCase{
	{"MSI-minimal-bounded", "MSI_nonblocking_cache", "minimal", smallSize,
		mc.Options{MaxStates: 4000, DisableTraces: true}, mc.Bounded, 4000, 20, 5787},
	{"MSI-minimal-traces", "MSI_nonblocking_cache", "minimal", smallSize,
		mc.Options{MaxStates: 2500}, mc.Bounded, 2500, 17, 3332},
	{"MESI-minimal-bounded", "MESI_nonblocking_cache", "minimal", smallSize,
		mc.Options{MaxStates: 4000, DisableTraces: true}, mc.Bounded, 4000, 22, 6278},
	{"MESI-uniform-depth", "MESI_nonblocking_cache", "uniform", smallSize,
		mc.Options{MaxDepth: 3, DisableTraces: true}, mc.Bounded, 31, 3, 26},
	{"MOESI-minimal-violation", "MOESI_nonblocking_cache", "minimal", smallSize,
		mc.Options{MaxStates: 3000, DisableTraces: true}, mc.Violation, 1764, 20, 1680},
	{"MOSI-minimal-violation", "MOSI_nonblocking_cache", "minimal", smallSize,
		mc.Options{MaxStates: 3000, DisableTraces: true}, mc.Violation, 1755, 16, 1811},
	{"CHI-permsg-bounded", "CHI", "permsg", smallSize,
		mc.Options{MaxStates: 2000, DisableTraces: true}, mc.Bounded, 2000, 32, 3480},
	{"CXL-minimal-complete", "CXL_cache", "minimal", [3]int{3, 1, 1},
		mc.Options{DisableTraces: true}, mc.Complete, 44662, 57, 98838},
	{"MSI-minimal-paper", "MSI_nonblocking_cache", "minimal", paperSize,
		mc.Options{MaxStates: 40_000, DisableTraces: true}, mc.Bounded, 40000, 6, 38224},
	{"MESI-minimal-paper", "MESI_nonblocking_cache", "minimal", paperSize,
		mc.Options{MaxStates: 40_000, DisableTraces: true}, mc.Bounded, 40000, 6, 38224},
	{"MOESI-minimal-paper", "MOESI_nonblocking_cache", "minimal", paperSize,
		mc.Options{MaxStates: 40_000, DisableTraces: true}, mc.Bounded, 40000, 6, 36494},
}

// TestParallelParityProtocols runs every row on both engines and both
// visited-set modes: all four runs must mc.Agree with the sequential
// exact-store reference, fire the same rules the same number of times
// and profile the same per-VN occupancy, and the reference's search
// shape is pinned.
func TestParallelParityProtocols(t *testing.T) {
	for _, tc := range parityCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sys := paritySystem(t, tc.proto, tc.vnMode, tc.size[0], tc.size[1], tc.size[2])
			var ref mc.Result
			var refOcc *icn.OccupancyStats
			for _, store := range []mc.Store{mc.StoreExact, mc.StoreCompact} {
				for _, engine := range inProcess {
					name := engine.name + "/" + store.String()
					opts := tc.opts
					opts.Store = store
					prof := sys.NewOccupancyProfiler()
					opts.Observer = prof
					// The progress callback runs on the pipeline's merge
					// goroutine; -race verifies it never races with workers.
					snaps := 0
					opts.Progress = func(mc.Snapshot) { snaps++ }
					opts.ProgressEvery = 500
					res := engine.run(context.Background(), sys, opts)
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
			if ref.Outcome != tc.outcome || ref.States != tc.states || ref.MaxDepth != tc.depth || ref.Stats.DedupHits != tc.dedup {
				t.Fatalf("search shape: %v, %d states, depth %d, %d dedup hits (%s); pinned %v, %d, %d, %d",
					ref.Outcome, ref.States, ref.MaxDepth, ref.Stats.DedupHits, ref.Message, tc.outcome, tc.states, tc.depth, tc.dedup)
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

// TestPartitionIsSeqCore pins what a distributed worker rests on: a
// one-owner Partition, driven level by level, is the sequential BFS with
// traces off. On every parity row that MaxStates does not cut — a
// partition applies no bound, its caller stops it between levels — it
// hands its observer the same states in the same order, stops at the
// same violation or deadlock, and ends with the same states, depth,
// expansions, generated successors, dedup hits, raw-cache hits, rule
// firings and depth histogram as mc.Check: it fills and consults its raw
// cache exactly where the sequential BFS does. The 3-cache row is where
// the order decides which orbit representative is stored, and the one
// big enough to allocate the cache.
func TestPartitionIsSeqCore(t *testing.T) {
	for _, tc := range parityCases {
		if cutMidLevel(tc) {
			continue
		}
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sys := paritySystem(t, tc.proto, tc.vnMode, tc.size[0], tc.size[1], tc.size[2])
			opts := tc.opts
			opts.DisableTraces = true
			seqObs := hashingObserver{sha256.New()}
			opts.Observer = seqObs
			want := mc.Check(sys, opts)

			obs := hashingObserver{sha256.New()}
			opts.Observer = obs
			got, res := onePartition(t, sys, opts)
			if !bytes.Equal(obs.h.Sum(nil), seqObs.h.Sum(nil)) {
				t.Error("the partition observed another state sequence than seq")
			}
			assertPartitionIsSeq(t, want, got, res)
			if tc.name == "CXL-minimal-complete" && got.Health.RawHits == 0 {
				t.Errorf("no successor settled from the raw cache in %d states", got.States)
			}
		})
	}
}

// cutMidLevel reports whether MaxStates cuts a row's search mid-level,
// where a partition is never cut.
func cutMidLevel(tc parityCase) bool {
	return tc.opts.MaxStates > 0 && tc.states >= tc.opts.MaxStates
}

// onePartition drives a one-owner partition of m, under opts' store and
// observer, level by level until its frontier is empty, it stops at a
// violation or deadlock, or it reaches opts.MaxDepth; it returns the
// partition's account and the stop.
func onePartition(t *testing.T, m mc.Model, opts mc.Options) (mc.Snapshot, mc.Result) {
	t.Helper()
	p, err := mc.NewPartition(m, mc.Options{Store: opts.Store, Observer: opts.Observer}, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ship := func([]byte, int) { t.Fatal("a lone owner shipped a state") }
	more := func() bool { return true }
	got := p.Snapshot()
	var res mc.Result
	for depth := 0; got.Frontier > 0 && res.Message == "" && (opts.MaxDepth == 0 || depth < opts.MaxDepth); depth++ {
		if res, err = p.Expand(ship, more); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		got = p.Snapshot()
	}
	return got, res
}

// assertPartitionIsSeq requires a one-owner partition's account and stop
// to be the sequential BFS's result: a violation or deadlock at the same
// state, and the same books, raw-cache hits included.
func assertPartitionIsSeq(t *testing.T, want mc.Result, got mc.Snapshot, res mc.Result) {
	t.Helper()
	if terminal := want.Outcome == mc.Deadlock || want.Outcome == mc.Violation; terminal != (res.Message != "") ||
		terminal && (res.Outcome != want.Outcome || res.Message != want.Message) {
		t.Fatalf("partition ended %v %q; seq %v %q", res.Outcome, res.Message, want.Outcome, want.Message)
	}
	w := want.Stats
	if got.States != want.States || got.MaxDepth != want.MaxDepth || got.Expansions != int64(want.Rules) ||
		got.Generated != w.Generated || got.DedupHits != w.DedupHits || got.Health.RawHits != w.Health.RawHits {
		t.Errorf("partition: %d states, depth %d, %d expansions, %d generated, %d dedup hits, %d raw hits; seq %v, %d generated, %d dedup hits, %d raw hits",
			got.States, got.MaxDepth, got.Expansions, got.Generated, got.DedupHits, got.Health.RawHits,
			want, w.Generated, w.DedupHits, w.Health.RawHits)
	}
	if !reflect.DeepEqual(got.DepthHistogram, w.DepthHistogram) || !reflect.DeepEqual(got.RuleFirings, w.RuleFirings) {
		t.Errorf("partition histogram %v, firings %v; seq %v, %v", got.DepthHistogram, got.RuleFirings, w.DepthHistogram, w.RuleFirings)
	}
}
