package machine

import (
	"testing"

	"minvn/internal/mc"
	"minvn/internal/protocol"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

// ownershipSeed establishes the Fig. 3 prefix: caches 0 and 1 own
// addresses 0 and 1 in M.
func ownershipSeed(t *testing.T, sys *System, caches, dirs int) []byte {
	t.Helper()
	sc := NewScenario(sys)
	for i := 0; i < 2; i++ {
		home := caches + i%dirs
		if err := sc.Core(i, i, protocol.Store); err != nil {
			t.Fatal(err)
		}
		if err := sc.Handle(home, "GetM", i); err != nil {
			t.Fatal(err)
		}
		if err := sc.Handle(i, "Data", i); err != nil {
			t.Fatal(err)
		}
	}
	return sc.State()
}

// TestClass2DeadlocksUnderPerMessageVNs is the model-checked half of
// Table I's cells (2) and (6): the blocking-cache protocols deadlock
// even when every message name has its own virtual network.
func TestClass2DeadlocksUnderPerMessageVNs(t *testing.T) {
	for _, proto := range []string{
		"MSI_blocking_cache", "MESI_blocking_cache", "MESIF_blocking_cache",
		"MOSI_blocking_cache", "MOESI_blocking_cache",
	} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			p := protocols.MustLoad(proto)
			vn, n := PerMessageVN(p)
			cfg := Config{
				Protocol: p, Caches: 3, Dirs: 2, Addrs: 2,
				VN: vn, NumVNs: n}
			if protocols.LoadStoreOnly(proto) {
				// The deadlock needs only loads and stores.
				cfg.CoreEvents = []protocol.CoreEvent{protocol.Load, protocol.Store}
			}
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			seed := ownershipSeed(t, sys, 3, 2)
			res := mc.Check(&Seeded{System: sys, Seeds: [][]byte{seed}},
				mc.Options{Strategy: mc.DFS, MaxStates: 600_000, DisableTraces: true})
			if res.Outcome != mc.Deadlock {
				t.Fatalf("expected deadlock, got %v (%s)", res, res.Message)
			}
		})
	}
}

// TestClass3MinimalAssignmentVerifies is the model-checked half of
// cells (4) and (5): under the computed minimal assignment, small
// instances explore completely with no deadlock and no undefined
// transition.
func TestClass3MinimalAssignmentVerifies(t *testing.T) {
	for _, proto := range []string{
		"MSI_nonblocking_cache", "MESI_nonblocking_cache",
		"MESIF_nonblocking_cache", "CHI", "TileLink", "MSI_completion", "CXL_cache",
	} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			p := protocols.MustLoad(proto)
			a := vnassign.Assign(p)
			if a.Class != vnassign.Class3 {
				t.Fatalf("not Class 3: %v", a.Class)
			}
			sys, err := New(Config{
				Protocol: p, Caches: 2, Dirs: 1, Addrs: 1,
				VN: a.VN, NumVNs: a.NumVNs})
			if err != nil {
				t.Fatal(err)
			}
			res := mc.Check(sys, mc.Options{MaxStates: 2_000_000, DisableTraces: true})
			if res.Outcome != mc.Complete {
				t.Fatalf("expected complete, got %v: %s", res, res.Message)
			}
		})
	}
}

// TestClass3SingleVNDeadlocks: the same protocols wedge when
// everything shares one VN — the queues relation the minimal
// assignment exists to break. The DFS rows find it at 3c/1d/2a. The BFS
// rows are Table I's "one VN deadlocks" evidence for every Class 3
// built-in whose minimum is two VNs: under UniformVN at 3c/1d/1a a
// minimal-depth deadlock, at a pinned stored-state count and depth,
// whose trace replays through Successors.
func TestClass3SingleVNDeadlocks(t *testing.T) {
	for _, proto := range []string{"MSI_nonblocking_cache", "CHI", "TileLink"} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			p := protocols.MustLoad(proto)
			vn, n := UniformVN(p)
			sys, err := New(Config{
				Protocol: p, Caches: 3, Dirs: 1, Addrs: 2,
				VN: vn, NumVNs: n})
			if err != nil {
				t.Fatal(err)
			}
			res := mc.Check(sys, mc.Options{Strategy: mc.DFS, MaxStates: 600_000, DisableTraces: true})
			if res.Outcome != mc.Deadlock {
				t.Fatalf("expected deadlock with 1 VN, got %v (%s)", res, res.Message)
			}
		})
	}
	for _, tc := range []struct {
		proto         string
		states, depth int
	}{
		{"CHI", 2887, 12},
		{"TileLink", 3922, 12},
		{"MSI_completion", 4173, 12},
		{"CXL_cache", 4081, 15},
		{"MESIF_nonblocking_cache", 29630, 19},
		{"MESI_nonblocking_cache", 31633, 19},
		{"MSI_nonblocking_cache", 80018, 20},
	} {
		tc := tc
		t.Run("bfs/"+tc.proto, func(t *testing.T) {
			p := protocols.MustLoad(tc.proto)
			if a := vnassign.Assign(p); a.Class != vnassign.Class3 || a.NumVNs != 2 {
				t.Fatalf("%s is %s with %d VNs; the row is for Class 3 with 2", tc.proto, a.Class, a.NumVNs)
			}
			vn, n := UniformVN(p)
			sys, err := New(Config{Protocol: p, Caches: 3, Dirs: 1, Addrs: 1, VN: vn, NumVNs: n})
			if err != nil {
				t.Fatal(err)
			}
			res := mc.Check(sys, mc.Options{MaxStates: 200_000})
			if res.Outcome != mc.Deadlock || res.States != tc.states || res.MaxDepth != tc.depth {
				t.Fatalf("got %v; pinned a deadlock at %d states, depth %d", res, tc.states, tc.depth)
			}
			replayDeadlock(t, sys, res.Trace)
		})
	}
}

// replayDeadlock checks a deadlock trace against the model: it starts
// at an initial state, each state is byte-equal to one of its
// predecessor's successors, and the last has none and is not quiescent.
func replayDeadlock(t *testing.T, sys *System, trace [][]byte) {
	t.Helper()
	member := func(s []byte, set [][]byte) bool {
		for _, x := range set {
			if string(x) == string(s) {
				return true
			}
		}
		return false
	}
	if len(trace) == 0 || !member(trace[0], sys.Initial()) {
		t.Fatal("the trace does not start at an initial state")
	}
	for i := 1; i < len(trace); i++ {
		succs, err := sys.Successors(trace[i-1])
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !member(trace[i], succs) {
			t.Fatalf("step %d is not a successor of step %d", i, i-1)
		}
	}
	last := trace[len(trace)-1]
	if succs, err := sys.Successors(last); err != nil || len(succs) != 0 || sys.Quiescent(last) {
		t.Fatalf("the last state has %d successors (err %v), quiescent %v", len(succs), err, sys.Quiescent(last))
	}
}

// TestClass1ProtocolDeadlock: the §V-A protocol (Inv stalled in
// SM_AD) deadlocks with ONE address and per-message VNs — the paper's
// definition of a protocol deadlock.
func TestClass1ProtocolDeadlock(t *testing.T) {
	p := protocols.MustLoad("MSI_class1")
	vn, n := PerMessageVN(p)
	sys, err := New(Config{
		Protocol: p, Caches: 2, Dirs: 1, Addrs: 1,
		VN: vn, NumVNs: n})
	if err != nil {
		t.Fatal(err)
	}
	res := mc.Check(sys, mc.Options{Strategy: mc.DFS, MaxStates: 600_000, DisableTraces: true})
	if res.Outcome != mc.Deadlock {
		t.Fatalf("expected protocol deadlock, got %v (%s)", res, res.Message)
	}
}

// TestBaseMSINoProtocolDeadlock: under the same single-address
// configuration the unmodified MSI does NOT deadlock — confirming the
// deadlock above is the protocol bug, not an artifact of the model.
func TestBaseMSINoProtocolDeadlock(t *testing.T) {
	p := protocols.MustLoad("MSI_blocking_cache")
	vn, n := PerMessageVN(p)
	sys, err := New(Config{
		Protocol: p, Caches: 2, Dirs: 1, Addrs: 1,
		VN: vn, NumVNs: n})
	if err != nil {
		t.Fatal(err)
	}
	res := mc.Check(sys, mc.Options{MaxStates: 2_000_000, DisableTraces: true})
	if res.Outcome != mc.Complete {
		t.Fatalf("expected complete with one address, got %v: %s", res, res.Message)
	}
}

// TestPointToPointOrderingAlsoVerifies: the minimal assignment also
// survives every static point-to-point mapping variant (paper
// §VII-A.1's ordered mode).
func TestPointToPointOrderingAlsoVerifies(t *testing.T) {
	p := protocols.MustLoad("MSI_nonblocking_cache")
	a := vnassign.Assign(p)
	for variant := 0; variant < 4; variant++ {
		sys, err := New(Config{
			Protocol: p, Caches: 2, Dirs: 1, Addrs: 1,
			VN: a.VN, NumVNs: a.NumVNs, PointToPoint: true, P2PVariant: variant,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := mc.Check(sys, mc.Options{MaxStates: 2_000_000, DisableTraces: true})
		if res.Outcome != mc.Complete {
			t.Fatalf("variant %d: %v: %s", variant, res, res.Message)
		}
	}
}

// TestSymmetryReductionSoundness: with and without cache symmetry
// reduction the verdicts agree, and reduction shrinks the state count.
func TestSymmetryReductionSoundness(t *testing.T) {
	p := protocols.MustLoad("MSI_nonblocking_cache")
	a := vnassign.Assign(p)
	run := func(noSym bool) mc.Result {
		sys, err := New(Config{
			Protocol: p, Caches: 2, Dirs: 1, Addrs: 1,
			VN: a.VN, NumVNs: a.NumVNs, NoSymmetry: noSym,
		})
		if err != nil {
			t.Fatal(err)
		}
		return mc.Check(sys, mc.Options{MaxStates: 2_000_000, DisableTraces: true})
	}
	with, without := run(false), run(true)
	if with.Outcome != mc.Complete || without.Outcome != mc.Complete {
		t.Fatalf("outcomes: %v / %v", with, without)
	}
	if with.States >= without.States {
		t.Fatalf("symmetry reduction did not reduce states: %d vs %d",
			with.States, without.States)
	}
}

// TestParallelCheckOnSystem: the System's Successors is safe for the
// parallel BFS engine (run under -race in CI) and produces identical
// results.
func TestParallelCheckOnSystem(t *testing.T) {
	p := protocols.MustLoad("CHI")
	a := vnassign.Assign(p)
	sys, err := New(Config{
		Protocol: p, Caches: 2, Dirs: 1, Addrs: 1,
		VN: a.VN, NumVNs: a.NumVNs})
	if err != nil {
		t.Fatal(err)
	}
	seq := mc.Check(sys, mc.Options{DisableTraces: true})
	par := mc.CheckPipelined(sys, mc.Options{DisableTraces: true}, 4, 0)
	if seq.Outcome != mc.Complete || par.Outcome != seq.Outcome || par.States != seq.States {
		t.Fatalf("sequential %v vs parallel %v", seq, par)
	}
}
