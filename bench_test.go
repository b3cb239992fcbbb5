// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for recorded results):
//
//   - BenchmarkTableI_*           — Table I, static half: classification
//     and minimum-VN computation per protocol configuration.
//   - BenchmarkTableI_MC_*        — Table I, verification half: deadlock
//     hunts for the Class 2 cells, bounded no-deadlock runs for the
//     Class 3 cells.
//   - BenchmarkFig1Fig2_Tables    — rendering the MSI controller tables.
//   - BenchmarkFig3_DeadlockReplay / _DeadlockSearch — the two-directory
//     deadlock example, replayed deterministically and rediscovered by
//     depth-first search.
//   - BenchmarkFig5_CHIRelations  — the CHI causes/waits derivation.
//   - BenchmarkSecIII_TextbookBaseline — the conventional-wisdom rule.
//   - BenchmarkSecVIB_AlgorithmScaling — tractability of the reduction
//     (FAS + coloring) on the real protocol instances.
//   - BenchmarkStaticSweep        — the static path over the repository
//     benchmark's static_sweep set (742 protocols), for profiling.
//   - BenchmarkSweepSet           — building that set: the workload's
//     set-up.
//
// Run: go test -bench=. -benchmem
package minvn_test

import (
	"fmt"
	"strings"
	"testing"

	"minvn"
	"minvn/internal/analysis"
	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/protocol"
	"minvn/internal/protocols"
	"minvn/internal/ptest"
	"minvn/internal/vnassign"
)

// tableIProtocols lists the Table I configurations in experiment order.
var tableIProtocols = []string{
	"MOSI_nonblocking_cache", "MOESI_nonblocking_cache", // (1)
	"MOSI_blocking_cache", "MOESI_blocking_cache", // (2)
	"CHI",                                             // (4)
	"MSI_nonblocking_cache", "MESI_nonblocking_cache", // (5)
	"MSI_blocking_cache", "MESI_blocking_cache", // (6)
}

// BenchmarkTableI_Static runs the complete static pipeline (analysis +
// minimum-VN algorithm) for every Table I protocol — the equivalent of
// the artifact's run_all_algorithm.sh.
func BenchmarkTableI_Static(b *testing.B) {
	ps := make([]*protocol.Protocol, len(tableIProtocols))
	for i, n := range tableIProtocols {
		ps[i] = protocols.MustLoad(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			a := vnassign.Assign(p)
			if a.Class == vnassign.ClassUnknown {
				b.Fatal("unclassified")
			}
		}
	}
}

// BenchmarkStaticSweep is the measured loop of bench/'s static_sweep
// workload, in-package so -cpuprofile and -memprofile see it: one
// iteration analyzes and assigns the whole sweep set (built-ins,
// NonStalling variants, composites, 600 generated protocols) once.
func BenchmarkStaticSweep(b *testing.B) {
	ps := ptest.SweepSet([]int64{3}, 600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			if a := vnassign.AssignFromAnalysis(analysis.Analyze(p)); a.Class == vnassign.ClassUnknown {
				b.Fatal("unclassified")
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ps)), "ns/protocol")
}

// BenchmarkSweepSet is bench/'s static_sweep set-up: building the 742
// tables BenchmarkStaticSweep analyzes (built-ins, NonStalling
// variants, composites, 600 generated protocols), once per iteration.
func BenchmarkSweepSet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ps := ptest.SweepSet([]int64{3}, 600); len(ps) != 742 {
			b.Fatalf("sweep set has %d protocols, want 742", len(ps))
		}
	}
}

// Per-protocol static benchmarks, one per Table I row.
func BenchmarkTableI_StaticPerProtocol(b *testing.B) {
	for _, name := range tableIProtocols {
		p := protocols.MustLoad(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vnassign.Assign(p)
			}
		})
	}
}

// BenchmarkTableI_MC_DeadlockHunt is the verification half of Table I
// cells (2) and (6): per-message VNs, DFS from the ownership prefix,
// until the deadlock is found.
func BenchmarkTableI_MC_DeadlockHunt(b *testing.B) {
	for _, name := range []string{
		"MOSI_blocking_cache", "MOESI_blocking_cache",
		"MSI_blocking_cache", "MESI_blocking_cache",
	} {
		p := protocols.MustLoad(name)
		vn, n := machine.PerMessageVN(p)
		cfg := machine.Config{
			Protocol: p, Caches: 3, Dirs: 2, Addrs: 2,
			VN: vn, NumVNs: n}
		if strings.HasPrefix(name, "MO") {
			cfg.CoreEvents = []protocol.CoreEvent{protocol.Load, protocol.Store}
		}
		sys, err := machine.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		seed := benchOwnershipSeed(b, sys, 3, 2)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mc.Check(&machine.Seeded{System: sys, Seeds: [][]byte{seed}},
					mc.Options{Strategy: mc.DFS, MaxStates: 600_000, DisableTraces: true})
				if res.Outcome != mc.Deadlock {
					b.Fatalf("expected deadlock, got %v", res)
				}
				b.ReportMetric(float64(res.States), "states")
			}
		})
	}
}

// BenchmarkTableI_MC_Verify is the verification half of cells (4) and
// (5): the minimal 2-VN assignment explored to completion on a small
// instance and to a bound on the paper's 3-cache/2-dir instance.
func BenchmarkTableI_MC_Verify(b *testing.B) {
	for _, name := range []string{"CHI", "MSI_nonblocking_cache", "MESI_nonblocking_cache"} {
		p := protocols.MustLoad(name)
		a := vnassign.Assign(p)
		for _, scale := range []struct {
			label               string
			caches, dirs, addrs int
			maxStates           int
			wantComplete        bool
		}{
			{"small_complete", 2, 1, 1, 2_000_000, true},
			{"paper_bounded", 3, 2, 2, 100_000, false},
		} {
			sys, err := machine.New(machine.Config{
				Protocol: p, Caches: scale.caches, Dirs: scale.dirs, Addrs: scale.addrs,
				VN: a.VN, NumVNs: a.NumVNs})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(name+"/"+scale.label, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := mc.Check(sys, mc.Options{MaxStates: scale.maxStates, DisableTraces: true})
					switch {
					case res.Outcome == mc.Deadlock || res.Outcome == mc.Violation:
						b.Fatalf("verification failed: %v %s", res, res.Message)
					case scale.wantComplete && res.Outcome != mc.Complete:
						b.Fatalf("expected complete exploration, got %v", res)
					}
					b.ReportMetric(float64(res.States), "states")
				}
			})
		}
	}
}

// BenchmarkFig1Fig2_Tables renders the MSI cache and directory tables
// (the paper's Figs. 1 and 2).
func BenchmarkFig1Fig2_Tables(b *testing.B) {
	p := protocols.MustLoad("MSI_blocking_cache")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(protocol.FormatProtocol(p)) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig3_DeadlockReplay replays the Fig. 3 execution
// deterministically (18 scenario steps into the wedged state).
func BenchmarkFig3_DeadlockReplay(b *testing.B) {
	p := protocols.MustLoad("MSI_blocking_cache")
	vn, n := machine.PerMessageVN(p)
	sys, err := machine.New(machine.Config{
		Protocol: p, Caches: 3, Dirs: 2, Addrs: 2,
		VN: vn, NumVNs: n})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(runFig3(b, sys)); got < 2 {
			b.Fatalf("replay ended with %d stalled heads", got)
		}
	}
}

// BenchmarkFig3_DeadlockSearch rediscovers a Fig. 3-style deadlock by
// search instead of scripting.
func BenchmarkFig3_DeadlockSearch(b *testing.B) {
	p := protocols.MustLoad("MSI_blocking_cache")
	vn, n := machine.PerMessageVN(p)
	sys, err := machine.New(machine.Config{
		Protocol: p, Caches: 3, Dirs: 2, Addrs: 2,
		VN: vn, NumVNs: n})
	if err != nil {
		b.Fatal(err)
	}
	seed := benchOwnershipSeed(b, sys, 3, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mc.Check(&machine.Seeded{System: sys, Seeds: [][]byte{seed}},
			mc.Options{Strategy: mc.DFS, MaxStates: 600_000, DisableTraces: true})
		if res.Outcome != mc.Deadlock {
			b.Fatalf("no deadlock: %v", res)
		}
		b.ReportMetric(float64(res.States), "states")
	}
}

// BenchmarkFig5_CHIRelations derives the CHI causes/waits relations
// and the 2-VN result (paper Fig. 5, Eq. 7, §VII-C).
func BenchmarkFig5_CHIRelations(b *testing.B) {
	p := protocols.MustLoad("CHI")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := analysis.Analyze(p)
		if !r.Causes.Has("CleanUnique", "Inv") {
			b.Fatal("Eq. 7 chain missing")
		}
		a := vnassign.AssignFromAnalysis(r)
		if a.NumVNs != 2 {
			b.Fatalf("CHI VNs = %d", a.NumVNs)
		}
	}
}

// BenchmarkSecIII_TextbookBaseline computes the conventional-wisdom VN
// count for every protocol (the baseline the paper refutes).
func BenchmarkSecIII_TextbookBaseline(b *testing.B) {
	rs := make([]*analysis.Result, len(tableIProtocols))
	for i, n := range tableIProtocols {
		rs[i] = analysis.Analyze(protocols.MustLoad(n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rs {
			tb := vnassign.Textbook(r)
			if tb.NumVNs < 3 {
				b.Fatalf("textbook said %d", tb.NumVNs)
			}
		}
	}
}

// BenchmarkSecVIB_AlgorithmScaling isolates the graph reduction
// (dependency graph + FAS + coloring) from table parsing, per
// protocol — the cost §VI-B argues is negligible at ~10¹ nodes.
func BenchmarkSecVIB_AlgorithmScaling(b *testing.B) {
	for _, name := range []string{"MSI_nonblocking_cache", "CHI", "MOESI_nonblocking_cache"} {
		r := analysis.Analyze(protocols.MustLoad(name))
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vnassign.AssignFromAnalysis(r)
			}
		})
	}
}

// BenchmarkFacade measures the public API end to end.
func BenchmarkFacade(b *testing.B) {
	p, err := minvn.LoadProtocol("CHI")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := minvn.Minimize(p); res.NumVNs != 2 {
			b.Fatalf("NumVNs = %d", res.NumVNs)
		}
	}
}

// --- helpers ---

func benchOwnershipSeed(tb testing.TB, sys *machine.System, caches, dirs int) []byte {
	sc := machine.NewScenario(sys)
	for i := 0; i < 2; i++ {
		home := caches + i%dirs
		if err := sc.Core(i, i, protocol.Store); err != nil {
			tb.Fatal(err)
		}
		if err := sc.Handle(home, "GetM", i); err != nil {
			tb.Fatal(err)
		}
		if err := sc.Handle(i, "Data", i); err != nil {
			tb.Fatal(err)
		}
	}
	return sc.State()
}

// runFig3 executes the Fig. 3 script and returns the stalled heads.
func runFig3(tb testing.TB, sys *machine.System) []string {
	const dirX, dirY, X, Y = 3, 4, 0, 1
	sc := machine.NewScenario(sys)
	steps := []func() error{
		func() error { return sc.Core(0, X, protocol.Store) },
		func() error { return sc.Handle(dirX, "GetM", X) },
		func() error { return sc.Handle(0, "Data", X) },
		func() error { return sc.Core(1, Y, protocol.Store) },
		func() error { return sc.Handle(dirY, "GetM", Y) },
		func() error { return sc.Handle(1, "Data", Y) },
		func() error { return sc.Core(0, Y, protocol.Store) },
		func() error { return sc.HandleVia(dirY, "GetM", Y, 0) },
		func() error { return sc.Core(1, X, protocol.Store) },
		func() error { return sc.HandleVia(dirX, "GetM", X, 0) },
		func() error { return sc.Core(2, Y, protocol.Store) },
		func() error { return sc.HandleVia(dirY, "GetM", Y, 1) },
		func() error { return sc.Core(2, X, protocol.Store) },
		func() error { return sc.HandleVia(dirX, "GetM", X, 1) },
		func() error { return sc.DeliverTo("Fwd-GetM", Y, 0) },
		func() error { return sc.DeliverTo("Fwd-GetM", X, 1) },
		func() error { return sc.DeliverTo("Fwd-GetM", Y, 1) },
		func() error { return sc.DeliverTo("Fwd-GetM", X, 0) },
	}
	for i, f := range steps {
		if err := f(); err != nil {
			tb.Fatal(fmt.Errorf("fig3 step %d: %w", i, err))
		}
	}
	return sc.StalledHeads()
}

// BenchmarkIndustrialSpecs_MinVsPrescribed runs the full pipeline on
// the three completion-based industrial-flavored specs (CHI, TileLink,
// completion-ordered MSI): textbook/spec says 4–5, minimum is 2.
func BenchmarkIndustrialSpecs_MinVsPrescribed(b *testing.B) {
	for _, name := range []string{"CHI", "TileLink", "MSI_completion"} {
		p := protocols.MustLoad(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := analysis.Analyze(p)
				a := vnassign.AssignFromAnalysis(r)
				tb := vnassign.Textbook(r)
				if a.NumVNs != 2 || tb.NumVNs != 4 {
					b.Fatalf("%s: min %d textbook %d", name, a.NumVNs, tb.NumVNs)
				}
			}
		})
	}
}

// BenchmarkRandomWalk measures simulation throughput (rules/second)
// of the executable semantics under a random workload.
func BenchmarkRandomWalk(b *testing.B) {
	for _, name := range []string{"MSI_nonblocking_cache", "CHI"} {
		p := protocols.MustLoad(name)
		a := vnassign.Assign(p)
		sys, err := machine.New(machine.Config{
			Protocol: p, Caches: 3, Dirs: 2, Addrs: 2,
			VN: a.VN, NumVNs: a.NumVNs,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				res := sys.Walk(int64(i), 2000)
				if res.Deadlocked || res.Violation != nil {
					b.Fatalf("walk failed: %v", res)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkEnumerateAssignments measures the all-minimal-assignments
// enumeration.
func BenchmarkEnumerateAssignments(b *testing.B) {
	r := analysis.Analyze(protocols.MustLoad("CHI"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := vnassign.EnumerateAssignments(r, 64); len(got) == 0 {
			b.Fatal("no assignments")
		}
	}
}

// BenchmarkConstrainedAssignment measures the designer-constraint
// variant (data/control separation on CHI → 3 VNs).
func BenchmarkConstrainedAssignment(b *testing.B) {
	p := protocols.MustLoad("CHI")
	r := analysis.Analyze(p)
	cs := vnassign.SeparateDataFromControl(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := vnassign.AssignConstrained(r, cs)
		if err != nil || a.NumVNs != 3 {
			b.Fatalf("constrained: %v %v", a, err)
		}
	}
}

// BenchmarkParallelCheck compares sequential and pipelined BFS on a
// complete CHI exploration (gains require multiple cores).
func BenchmarkParallelCheck(b *testing.B) {
	p := protocols.MustLoad("CHI")
	a := vnassign.Assign(p)
	sys, err := machine.New(machine.Config{
		Protocol: p, Caches: 2, Dirs: 1, Addrs: 1, VN: a.VN, NumVNs: a.NumVNs,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mc.CheckPipelined(sys, mc.Options{DisableTraces: true}, workers, 0)
				if res.Outcome != mc.Complete {
					b.Fatal(res)
				}
			}
		})
	}
}

// BenchmarkInvariantOverhead measures the cost of SWMR checking.
func BenchmarkInvariantOverhead(b *testing.B) {
	p := protocols.MustLoad("MSI_nonblocking_cache")
	a := vnassign.Assign(p)
	for _, inv := range []bool{false, true} {
		inv := inv
		name := "off"
		if inv {
			name = "on"
		}
		sys, err := machine.New(machine.Config{
			Protocol: p, Caches: 2, Dirs: 1, Addrs: 1,
			VN: a.VN, NumVNs: a.NumVNs, Invariants: inv,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mc.Check(sys, mc.Options{DisableTraces: true})
				if res.Outcome != mc.Complete {
					b.Fatal(res)
				}
			}
		})
	}
}
