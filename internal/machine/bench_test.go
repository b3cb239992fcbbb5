package machine

import (
	"fmt"
	"testing"

	"minvn/internal/mc"
	"minvn/internal/protocol"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

func benchSystem(b *testing.B, proto string, caches, dirs, addrs int, noSym bool) *System {
	b.Helper()
	p := protocols.MustLoad(proto)
	a := vnassign.Assign(p)
	vn, n := a.VN, a.NumVNs
	if vn == nil {
		vn, n = PerMessageVN(p)
	}
	sys, err := New(Config{
		Protocol: p, Caches: caches, Dirs: dirs, Addrs: addrs,
		VN: vn, NumVNs: n, GlobalCap: 2, LocalCap: 2, NoSymmetry: noSym,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// paperSystem builds the paper's verification cell (§VII-A): proto at
// 2 directories and 2 addresses under its minimal assignment, with the
// default (footnote 5) buffer capacities.
func paperSystem(tb testing.TB, proto string, caches int) *System {
	tb.Helper()
	p := protocols.MustLoad(proto)
	a := vnassign.Assign(p)
	sys, err := New(Config{Protocol: p, Caches: caches, Dirs: 2, Addrs: 2, VN: a.VN, NumVNs: a.NumVNs})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// perMessageSystem builds the Class 2 cell of Table I: MSI_blocking_cache
// at 3c/2d/2a with one VN per message — 13 VNs, so 91 queues a state.
func perMessageSystem(tb testing.TB) *System {
	tb.Helper()
	p := protocols.MustLoad("MSI_blocking_cache")
	vn, n := PerMessageVN(p)
	sys, err := New(Config{Protocol: p, Caches: 3, Dirs: 2, Addrs: 2, VN: vn, NumVNs: n})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// benchCorpus samples 512 of the first 65,536 states a search of sys
// stores, evenly: raw successors from the shallow symmetric levels up
// to levels with a handful of messages in flight.
func benchCorpus(sys *System) [][]byte {
	all := bfsStates(sys, 65536)
	var out [][]byte
	for i := 0; i < len(all); i += len(all) / 512 {
		out = append(out, all[i])
	}
	return out
}

// BenchmarkSuccessors measures expansion over a corpus of reachable
// states of the paper's cell.
func BenchmarkSuccessors(b *testing.B) {
	sys := paperSystem(b, "MSI_nonblocking_cache", 3)
	corpus := benchCorpus(sys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Successors(corpus[i%len(corpus)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpand is BenchmarkSuccessors through the visitor the search
// runs on: the same corpus, nothing copied out — and the same at 13 VNs
// (MSI_blocking_cache, one VN per message), where a state holds 91
// queues and a successor changes a few of them.
func BenchmarkExpand(b *testing.B) {
	for _, sys := range []*System{paperSystem(b, "MSI_nonblocking_cache", 3), perMessageSystem(b)} {
		corpus := benchCorpus(sys)
		b.Run(fmt.Sprintf("vn%d", sys.Config().NumVNs), func(b *testing.B) {
			var bytes int
			visit := func(succ []byte, _ int) { bytes += len(succ) }
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Expand(corpus[i%len(corpus)], visit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOccupancyObserve measures the occupancy observer's cost per
// stored state over the same corpus, at 13 VNs (MSI_blocking_cache, one
// VN per message) as well as at the minimal 2.
func BenchmarkOccupancyObserve(b *testing.B) {
	for _, sys := range []*System{paperSystem(b, "MSI_nonblocking_cache", 3), perMessageSystem(b)} {
		corpus := benchCorpus(sys)
		b.Run(fmt.Sprintf("vn%d", sys.Config().NumVNs), func(b *testing.B) {
			prof := sys.NewOccupancyProfiler()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prof.Observe(corpus[i%len(corpus)])
			}
		})
	}
}

// benchCanonical runs canon over a corpus of the paper's cell at 3
// caches (6 permutations) and at 4 (24), and of the 13-VN cell.
func benchCanonical(b *testing.B, canon func(sys *System, raw []byte)) {
	for _, c := range []struct {
		name string
		sys  *System
	}{
		{"3c", paperSystem(b, "MSI_nonblocking_cache", 3)},
		{"4c", paperSystem(b, "MSI_nonblocking_cache", 4)},
		{"vn13", perMessageSystem(b)},
	} {
		sys, corpus := c.sys, benchCorpus(c.sys)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				canon(sys, corpus[i%len(corpus)])
			}
		})
	}
}

// BenchmarkCanonicalize measures the symmetry-reduction hook over the
// same kind of corpus.
func BenchmarkCanonicalize(b *testing.B) {
	benchCanonical(b, func(sys *System, raw []byte) { sys.Canonicalize(raw) })
}

// BenchmarkAppendCanonical is BenchmarkCanonicalize into a warm buffer,
// as the search calls it.
func BenchmarkAppendCanonical(b *testing.B) {
	var key []byte
	benchCanonical(b, func(sys *System, raw []byte) {
		if ck := sys.AppendCanonical(key, raw); &ck[0] != &raw[0] {
			key = ck[:0]
		}
	})
}

// TestExpansionAllocations is the allocation budget of the calls a
// search makes per state and per successor, on a fixed mid-exploration
// state of the paper's cell and of the 13-VN cell (whose successors are
// spliced around many more queues): Expand and AppendCanonical into a
// warm buffer allocate nothing; of the collecting forms, SuccessorsNamed
// allocates its two result slices and the bytes of each successor it
// returns (one spare for a pool refill after a GC), Canonicalize at most
// the copy it returns. Counts, unlike timings, are deterministic on a
// loaded box.
func TestExpansionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for _, sys := range []*System{paperSystem(t, "MSI_nonblocking_cache", 3), perMessageSystem(t)} {
		t.Run(fmt.Sprintf("vn%d", sys.Config().NumVNs), func(t *testing.T) {
			states := bfsStates(sys, 5000)
			raw := states[len(states)-1]
			succs, _, err := sys.SuccessorsNamed(raw)
			if err != nil || len(succs) < 4 {
				t.Fatalf("fixture state has %d successors, err %v", len(succs), err)
			}
			if got, max := testing.AllocsPerRun(200, func() { sys.SuccessorsNamed(raw) }), float64(len(succs)+3); got > max {
				t.Errorf("SuccessorsNamed: %v allocations for %d successors, budget %v", got, len(succs), max)
			}
			if got := testing.AllocsPerRun(200, func() { sys.Canonicalize(raw) }); got > 1 {
				t.Errorf("Canonicalize: %v allocations, budget 1", got)
			}
			visit := func([]byte, int) {}
			if got := testing.AllocsPerRun(200, func() { sys.Expand(raw, visit) }); got != 0 {
				t.Errorf("Expand: %v allocations, budget 0", got)
			}
			// A successor the identity does not win on, so the buffer is written.
			var moved []byte
			for _, s := range succs {
				if ck := sys.Canonicalize(s); &ck[0] != &s[0] {
					moved = s
				}
			}
			if moved == nil {
				t.Fatal("fixture state has no successor that canonicalization relabels")
			}
			key := make([]byte, 0, len(moved))
			if got := testing.AllocsPerRun(200, func() { sys.AppendCanonical(key, moved) }); got != 0 {
				t.Errorf("AppendCanonical into a warm buffer: %v allocations, budget 0", got)
			}
		})
	}
}

// Ablation (DESIGN.md §5.3): DFS vs BFS for finding the Class 2
// deadlock of MSI-with-blocking-cache.
func BenchmarkDeadlockSearchStrategy(b *testing.B) {
	p := protocols.MustLoad("MSI_blocking_cache")
	vn, n := PerMessageVN(p)
	sys, err := New(Config{
		Protocol: p, Caches: 3, Dirs: 2, Addrs: 2,
		VN: vn, NumVNs: n, GlobalCap: 2, LocalCap: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	sc := NewScenario(sys)
	for i := 0; i < 2; i++ {
		if err := sc.Core(i, i, protocol.Store); err != nil {
			b.Fatal(err)
		}
		if err := sc.Handle(3+i, "GetM", i); err != nil {
			b.Fatal(err)
		}
		if err := sc.Handle(i, "Data", i); err != nil {
			b.Fatal(err)
		}
	}
	seed := sc.State()
	for _, strat := range []mc.Strategy{mc.DFS, mc.BFS} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mc.Check(&Seeded{System: sys, Seeds: [][]byte{seed}},
					mc.Options{Strategy: strat, MaxStates: 400_000, DisableTraces: true})
				// BFS may exhaust its budget before the deep deadlock;
				// report what happened instead of failing.
				if res.Outcome == mc.Deadlock {
					b.ReportMetric(1, "found")
				} else {
					b.ReportMetric(0, "found")
				}
				b.ReportMetric(float64(res.States), "states")
			}
		})
	}
}

// Ablation (DESIGN.md §5.4): symmetry reduction on vs off.
func BenchmarkSymmetryReduction(b *testing.B) {
	for _, mode := range []struct {
		name  string
		noSym bool
	}{{"on", false}, {"off", true}} {
		sys := benchSystem(b, "MSI_nonblocking_cache", 2, 1, 1, mode.noSym)
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mc.Check(sys, mc.Options{MaxStates: 2_000_000, DisableTraces: true})
				if res.Outcome != mc.Complete {
					b.Fatalf("unexpected outcome %v", res)
				}
				b.ReportMetric(float64(res.States), "states")
			}
		})
	}
}

// Ablation (DESIGN.md §5.5): ICN buffer capacity sweep — the Class 2
// deadlock manifests already at the smallest capacities.
func BenchmarkBufferCapacitySweep(b *testing.B) {
	p := protocols.MustLoad("MSI_blocking_cache")
	vn, n := PerMessageVN(p)
	for _, cap := range []int{1, 2, 3} {
		sys, err := New(Config{
			Protocol: p, Caches: 3, Dirs: 2, Addrs: 2,
			VN: vn, NumVNs: n, GlobalCap: cap, LocalCap: cap,
		})
		if err != nil {
			b.Fatal(err)
		}
		sc := NewScenario(sys)
		for i := 0; i < 2; i++ {
			if err := sc.Core(i, i, protocol.Store); err != nil {
				b.Fatal(err)
			}
			if err := sc.Handle(3+i, "GetM", i); err != nil {
				b.Fatal(err)
			}
			if err := sc.Handle(i, "Data", i); err != nil {
				b.Fatal(err)
			}
		}
		seed := sc.State()
		b.Run("cap"+string(rune('0'+cap)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mc.Check(&Seeded{System: sys, Seeds: [][]byte{seed}},
					mc.Options{Strategy: mc.DFS, MaxStates: 600_000, DisableTraces: true})
				if res.Outcome != mc.Deadlock && cap >= 2 {
					b.Fatalf("cap %d: %v", cap, res)
				}
				b.ReportMetric(float64(res.States), "states")
			}
		})
	}
}

// BenchmarkEncodeDecode measures the state codec.
func BenchmarkEncodeDecode(b *testing.B) {
	sys := benchSystem(b, "CHI", 3, 2, 2, false)
	st := sys.Initial()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := sys.decode(st)
		if enc := sys.encode(dec); len(enc) != len(st) {
			b.Fatal("codec mismatch")
		}
	}
}
