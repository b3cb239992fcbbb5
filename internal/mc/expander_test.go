package mc_test

// The search core runs on mc.Expander and lends successor bytes from the
// model's work buffer to the store path. These tests pin the two hazards
// that introduces: a consumer that keeps lent bytes past Expand's return
// (the scribbling expander makes that visible), and a second behaviour
// for models that reach the core through the collecting adapter instead
// (the hidden expander, the shape of bench's traced decorator).

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/obs/trace"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

// scribbler is a machine.System whose Expand lends each successor from a
// buffer of its own and overwrites that buffer with 0xFF as soon as the
// last visit has returned — what a pooled work buffer's next user would
// do, done at once. Anything that kept a lent slice sees garbage.
type scribbler struct{ *machine.System }

func (s scribbler) Expand(state []byte, visit func(succ []byte, rule int)) (int, error) {
	var buf []byte
	var ends, ids []int
	n, err := s.System.Expand(state, func(succ []byte, rule int) {
		buf = append(buf, succ...)
		ends, ids = append(ends, len(buf)), append(ids, rule)
	})
	if err != nil {
		return 0, err
	}
	lo := 0
	for i, hi := range ends {
		visit(buf[lo:hi:hi], ids[i])
		lo = hi
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	return n, nil
}

// hidden is a machine.System with its Expander taken away: it offers the
// engine only Model, NamedModel and Canonicalizer.
type hidden struct{ sys *machine.System }

func (h hidden) Initial() [][]byte                     { return h.sys.Initial() }
func (h hidden) Successors(s []byte) ([][]byte, error) { return h.sys.Successors(s) }
func (h hidden) Quiescent(s []byte) bool               { return h.sys.Quiescent(s) }
func (h hidden) Describe(s []byte) string              { return h.sys.Describe(s) }
func (h hidden) Canonicalize(s []byte) []byte          { return h.sys.Canonicalize(s) }
func (h hidden) SuccessorsNamed(s []byte) ([][]byte, []string, error) {
	return h.sys.SuccessorsNamed(s)
}

var (
	_ mc.Expander = scribbler{}
	_ mc.Model    = hidden{}
)

// keeper is a StateObserver that keeps a copy of every state it is shown
// (the bytes themselves are lent for the call only).
type keeper struct{ states [][]byte }

func (k *keeper) Observe(state []byte) {
	k.states = append(k.states, append([]byte(nil), state...))
}

// TestScribblingExpanderParity: through both schedulers and both stores,
// with traces on and an observer attached, a model that destroys its
// lent bytes gives the results, traces and observed states of the plain
// one — on a run that ends in a counterexample and on a bounded one.
func TestScribblingExpanderParity(t *testing.T) {
	class1 := protocols.MustLoad("MSI_class1") // deadlocks under any assignment
	vn, n := machine.PerMessageVN(class1)
	deadlocking, err := machine.New(machine.Config{Protocol: class1, Caches: 2, Dirs: 1, Addrs: 1, VN: vn, NumVNs: n})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sys  *machine.System
		opts mc.Options
		want mc.Outcome
	}{
		{"deadlock", deadlocking, mc.Options{MaxStates: 500_000}, mc.Deadlock},
		{"bounded-paper", paritySystem(t, "MSI_nonblocking_cache", "minimal", 3, 2, 2), mc.Options{MaxStates: 5000}, mc.Bounded},
	} {
		for _, store := range []mc.Store{mc.StoreExact, mc.StoreCompact} {
			for _, engine := range inProcess {
				name := tc.name + "/" + engine.name + "/" + store.String()
				run := func(m mc.Model) (mc.Result, *keeper) {
					opts := tc.opts
					opts.Store = store
					opts.Trace = trace.New(trace.Config{LaneCapacity: 64, SampleEvery: 10})
					k := new(keeper)
					opts.Observer = k
					return engine.run(context.Background(), m, opts), k
				}
				plain, plainSeen := run(tc.sys)
				got, gotSeen := run(scribbler{tc.sys})
				if plain.Outcome != tc.want || (tc.want == mc.Deadlock && len(plain.Trace) < 2) {
					t.Fatalf("%s: plain run %v with a %d-state trace, want %v (and a counterexample)", name, plain, len(plain.Trace), tc.want)
				}
				requireIdentical(t, name, plain, got)
				if !reflect.DeepEqual(plain.Stats.RuleFirings, got.Stats.RuleFirings) {
					t.Fatalf("%s rule firings: %v vs plain %v", name, got.Stats.RuleFirings, plain.Stats.RuleFirings)
				}
				if len(plainSeen.states) != plain.States || len(gotSeen.states) != len(plainSeen.states) {
					t.Fatalf("%s: observed %d states, plain run %d, stored %d", name, len(gotSeen.states), len(plainSeen.states), plain.States)
				}
				for i := range plainSeen.states {
					if !bytes.Equal(plainSeen.states[i], gotSeen.states[i]) {
						t.Fatalf("%s: observed state %d differs from the plain run's", name, i)
					}
				}
			}
		}
	}
}

// TestHiddenExpanderParity: the same system reached through the
// collecting adapter agrees with the direct run on everything a run
// reports, at the paper's configuration.
func TestHiddenExpanderParity(t *testing.T) {
	for _, tc := range []struct{ proto, vnMode string }{
		{"MSI_nonblocking_cache", "minimal"},
		{"CHI", "permsg"},
	} {
		tc := tc
		t.Run(tc.proto, func(t *testing.T) {
			t.Parallel()
			sys := paritySystem(t, tc.proto, tc.vnMode, 3, 2, 2)
			opts := mc.Options{MaxStates: 20_000, DisableTraces: true}
			for _, engine := range inProcess {
				direct := engine.run(context.Background(), sys, opts)
				adapted := engine.run(context.Background(), hidden{sys}, opts)
				name := tc.proto + "/" + engine.name
				requireIdentical(t, name, direct, adapted)
				ds, as := direct.Stats, adapted.Stats
				if len(ds.RuleFirings) == 0 || !reflect.DeepEqual(ds.RuleFirings, as.RuleFirings) {
					t.Fatalf("%s rule firings: adapted %v vs direct %v", name, as.RuleFirings, ds.RuleFirings)
				}
				if ds.Generated != as.Generated || !reflect.DeepEqual(ds.DepthHistogram, as.DepthHistogram) {
					t.Fatalf("%s: generated %d, depth histogram %v; direct %d, %v",
						name, as.Generated, as.DepthHistogram, ds.Generated, ds.DepthHistogram)
				}
				if !reflect.DeepEqual(ds.Health.StripeOccupancy, as.Health.StripeOccupancy) ||
					!reflect.DeepEqual(ds.Health.StripeDedupHits, as.Health.StripeDedupHits) {
					t.Fatalf("%s: stripe histograms differ from the direct run's", name)
				}
			}
		})
	}
}

// BenchmarkCheckSeqPaper is bench's paper_bounded_seq search in-package
// — MSI at 3c/2d/2a under the minimal assignment, 400,000 states,
// sequential, exact store, traces off, the System handed to the engine
// directly — so a -cpuprofile shows the product path per layer, which
// bench's traced repetition (it hands the engine a decorator without
// Expand) cannot.
func BenchmarkCheckSeqPaper(b *testing.B) {
	p := protocols.MustLoad("MSI_nonblocking_cache")
	a := vnassign.Assign(p)
	sys, err := machine.New(machine.Config{Protocol: p, Caches: 3, Dirs: 2, Addrs: 2, VN: a.VN, NumVNs: a.NumVNs})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := mc.Check(sys, mc.Options{MaxStates: 400_000, DisableTraces: true})
		if res.Outcome != mc.Bounded || res.States != 400_000 {
			b.Fatal(res)
		}
	}
	b.ReportMetric(400_000*float64(b.N)/b.Elapsed().Seconds(), "states/s")
}

// BenchmarkCheckPipelinedPaper is bench's paper_bounded_pipeline search
// in-package — CHI at 3c/2d/2a under the minimal assignment, 400,000
// states, 2 workers, compact store, traces off — so a -cpuprofile shows
// the pipeline's product path: the workers' collection beside the merge
// goroutine's store path.
func BenchmarkCheckPipelinedPaper(b *testing.B) {
	p := protocols.MustLoad("CHI")
	a := vnassign.Assign(p)
	sys, err := machine.New(machine.Config{Protocol: p, Caches: 3, Dirs: 2, Addrs: 2, VN: a.VN, NumVNs: a.NumVNs})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := mc.CheckPipelined(sys, mc.Options{MaxStates: 400_000, DisableTraces: true, Store: mc.StoreCompact}, 2, 0)
		if res.Outcome != mc.Bounded || res.States != 400_000 {
			b.Fatal(res)
		}
	}
	b.ReportMetric(400_000*float64(b.N)/b.Elapsed().Seconds(), "states/s")
}

// BenchmarkCheckDFSHunt is bench's deadlock_hunt_dfs search in-package —
// MSI_blocking_cache at 3c/2d/2a with one VN per message (13 VNs, 91
// queues a state), DFS from the owned seed, traces on, bound 600,000 —
// so a -cpuprofile shows where a large-network state's time goes. It must
// end in the Class 2 deadlock.
func BenchmarkCheckDFSHunt(b *testing.B) {
	p := protocols.MustLoad("MSI_blocking_cache")
	vn, n := machine.PerMessageVN(p)
	sys, err := machine.New(machine.Config{Protocol: p, Caches: 3, Dirs: 2, Addrs: 2, VN: vn, NumVNs: n})
	if err != nil {
		b.Fatal(err)
	}
	seed, err := machine.OwnedSeed(sys)
	if err != nil {
		b.Fatal(err)
	}
	model := &machine.Seeded{System: sys, Seeds: [][]byte{seed}}
	b.ReportAllocs()
	states := 0
	for i := 0; i < b.N; i++ {
		res := mc.Check(model, mc.Options{Strategy: mc.DFS, MaxStates: 600_000})
		if res.Outcome != mc.Deadlock {
			b.Fatal(res)
		}
		states += res.States
	}
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
}

// BenchmarkDFSWitnessReplay prices rebuilding a witness instead of
// keeping its states: bench's deadlock_hunt_dfs search (MSI_blocking_cache
// at 3c/2d/2a, one VN per message, DFS from the owned seed) runs once with
// traces on, outside the timer; each iteration then re-expands every
// trace state and finds the next one among its successors — what a
// search that kept only parent links and rule ids would pay to print its
// counterexample.
func BenchmarkDFSWitnessReplay(b *testing.B) {
	p := protocols.MustLoad("MSI_blocking_cache")
	vn, n := machine.PerMessageVN(p)
	sys, err := machine.New(machine.Config{Protocol: p, Caches: 3, Dirs: 2, Addrs: 2, VN: vn, NumVNs: n})
	if err != nil {
		b.Fatal(err)
	}
	seed, err := machine.OwnedSeed(sys)
	if err != nil {
		b.Fatal(err)
	}
	res := mc.Check(&machine.Seeded{System: sys, Seeds: [][]byte{seed}},
		mc.Options{Strategy: mc.DFS, MaxStates: 1_000_000})
	if res.Outcome != mc.Deadlock {
		b.Fatal(res)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for step := 0; step+1 < len(res.Trace); step++ {
			found := false
			_, err := sys.Expand(res.Trace[step], func(succ []byte, _ int) {
				found = found || bytes.Equal(succ, res.Trace[step+1])
			})
			if err != nil || !found {
				b.Fatalf("step %d: the next trace state is not a successor (err %v)", step, err)
			}
		}
	}
	b.ReportMetric(float64(len(res.Trace)-1), "steps")
}
