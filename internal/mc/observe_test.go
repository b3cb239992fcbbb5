package mc_test

// Observability parity: tracing and occupancy profiling are strictly
// passive. With them enabled, every engine must report the identical
// outcome, state count, depth, and rule count as a bare run — and the
// occupancy aggregate itself must be identical across engines, because
// they store the same state set in the same storage order.

import (
	"bytes"
	"testing"

	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/obs/trace"
	"minvn/internal/obs/trace/tracetest"
	"minvn/internal/protocols"
)

// TestOccupancyParityAllProtocols sweeps every built-in protocol and
// requires both engines to produce bit-identical occupancy
// aggregates, with results unchanged from an unobserved run.
func TestOccupancyParityAllProtocols(t *testing.T) {
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
			bare := mc.Check(sys, opts)

			run := func(check func(o mc.Options) mc.Result) (mc.Result, *machine.OccupancyProfiler) {
				prof := sys.NewOccupancyProfiler()
				o := opts
				o.Observer = prof
				return check(o), prof
			}
			seq, seqProf := run(func(o mc.Options) mc.Result { return mc.Check(sys, o) })
			pip, pipProf := run(func(o mc.Options) mc.Result { return mc.CheckPipelined(sys, o, 4, 0) })

			for _, eng := range []struct {
				name string
				res  mc.Result
			}{{"seq", seq}, {"pipeline", pip}} {
				if eng.res.Outcome != bare.Outcome || eng.res.States != bare.States ||
					eng.res.MaxDepth != bare.MaxDepth || eng.res.Rules != bare.Rules {
					t.Fatalf("%s observed run diverges from bare run:\nbare %v\ngot  %v",
						eng.name, bare, eng.res)
				}
			}

			seqStats := seqProf.Stats()
			if seqStats.StatesObserved != int64(bare.States) {
				t.Fatalf("observer saw %d states, checker stored %d",
					seqStats.StatesObserved, bare.States)
			}
			if !seqStats.Equal(pipProf.Stats()) {
				t.Fatalf("pipeline occupancy diverges from seq:\nseq %+v\npip %+v",
					seqStats, pipProf.Stats())
			}

			// The summarizing-observer hook embeds the aggregate in the
			// final snapshot.
			if seq.Stats.Occupancy == nil {
				t.Fatal("final snapshot has no occupancy summary")
			}
		})
	}
}

// TestTraceExportFromEngines runs each engine under the flight recorder
// and validates the exported document: well-formed Chrome trace JSON,
// per-lane monotone timestamps, and the event vocabulary the engines
// advertise.
func TestTraceExportFromEngines(t *testing.T) {
	p := protocols.MustLoad("MSI_nonblocking_cache")
	vn, n := machine.PerMessageVN(p)
	sys, err := machine.New(machine.Config{
		Protocol: p, Caches: 2, Dirs: 1, Addrs: 1, VN: vn, NumVNs: n,
	})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name      string
		check     func(o mc.Options) mc.Result
		spanName  string // per-work span emitted by the engine
		wantLanes int    // minimum lanes expected in the export
	}{
		{"seq", func(o mc.Options) mc.Result { return mc.Check(sys, o) }, "expand", 1},
		{"pipeline", func(o mc.Options) mc.Result { return mc.CheckPipelined(sys, o, 3, 0) }, "batch", 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rec := trace.New(trace.Config{})
			opts := mc.Options{
				MaxStates: 800,
				Trace:     rec,
				Progress:  func(mc.Snapshot) {}, ProgressEvery: 200,
			}
			res := tc.check(opts)
			if res.Outcome != mc.Bounded {
				t.Fatalf("expected a bounded run, got %v", res)
			}

			var buf bytes.Buffer
			if err := rec.Export(&buf); err != nil {
				t.Fatal(err)
			}
			evs := tracetest.Validate(t, buf.Bytes())
			if len(tracetest.Named(evs, tc.spanName)) == 0 {
				t.Fatalf("%s export has no %q spans", tc.name, tc.spanName)
			}
			if len(tracetest.Named(evs, "outcome/bounded")) != 1 {
				t.Fatalf("%s export lacks the outcome instant", tc.name)
			}
			if len(tracetest.Named(evs, "progress")) == 0 {
				t.Fatalf("%s export has no progress instants", tc.name)
			}
			if lanes := len(tracetest.Named(evs, "thread_name")); lanes < tc.wantLanes {
				t.Fatalf("%s export has %d lanes, want at least %d", tc.name, lanes, tc.wantLanes)
			}
		})
	}
}

// TestTraceAndObserverDoNotPerturb pins the passivity contract on a
// deadlocking run: with tracing and an observer attached, the search
// produces the identical result — including the counterexample trace —
// as a bare run.
func TestTraceAndObserverDoNotPerturb(t *testing.T) {
	p := protocols.MustLoad("MSI_class1") // deadlocks under any assignment
	vn, n := machine.PerMessageVN(p)
	sys, err := machine.New(machine.Config{
		Protocol: p, Caches: 2, Dirs: 1, Addrs: 1, VN: vn, NumVNs: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := mc.Options{MaxStates: 500_000}
	bare := mc.Check(sys, opts)
	if bare.Outcome != mc.Deadlock {
		t.Fatalf("expected MSI_class1 to deadlock, got %v", bare)
	}
	obsOpts := opts
	obsOpts.Trace = trace.New(trace.Config{LaneCapacity: 64, SampleEvery: 10})
	obsOpts.Observer = sys.NewOccupancyProfiler()
	obsRun := mc.Check(sys, obsOpts)
	if obsRun.Outcome != bare.Outcome || obsRun.States != bare.States ||
		obsRun.MaxDepth != bare.MaxDepth || obsRun.Rules != bare.Rules {
		t.Fatalf("observed run diverges: bare %v vs %v", bare, obsRun)
	}
	if len(obsRun.Trace) != len(bare.Trace) {
		t.Fatalf("trace length diverges: %d vs %d", len(bare.Trace), len(obsRun.Trace))
	}
	for i := range bare.Trace {
		if !bytes.Equal(bare.Trace[i], obsRun.Trace[i]) {
			t.Fatalf("counterexample diverges at step %d", i)
		}
	}
}
