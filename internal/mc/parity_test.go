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
	"testing"
	"time"

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

func TestParallelParityProtocols(t *testing.T) {
	cases := []struct {
		name   string
		proto  string
		vnMode string
		opts   mc.Options
	}{
		{"MSI-minimal-bounded", "MSI_nonblocking_cache", "minimal",
			mc.Options{MaxStates: 4000, DisableTraces: true}},
		{"MSI-minimal-traces", "MSI_nonblocking_cache", "minimal",
			mc.Options{MaxStates: 2500}},
		{"MESI-minimal-bounded", "MESI_nonblocking_cache", "minimal",
			mc.Options{MaxStates: 4000, DisableTraces: true}},
		{"MESI-uniform-depth", "MESI_nonblocking_cache", "uniform",
			mc.Options{MaxDepth: 3, DisableTraces: true}},
		{"MOESI-minimal-bounded", "MOESI_nonblocking_cache", "minimal",
			mc.Options{MaxStates: 3000, DisableTraces: true}},
		{"CHI-permsg-bounded", "CHI", "permsg",
			mc.Options{MaxStates: 2000, DisableTraces: true}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sys := paritySystem(t, tc.proto, tc.vnMode, 2, 1, 1)
			seq := mc.Check(sys, tc.opts)

			// The progress callback runs on the pipeline's merge
			// goroutine; -race verifies it never races with workers.
			popts := tc.opts
			snaps := 0
			popts.Progress = func(mc.Snapshot) { snaps++ }
			popts.ProgressEvery = 500
			pip := mc.CheckPipelined(sys, popts, 4, 0)

			for _, eng := range []struct {
				name string
				res  mc.Result
			}{{"pipeline", pip}} {
				if seq.Outcome != eng.res.Outcome {
					t.Fatalf("%s outcome: seq %v vs %v", eng.name, seq.Outcome, eng.res.Outcome)
				}
				if seq.States != eng.res.States {
					t.Fatalf("%s states: seq %d vs %d", eng.name, seq.States, eng.res.States)
				}
				if seq.MaxDepth != eng.res.MaxDepth {
					t.Fatalf("%s depth: seq %d vs %d", eng.name, seq.MaxDepth, eng.res.MaxDepth)
				}
				if seq.Rules != eng.res.Rules {
					t.Fatalf("%s rules: seq %d vs %d", eng.name, seq.Rules, eng.res.Rules)
				}
				if !eng.res.Stats.Final || eng.res.Stats.States != eng.res.States {
					t.Fatalf("%s Stats inconsistent: %+v", eng.name, eng.res.Stats)
				}
			}
			if snaps == 0 {
				t.Fatal("parallel runs delivered no progress snapshots")
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
		{"pipeline-ctx", mc.CheckPipelinedCtx(bg, sys, opts, 4, 0)},
		{"engine-ctx", mc.CheckEngineCtx(bg, sys, opts, mc.EnginePipeline, 4, 0)},
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
		{"pipeline", func(ctx context.Context) mc.Result { return mc.CheckPipelinedCtx(ctx, big, unbounded, 4, 0) }},
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
			pip := mc.CheckPipelined(sys, opts, 4, 8)
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
