package mc_test

import (
	"reflect"
	"runtime"
	"testing"

	"minvn/internal/mc"
)

// TestResidentBytesPerState is the ceiling on what the search core holds
// and allocates per stored state at the paper's configuration, so the
// state log's gain cannot silently erode. Both numbers are counts read
// off the structures (Health.SetBytes + Health.FrontierBytes) and the
// allocator, so they hold on a loaded box; the ceilings are 1.15x what
// the code held with the open-addressed index (159.8 B for BFS without
// traces, 193.0 B for DFS with them, slot tables counted at their
// length); both runs made 0.03 mallocs per state, against 1.03 when
// every stored state was a heap object of its own.
func TestResidentBytesPerState(t *testing.T) {
	sys := paritySystem(t, "MSI_nonblocking_cache", "minimal", 3, 2, 2)
	for _, tc := range []struct {
		name             string
		opts             mc.Options
		maxBytes, maxMal float64
	}{
		{"bfs-notraces", mc.Options{MaxStates: 100_000, DisableTraces: true}, 184, 0.1},
		{"dfs-traces", mc.Options{MaxStates: 100_000, Strategy: mc.DFS}, 222, 0.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res := mc.Check(sys, tc.opts)
			runtime.ReadMemStats(&after)
			if res.Outcome != mc.Bounded || res.States != 100_000 {
				t.Fatalf("unexpected run: %v", res)
			}
			h := res.Stats.Health
			perState := float64(h.SetBytes+h.FrontierBytes) / float64(res.States)
			t.Logf("%.1f B held per stored state (set %d + frontier %d)", perState, h.SetBytes, h.FrontierBytes)
			if perState > tc.maxBytes {
				t.Errorf("%.1f B held per stored state, ceiling %.0f", perState, tc.maxBytes)
			}
			if raceEnabled {
				return // sync.Pool drops items under the race detector
			}
			mallocs := float64(after.Mallocs-before.Mallocs) / float64(res.States)
			t.Logf("%.3f mallocs per stored state", mallocs)
			if mallocs > tc.maxMal {
				t.Errorf("%.3f mallocs per stored state, ceiling %.2f", mallocs, tc.maxMal)
			}
		})
	}
}

// TestPipelineAllocsPerState is the ceiling on what a 2-worker pipeline
// allocates per stored state at the paper's configuration beyond what
// the sequential engine allocates on the same search: its batches and
// their arenas are recycled, so once the pool is warm only the
// structures both engines grow allocate. (The ceiling is on the excess
// because the exact store's own arena chunks cost ~0.03 mallocs per
// state on either engine.) Each run must also agree with the sequential
// one and fire the same rules.
func TestPipelineAllocsPerState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	sys := paritySystem(t, "CHI", "minimal", 3, 2, 2)
	mallocsPerState := func(run func() mc.Result) (mc.Result, float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := run()
		runtime.ReadMemStats(&after)
		return res, float64(after.Mallocs-before.Mallocs) / float64(res.States)
	}
	for _, store := range []mc.Store{mc.StoreCompact, mc.StoreExact} {
		t.Run(store.String(), func(t *testing.T) {
			opts := mc.Options{MaxStates: 100_000, DisableTraces: true, Store: store}
			seq, seqMal := mallocsPerState(func() mc.Result { return mc.Check(sys, opts) })
			pip, pipMal := mallocsPerState(func() mc.Result { return mc.CheckPipelined(sys, opts, 2, 0) })
			if pip.Outcome != mc.Bounded || !mc.Agree(pip, seq) {
				t.Fatalf("pipeline %v, seq %v", pip, seq)
			}
			if !reflect.DeepEqual(pip.Stats.RuleFirings, seq.Stats.RuleFirings) {
				t.Fatalf("rule firings: pipeline %v, seq %v", pip.Stats.RuleFirings, seq.Stats.RuleFirings)
			}
			t.Logf("mallocs per stored state: pipeline %.4f, seq %.4f", pipMal, seqMal)
			if pipMal-seqMal > 0.02 {
				t.Errorf("the pipeline makes %.4f mallocs per stored state beyond seq's, ceiling 0.02", pipMal-seqMal)
			}
		})
	}
}

// TestSmallSearchFootprint is the ceiling on what one small search
// allocates — a cold vnserved verify, or one step of a campaign of many
// small complete searches — where the costs that do not grow with the
// states dominate. The ceilings are about 1.25x what one table over one
// arena, with the small raw cache from the first state, made: 135
// mallocs and 513 KB a search. 64 table shards made 546 and 660 KB, and
// a search this size never reached the raw cache.
func TestSmallSearchFootprint(t *testing.T) {
	sys := paritySystem(t, "MSI_nonblocking_cache", "minimal", 2, 1, 1)
	opts := mc.Options{MaxStates: 3000}
	const runs = 20
	mc.Check(sys, opts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var res mc.Result
	for range runs {
		res = mc.Check(sys, opts)
	}
	runtime.ReadMemStats(&after)
	if res.Outcome != mc.Bounded || res.States != 3000 {
		t.Fatalf("unexpected run: %v", res)
	}
	if res.Stats.Health.RawHits == 0 {
		t.Error("no successor was settled from the raw cache")
	}
	if raceEnabled {
		return // sync.Pool drops items under the race detector
	}
	mallocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.1f mallocs and %.0f bytes a search; %d raw hits of %d successors", mallocs, bytes, res.Stats.Health.RawHits, res.Stats.Generated)
	if mallocs > 170 {
		t.Errorf("%.1f mallocs a search, ceiling 170", mallocs)
	}
	if bytes > 640<<10 {
		t.Errorf("%.0f bytes a search, ceiling %d", bytes, 640<<10)
	}
}
