package mc_test

import (
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
