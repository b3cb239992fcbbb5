package machine

import (
	"testing"

	"minvn/internal/icn"
)

// occupancyStates is how many breadth-first states of each system the
// byte walk is checked on.
const occupancyStates = 2000

// referenceOccupancy is the aggregate the profiler must produce, the
// slow way: decode every state's network and count its queues.
func referenceOccupancy(t *testing.T, sys *System, states [][]byte) *icn.OccupancyStats {
	t.Helper()
	cfg := sys.net
	ref := &icn.OccupancyStats{GlobalCap: cfg.GlobalCap, LocalCap: cfg.LocalCap,
		PerVN: make([]icn.VNOccupancy, cfg.NumVNs)}
	for vn := range ref.PerVN {
		ref.PerVN[vn] = icn.VNOccupancy{VN: vn, GlobalHist: []int64{0}, LocalHist: []int64{0}}
	}
	count := func(hist *[]int64, hw, top *int, d int) {
		for len(*hist) <= d {
			*hist = append(*hist, 0)
		}
		(*hist)[d]++
		*hw, *top = max(*hw, d), max(*top, d)
	}
	for _, raw := range states {
		net, rest, err := icn.Decode(cfg, raw[sys.netOff:])
		if err != nil || len(rest) > 0 {
			t.Fatalf("reference decode: %v (%d bytes left)", err, len(rest))
		}
		ref.StatesObserved++
		for vn := range net.Global {
			v := &ref.PerVN[vn]
			for b := 0; b < 2; b++ {
				count(&v.GlobalHist, &v.GlobalHighWater, &ref.GlobalHighWater, len(net.Global[vn][b]))
			}
		}
		for e := range net.Local {
			for vn := range net.Local[e] {
				v := &ref.PerVN[vn]
				count(&v.LocalHist, &v.LocalHighWater, &ref.LocalHighWater, len(net.Local[e][vn]))
			}
		}
	}
	return ref
}

// TestOccupancyByteWalkMatchesDecode pins the occupancy profiler, which
// reads queue lengths straight off the encoding, against decoding every
// state: on the first occupancyStates breadth-first states of every
// pinned expansion system — each built-in at 3c/2d/2a under its minimal
// and its per-message assignment (13 VNs for MSI_blocking_cache), the
// two-level MSI_under_MESI, point-to-point, tight capacities — the two
// aggregates must be equal.
func TestOccupancyByteWalkMatchesDecode(t *testing.T) {
	deepest := 0
	for _, tc := range expansionCases(t) {
		sys, err := New(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		states := bfsStates(sys, occupancyStates)
		prof := sys.NewOccupancyProfiler()
		for _, raw := range states {
			prof.Observe(raw)
		}
		got, want := prof.Stats(), referenceOccupancy(t, sys, states)
		if !got.Equal(want) {
			t.Errorf("%s: byte walk differs from decode-and-count:\n%+v\nvs\n%+v", tc.name, got, want)
		}
		deepest = max(deepest, want.GlobalHighWater, want.LocalHighWater)
	}
	if deepest < 2 {
		t.Fatalf("no queue deeper than %d in any system: the comparison is vacuous", deepest)
	}
}
