package mc_test

import (
	"fmt"
	"reflect"
	"testing"

	"minvn/internal/icn"
	"minvn/internal/mc"
)

// TestRawCacheParity: on every row of the parity suite, traces on and
// off, exact and compact, the sequential search with the raw cache is
// the search without it — Result and Snapshot, less the cache's hit
// count, its table's bytes and the clocks — and profiles the same
// occupancy. The search with the cache runs on 256-byte log chunks, so
// that traces-off runs release chunks that entries still point into.
// The rows up to 4,000 states run again with raw hashes narrowed to four
// bits, so that every tag matches and only the byte compare tells a
// duplicate from a collision. With traces off, a row MaxStates does not
// cut runs again as a one-owner Partition under the same switches, which
// must be that search, raw-cache hits and all.
func TestRawCacheParity(t *testing.T) {
	for _, tc := range parityCases {
		sys := paritySystem(t, tc.proto, tc.vnMode, tc.size[0], tc.size[1], tc.size[2])
		for _, store := range []mc.Store{mc.StoreExact, mc.StoreCompact} {
			for _, traces := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%s/traces=%v", tc.name, store, traces), func(t *testing.T) {
					opts := tc.opts
					opts.Store, opts.DisableTraces = store, !traces
					run := func(on bool, mask uint64) (mc.Result, *icn.OccupancyStats) {
						mc.WithRawCache(t, on, mask)
						prof := sys.NewOccupancyProfiler()
						o := opts
						o.Observer = prof
						return mc.Check(sys, o), prof.Stats()
					}
					want, wantOcc := run(false, ^uint64(0))
					check := func(name string, got mc.Result, occ *icn.OccupancyStats) {
						t.Helper()
						if w, g := mc.RawCacheComparable(want), mc.RawCacheComparable(got); !reflect.DeepEqual(w, g) {
							t.Fatalf("%s: with the raw cache %v %+v, without %v %+v", name, g, g.Stats, w, w.Stats)
						}
						if !occ.Equal(wantOcc) {
							t.Fatalf("%s: occupancy differs with the raw cache", name)
						}
					}
					if want.States <= 4000 {
						got, occ := run(true, mc.NarrowRawHash)
						check("narrowed hashes", got, occ)
					}
					mc.WithLogChunk(t, 256)
					got, occ := run(true, ^uint64(0))
					if got.States > 100 && got.Stats.Health.RawHits == 0 {
						t.Fatalf("no successor was settled from the raw cache in %d states", got.States)
					}
					check("256-byte log chunks", got, occ)
					if !traces && !cutMidLevel(tc) {
						part, res := onePartition(t, sys, opts)
						assertPartitionIsSeq(t, got, part, res)
					}
				})
			}
		}
	}
}
