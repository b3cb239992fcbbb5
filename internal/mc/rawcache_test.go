package mc

import (
	"fmt"
	"reflect"
	"testing"

	"minvn/internal/machine"
	"minvn/internal/obs/health"
	"minvn/internal/protocols"
)

// narrowRawHash keeps four bits of every raw hash: sixteen entries in
// use, and most tag matches are collisions that only the byte compare
// rejects.
const narrowRawHash = uint64(0xf) << 60

// withRawCache sets the raw cache's switch and hash mask for the rest of
// t, and has the large table in place of the small one from the first
// expansion on, so that small searches use both. Tests that call it must not run in parallel
// with anything that searches.
func withRawCache(t testing.TB, on bool, mask uint64) {
	t.Helper()
	oldOn, oldMask, oldFrom := rawCacheOn, rawHashMask, rawCacheFrom
	rawCacheOn, rawHashMask, rawCacheFrom = on, mask, 1
	t.Cleanup(func() { rawCacheOn, rawHashMask, rawCacheFrom = oldOn, oldMask, oldFrom })
}

// rawCacheComparable is r less what the raw cache may change: its hit
// count, the bytes its table holds (FrontierBytes), and the clocks.
func rawCacheComparable(r Result) Result {
	r.Duration = 0
	s := &r.Stats
	s.ElapsedSeconds, s.StatesPerSec, s.HeapBytes = 0, 0, 0
	if s.Health != nil {
		h := *s.Health
		h.RawHits, h.FrontierBytes = 0, 0
		h.Workers = append([]health.WorkerStats(nil), h.Workers...)
		for i := range h.Workers {
			h.Workers[i].ExpandNS = 0
		}
		s.Health = &h
	}
	return r
}

// checkWithRawCache runs m under opts with the raw cache off, then on
// with each hash mask, and requires the same Result and Snapshot and
// the same observed states. It returns the raw hits of the full-mask
// run.
func checkWithRawCache(t *testing.T, name string, m Model, opts Options) int64 {
	t.Helper()
	run := func(on bool, mask uint64) (Result, [][]byte) {
		withRawCache(t, on, mask)
		obs := new(recorder)
		o := opts
		o.Observer = obs
		return Check(m, o), obs.seen
	}
	want, wantSeen := run(false, ^uint64(0))
	if want.Stats.Health.RawHits != 0 {
		t.Fatalf("%s: %d raw hits with the raw cache off", name, want.Stats.Health.RawHits)
	}
	var hits int64
	for _, mask := range []uint64{^uint64(0), narrowRawHash} {
		got, seen := run(true, mask)
		if mask == ^uint64(0) {
			hits = got.Stats.Health.RawHits
		}
		if w, g := rawCacheComparable(want), rawCacheComparable(got); !reflect.DeepEqual(w, g) {
			t.Fatalf("%s mask %#x: with the raw cache\n%v %+v %+v\nwithout\n%v %+v %+v",
				name, mask, g, g.Stats, *g.Stats.Health, w, w.Stats, *w.Stats.Health)
		}
		if !reflect.DeepEqual(seen, wantSeen) {
			t.Fatalf("%s mask %#x: observed states differ with the raw cache", name, mask)
		}
	}
	return hits
}

// rawCacheModels are the searches the raw cache is held to: two toy
// models whose successors are mostly byte-equal to states stored an
// expansion or two earlier, and a symmetry-reduced protocol system,
// whose raw successors are not their canonical forms.
func rawCacheModels(t *testing.T) map[string]Model {
	p := protocols.MustLoad("CHI")
	vn, n := machine.PerMessageVN(p)
	sys, err := machine.New(machine.Config{Protocol: p, Caches: 2, Dirs: 1, Addrs: 1, VN: vn, NumVNs: n})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Model{
		"counter": &counter{n: 1 << 20, branch: true, quiet: -1, bad: -1, errAt: -1},
		"wide":    &wideModel{levels: 1 << 20, width: 10},
		"CHI":     sys,
	}
}

// rawCacheStores are the store settings: exact, compact at its default
// budget, and compact on a 64-byte budget, so most states are stored
// bare and a known duplicate must replay a conflated verdict.
var rawCacheStores = []struct {
	name   string
	store  Store
	budget int64
}{
	{"exact", StoreExact, 0},
	{"compact", StoreCompact, compactVerifiedBudget},
	{"compact-64B", StoreCompact, 64},
}

// TestRawCacheBounds: the raw cache changes no answer where a batch is
// cut. Every MaxStates up to 64 cuts some expansion, with known
// successors after the limiting insert that must not be settled, and
// every node-id limit up to 64 raises a CapacityError part-way
// through a batch, with known successors on both sides of the offending
// one. Each run must be the run without the cache, Snapshot and all.
// 256-byte log chunks have traces-off runs release chunks that entries
// still point into.
func TestRawCacheBounds(t *testing.T) {
	for name, m := range rawCacheModels(t) {
		for _, st := range rawCacheStores {
			for _, traces := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%s/traces=%v", name, st.name, traces), func(t *testing.T) {
					withCap(t, &compactVerifiedBudget, st.budget)
					withChunk(t, 256)
					opts := Options{Store: st.store, DisableTraces: !traces}
					var hits int64
					for n := 1; n <= 64; n++ {
						o := opts
						o.MaxStates = n
						hits += checkWithRawCache(t, fmt.Sprintf("MaxStates %d", n), m, o)
					}
					for n := int64(1); n <= 64; n++ {
						withCap(t, &maxNodeID, n)
						hits += checkWithRawCache(t, fmt.Sprintf("maxNodeID %d", n), m, opts)
					}
					if hits == 0 {
						t.Fatal("no successor was settled from the raw cache")
					}
				})
			}
		}
	}
}

// TestRawCacheLentBytes is TestLentBytes for the raw cache: on 256-byte
// log chunks, released and recycled every few expansions, entries point
// into chunks that are gone or hold other states, and the search must
// still be the one without the cache, on full-size chunks.
func TestRawCacheLentBytes(t *testing.T) {
	for name, m := range map[string]Model{
		"deadlock": &counter{n: 3000, branch: true, quiet: -1, bad: 2999, errAt: -1},
		"wide":     &wideModel{levels: 12, width: 700},
		"CHI":      rawCacheModels(t)["CHI"],
	} {
		for _, traces := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/traces=%v", name, traces), func(t *testing.T) {
				withRawCache(t, false, ^uint64(0))
				ref := new(recorder)
				opts := Options{DisableTraces: !traces, MaxStates: 20_000, Observer: ref}
				want := rawCacheComparable(Check(m, opts))
				withChunk(t, 256)
				var hits int64
				for _, mask := range []uint64{^uint64(0), narrowRawHash} {
					withRawCache(t, true, mask)
					obs := new(recorder)
					opts.Observer = obs
					res := Check(m, opts)
					hits += res.Stats.Health.RawHits
					if got := rawCacheComparable(res); !reflect.DeepEqual(got, want) {
						t.Fatalf("mask %#x: %v, without the raw cache %v", mask, got, want)
					}
					if !reflect.DeepEqual(obs.seen, ref.seen) {
						t.Fatalf("mask %#x: observed states differ", mask)
					}
				}
				if hits == 0 {
					t.Fatal("no successor was settled from the raw cache")
				}
			})
		}
	}
}
