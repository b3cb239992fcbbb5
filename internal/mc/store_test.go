package mc

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// --- store knob ---

func TestParseStore(t *testing.T) {
	for s, want := range map[string]Store{
		"": StoreExact, "exact": StoreExact, "compact": StoreCompact,
	} {
		got, err := ParseStore(s)
		if err != nil || got != want {
			t.Errorf("ParseStore(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseStore("bogus"); err == nil {
		t.Error("ParseStore accepted a bogus store name")
	}
	if StoreExact.String() != "exact" || StoreCompact.String() != "compact" {
		t.Error("Store.String mismatch")
	}
}

// --- capacity guards (the int32/uint32 wrap bugfix) ---

// withCap temporarily lowers one of the package capacity vars. The
// guard tests must not run in parallel with anything that inserts.
func withCap(t *testing.T, v *int64, n int64) {
	t.Helper()
	old := *v
	*v = n
	t.Cleanup(func() { *v = old })
}

// eachStore runs f once per store mode, as subtests "exact" and
// "compact". One implementation serves both modes, so a store-level
// assertion is written once and holds on both: at the default budget
// the small key sets below are all retained and compact must behave
// exactly like exact.
func eachStore(t *testing.T, f func(t *testing.T, store Store)) {
	for _, store := range []Store{StoreExact, StoreCompact} {
		t.Run(store.String(), func(t *testing.T) { f(t, store) })
	}
}

// probe is a read-only single-key lookup, for tests that also want the
// id a hit resolves to.
func probe(s *VisitedStore, fp uint64, key []byte) (id int32, hit, conflated bool) {
	id, hit, conflated, _ = s.lookup(fp, key)
	return id, hit, conflated
}

// A table of maxSetSlots grows no further: 7/8 of it, here 3 of 4
// slots, is what the set stores.
func TestShardedSetEntryCapacityGuard(t *testing.T) {
	eachStore(t, func(t *testing.T, store Store) {
		withCap(t, &maxSetSlots, 4)
		s := newVisitedStore(store)
		for i := 0; i < 3; i++ {
			k := []byte(fmt.Sprintf("key-%d", i))
			if _, fresh, _, err := s.Insert(Fingerprint(k), k, int32(i)); err != nil || !fresh {
				t.Fatalf("insert %d: fresh=%v err=%v", i, fresh, err)
			}
		}
		k := []byte("key-overflow")
		_, _, _, err := s.Insert(Fingerprint(k), k, 3)
		var ce *CapacityError
		if !errors.As(err, &ce) || ce.Limit != "set slots" || ce.Max != 4 {
			t.Fatalf("overflow insert: err=%v", err)
		}
		// The failed insert must not have stored anything.
		if st := s.st; st.entries != 3 {
			t.Fatalf("entries after failed insert: %d", st.entries)
		}
		// Duplicates of stored keys still resolve (no capacity consumed).
		k0 := []byte("key-0")
		if id, fresh, _, err := s.Insert(Fingerprint(k0), k0, 9); err != nil || fresh || id != 0 {
			t.Fatalf("dup insert at capacity: id=%d fresh=%v err=%v", id, fresh, err)
		}
	})
}

// The arena's segment boundary: the chunk index is what the packed
// uint32 location can run out of, so a key that needs a chunk more than
// a segment holds starts the next segment, keyed by the key's id, and
// every key still resolves. A record is the key behind its uvarint
// length, two bytes for these big keys and one for small ones.
func TestShardedSetArenaCapacityGuard(t *testing.T) {
	eachStore(t, func(t *testing.T, store Store) {
		withCap(t, &maxSegChunks, 2)
		s := newVisitedStore(store)
		a, b := make([]byte, arenaChunk-11), make([]byte, arenaChunk-11) // 9 bytes left in each chunk
		a[0], b[0] = 'a', 'b'
		keys := [][]byte{
			a, b,
			[]byte("ccccccccc"), // a 10-byte record: neither chunk's 9-byte remainder holds it
			[]byte("dddddddd"),  // a 9-byte record, behind it in the new segment
		}
		for i, k := range keys {
			if _, fresh, _, err := s.Insert(Fingerprint(k), k, int32(i)); err != nil || !fresh {
				t.Fatalf("insert %d: fresh=%v err=%v", i, fresh, err)
			}
		}
		if len(s.segs) != 2 || s.segs[1].first != 2 || len(s.segs[0].chunks) != 2 || len(s.segs[1].chunks) != 1 {
			t.Fatalf("%d segments, the second from id %d", len(s.segs), s.segs[len(s.segs)-1].first)
		}
		for i, k := range keys {
			if id, hit, _ := probe(s, Fingerprint(k), k); !hit || id != int32(i) {
				t.Fatalf("probe %d: id=%d hit=%v", i, id, hit)
			}
		}
		// A batch crosses segments as single inserts do: with one chunk to
		// a segment, each half-chunk-plus-one key starts one.
		withCap(t, &maxSegChunks, 1)
		s = newVisitedStore(store)
		reqs := make([]insertReq, 3)
		for i := range reqs {
			k := make([]byte, arenaChunk/2+1)
			k[0] = byte('p' + i)
			reqs[i] = insertReq{fp: Fingerprint(k), key: k}
		}
		if processed, fresh, err := s.insertBatch(reqs, 0, -1); err != nil || processed != 3 || fresh != 3 || len(s.segs) != 3 {
			t.Fatalf("batch: processed=%d fresh=%d err=%v, %d segments", processed, fresh, err, len(s.segs))
		}
		for i, r := range reqs {
			if id, hit, _ := probe(s, r.fp, r.key); !hit || id != int32(i) {
				t.Fatalf("batch key %d: id=%d hit=%v", i, id, hit)
			}
		}
	})
}

func TestInsertBatchCapacityGuard(t *testing.T) {
	eachStore(t, func(t *testing.T, store Store) {
		withCap(t, &maxSetSlots, 8) // 7 states
		s := newVisitedStore(store)
		reqs := make([]insertReq, 8)
		for i := range reqs {
			k := []byte(fmt.Sprintf("bk-%d", i))
			reqs[i] = insertReq{fp: Fingerprint(k), key: k}
		}
		processed, fresh, err := s.insertBatch(reqs, 0, -1)
		var ce *CapacityError
		if !errors.As(err, &ce) || ce.Limit != "set slots" {
			t.Fatalf("batch overflow: err=%v", err)
		}
		if processed != 7 || fresh != 7 {
			t.Fatalf("processed=%d fresh=%d, want 7/7", processed, fresh)
		}
		// The prefix before the overflowing request must be fully applied.
		for i := 0; i < 7; i++ {
			k := []byte(fmt.Sprintf("bk-%d", i))
			if id, hit, _ := probe(s, Fingerprint(k), k); !hit || id != int32(i) {
				t.Fatalf("prefix key %d: id=%d hit=%v", i, id, hit)
			}
		}
		if k := []byte("bk-7"); func() bool { _, hit, _ := probe(s, Fingerprint(k), k); return hit }() {
			t.Fatal("overflowing key was stored")
		}
	})
}

// TestCapacityErrorAdvice: each limit's message names what lets the
// next run go further, and only that — more dist workers do nothing
// for the memory limit or the state log.
func TestCapacityErrorAdvice(t *testing.T) {
	for _, tc := range []struct{ limit, want string }{
		{"node ids", "search capacity: node ids limit (7) reached; lower -max-states, or spread the states over more -engine dist workers, each of which numbers its own"},
		{"set slots", "search capacity: set slots limit (7) reached; lower -max-states, or split the states over more -engine dist workers"},
		{"state log chunks", "search capacity: state log chunks limit (7) reached; lower -max-states, or drop -trace so the log releases expanded states"},
		{"memory", "search capacity: memory limit (7) reached; raise GOMEMLIMIT or lower -max-states"},
		{"unnamed", "search capacity: unnamed limit (7) reached; stop the search earlier"},
	} {
		if got := (&CapacityError{Limit: tc.limit, Max: 7}).Error(); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.limit, got, tc.want)
		}
	}
}

// TestCapacityOutcomeAllEngines pins the engine-level behavior: when a
// capacity limit trips, every engine stops with Outcome Capacity, the
// same stored-state count, and a message naming the limit — instead of
// the silent index wrap the guards replaced.
func TestCapacityOutcomeAllEngines(t *testing.T) {
	m := &counter{n: 100000, branch: true, quiet: -1, bad: -1, errAt: -1}
	for _, tc := range []struct {
		name   string
		cap    *int64
		n      int64
		budget int64 // compact retained-bytes budget for the row
		limit  string
		states int   // 0 = only require engine agreement
		seg    int64 // maxSegChunks for the row, 0 = the default
	}{
		{"node-ids", &maxNodeID, 10, compactVerifiedBudget, "node ids", 10, 0},
		// One 4 KiB chunk to an arena segment: the keys span 35 segments,
		// which stop nothing, and the search goes on to its node-id limit.
		// The budget has the compact store retain every key too.
		{"arena-chunks", &maxNodeID, 20_000, 1 << 20, "node ids", 20_000, 1},
		{"shard-slots", &maxSetSlots, 64, compactVerifiedBudget, "set slots", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withCap(t, tc.cap, tc.n)
			withCap(t, &compactVerifiedBudget, tc.budget)
			if tc.seg > 0 {
				withCap(t, &maxSegChunks, tc.seg)
			}
			for _, store := range []Store{StoreExact, StoreCompact} {
				opts := Options{DisableTraces: true, Store: store}
				seq := Check(m, opts)
				if seq.Outcome != Capacity || (tc.states > 0 && seq.States != tc.states) {
					t.Fatalf("store=%v seq: %v (states=%d)", store, seq, seq.States)
				}
				if !strings.Contains(seq.Message, tc.limit) {
					t.Fatalf("store=%v seq message: %q", store, seq.Message)
				}
				if seq.Outcome.Tag() != "capacity" {
					t.Fatalf("tag = %q", seq.Outcome.Tag())
				}
				pip := CheckPipelined(m, opts, 4, 0)
				if pip.Outcome != seq.Outcome || pip.States != seq.States ||
					pip.MaxDepth != seq.MaxDepth || pip.Rules != seq.Rules || pip.Message != seq.Message {
					t.Fatalf("store=%v pipeline: %v (states=%d rules=%d) vs seq %v (states=%d rules=%d)",
						store, pip, pip.States, pip.Rules, seq, seq.States, seq.Rules)
				}
			}
		})
	}
}

// TestInsertNodeIDGuard is the single-insert row of the node-ids limit
// (the path behind the distributed workers, which pass int32(states)):
// an id outside [0, maxNodeID) — a wrapped counter, or one past the
// cap — is refused, never stored. A negative id stored bare would read
// back as a chain index.
func TestInsertNodeIDGuard(t *testing.T) {
	eachStore(t, func(t *testing.T, store Store) {
		withCap(t, &maxNodeID, 10)
		withCap(t, &compactVerifiedBudget, 4) // "in" is retained, the rest bare
		s := NewVisitedStore(store, 0)
		in, dup := []byte("in"), []byte("in")
		if id, fresh, _, err := s.Insert(Fingerprint(in), in, 9); err != nil || !fresh || id != 9 {
			t.Fatalf("id 9 under cap 10: id=%d fresh=%v err=%v", id, fresh, err)
		}
		for _, id := range []int32{-1, math.MinInt32, 10, math.MaxInt32} {
			k := []byte(fmt.Sprintf("out-%d", id))
			_, fresh, _, err := s.Insert(Fingerprint(k), k, id)
			var ce *CapacityError
			if !errors.As(err, &ce) || ce.Limit != "node ids" || ce.Max != 10 || fresh {
				t.Fatalf("id %d: fresh=%v err=%v", id, fresh, err)
			}
			if _, hit, _ := probe(s, Fingerprint(k), k); hit {
				t.Fatalf("refused id %d was stored", id)
			}
		}
		if n, _, _ := s.Stats(); n != 1 {
			t.Fatalf("entries after refused inserts: %d", n)
		}
		// A duplicate needs no id: it still resolves at the cap.
		if id, fresh, _, err := s.Insert(Fingerprint(dup), dup, -1); err != nil || fresh || id != 9 {
			t.Fatalf("dup insert with a bad id: id=%d fresh=%v err=%v", id, fresh, err)
		}
	})
}

// --- collision-chain id stability (the prepend-order pin) ---

// TestCollisionChainFirstInsertedID pins that probe and insert return
// the *first-inserted* id for a key, however many colliding keys were
// stored after it.
func TestCollisionChainFirstInsertedID(t *testing.T) {
	eachStore(t, func(t *testing.T, store Store) {
		const fp = uint64(0x42) // all keys forced through one chain
		s := newVisitedStore(store)
		keys := [][]byte{[]byte("first"), []byte("second"), []byte("third")}
		for i, k := range keys {
			if id, fresh, _, err := s.Insert(fp, k, int32(10+i)); err != nil || !fresh || id != int32(10+i) {
				t.Fatalf("insert %d: id=%d fresh=%v err=%v", i, id, fresh, err)
			}
		}
		for i, k := range keys {
			want := int32(10 + i)
			if id, hit, conf := probe(s, fp, k); !hit || conf || id != want {
				t.Errorf("probe %q: id=%d hit=%v conflated=%v, want %d", k, id, hit, conf, want)
			}
			// Re-inserting under a new id must return the first-inserted id,
			// not the new one and not the newest chain entry's.
			if id, fresh, _, _ := s.Insert(fp, k, 999); fresh || id != want {
				t.Errorf("re-insert %q: id=%d fresh=%v, want %d", k, id, fresh, want)
			}
		}
		// Same stability through the batched path.
		reqs := []insertReq{
			{fp: fp, key: []byte("second")}, // dup of id 11
			{fp: fp, key: []byte("fourth")}, // fresh
			{fp: fp, key: []byte("first")},  // dup of id 10
		}
		processed, fresh, err := s.insertBatch(reqs, 100, -1)
		if err != nil || processed != 3 || fresh != 1 {
			t.Fatalf("batch: processed=%d fresh=%d err=%v", processed, fresh, err)
		}
		if reqs[0].fresh || reqs[0].id != 11 || reqs[2].fresh || reqs[2].id != 10 {
			t.Fatalf("batch dup ids: %+v %+v", reqs[0], reqs[2])
		}
		if !reqs[1].fresh || reqs[1].id != 100 {
			t.Fatalf("batch fresh id: %+v", reqs[1])
		}
	})
}

// --- compact-store semantics ---

func TestCompactConflationWhenBudgetExhausted(t *testing.T) {
	withCap(t, &compactVerifiedBudget, 0)
	s := newVisitedStore(StoreCompact)
	const fp = uint64(7)
	a, b := []byte("aaa"), []byte("bbb")
	if id, fresh, conf, err := s.Insert(fp, a, 5); err != nil || !fresh || conf || id != 5 {
		t.Fatalf("first insert: id=%d fresh=%v conf=%v err=%v", id, fresh, conf, err)
	}
	// With no verified bytes, a distinct key with the same fingerprint
	// conflates: reported as a duplicate of the first id.
	if id, fresh, conf, err := s.Insert(fp, b, 6); err != nil || fresh || !conf || id != 5 {
		t.Fatalf("conflated insert: id=%d fresh=%v conf=%v err=%v", id, fresh, conf, err)
	}
	if id, hit, conf := probe(s, fp, b); !hit || !conf || id != 5 {
		t.Fatalf("conflated probe: id=%d hit=%v conf=%v", id, hit, conf)
	}
	if st := s.st; st.entries != 1 || st.arenaBytes != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCompactVerifiedChainUnderBudget(t *testing.T) {
	s := newVisitedStore(StoreCompact)
	const fp = uint64(7)
	a, b := []byte("aaa"), []byte("bbb")
	s.Insert(fp, a, 5)
	// Within budget the first entry kept its bytes, so the collision is
	// detected and b stored (verified) on the chain.
	if id, fresh, conf, _ := s.Insert(fp, b, 6); !fresh || conf || id != 6 {
		t.Fatalf("collider insert: id=%d fresh=%v conf=%v", id, fresh, conf)
	}
	if id, hit, conf := probe(s, fp, b); !hit || conf || id != 6 {
		t.Fatalf("collider probe: id=%d hit=%v conf=%v", id, hit, conf)
	}
	if st := s.st; st.entries != 2 || st.arenaBytes != 6 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestCompactConflationDeterministicAcrossEngines exhausts the
// verified-bytes budget mid-run and requires the engines to report
// identical results and identical unverified-hit counts — the
// determinism claim the compact parity contract rests on.
func TestCompactConflationDeterministicAcrossEngines(t *testing.T) {
	withCap(t, &compactVerifiedBudget, 128)
	m := &counter{n: 20000, branch: true, quiet: 19999, bad: -1, errAt: -1}
	opts := Options{DisableTraces: true, Store: StoreCompact}
	seq := Check(m, opts)
	if seq.Outcome != Complete {
		t.Fatalf("seq = %v", seq)
	}
	if seq.Stats.Health.UnverifiedHits == 0 {
		t.Fatal("budget 128 produced no unverified hits; test is vacuous")
	}
	for name, r := range map[string]Result{
		"pipeline": CheckPipelined(m, opts, 4, 0),
	} {
		if r.Outcome != seq.Outcome || r.States != seq.States ||
			r.MaxDepth != seq.MaxDepth || r.Rules != seq.Rules {
			t.Fatalf("%s: %v vs seq %v", name, r, seq)
		}
		if r.Stats.DedupHits != seq.Stats.DedupHits ||
			r.Stats.Health.UnverifiedHits != seq.Stats.Health.UnverifiedHits {
			t.Fatalf("%s: dedup=%d unverified=%d vs seq dedup=%d unverified=%d",
				name, r.Stats.DedupHits, r.Stats.Health.UnverifiedHits,
				seq.Stats.DedupHits, seq.Stats.Health.UnverifiedHits)
		}
	}
}

// --- batched vs one-at-a-time equivalence ---

// TestInsertBatchMatchesSingleInserts replays one request stream
// through insertBatch and through Insert and requires the same verdict
// per request and the same footprint at the end. Each 9-request batch
// holds five distinct keys and then repeats four of them, and batches
// revisit keys stored by earlier ones. "spread" uses real
// fingerprints; "forced" squeezes the keys into three fingerprints, so
// every batch holds several distinct keys per fingerprint, and runs
// at a retained-bytes budget of nothing, a few bytes and unlimited:
// together those reach every branch of lookup and admit against
// entries stored earlier in the same batch (conflate on a bare entry,
// byte-compare against retained ones, a first-for-fingerprint decision
// that an earlier request pre-empts).
func TestInsertBatchMatchesSingleInserts(t *testing.T) {
	keyOf := func(i int) []byte {
		j := i % 9
		return []byte(fmt.Sprintf("k-%03d", (i-j+j%5)%97))
	}
	forced := func(k []byte) uint64 { return Fingerprint(k) % 3 }
	eachStore(t, func(t *testing.T, store Store) {
		for _, tc := range []struct {
			name   string
			fpOf   func([]byte) uint64
			budget int64
		}{
			{"spread", Fingerprint, compactVerifiedBudget},
			{"forced/budget-0", forced, 0},
			{"forced/budget-12", forced, 12}, // two 5-byte keys, not a third
			{"forced/budget-unlimited", forced, 1 << 20},
		} {
			t.Run(tc.name, func(t *testing.T) {
				withCap(t, &compactVerifiedBudget, tc.budget)
				batched := newVisitedStore(store)
				single := newVisitedStore(store)
				nextB, nextS := int32(0), int32(0)
				conflated := 0
				seen := make(map[string]bool)
				for lo := 0; lo < 500; lo += 9 {
					reqs := reqs500(keyOf, tc.fpOf, lo, 9, seen)
					processed, fresh, err := batched.insertBatch(reqs, nextB, -1)
					if err != nil || processed != len(reqs) {
						t.Fatalf("batch @%d: processed=%d err=%v", lo, processed, err)
					}
					nextB += int32(fresh)
					for _, r := range reqs {
						id, fr, conf, err := single.Insert(r.fp, r.key, nextS)
						if err != nil {
							t.Fatal(err)
						}
						if fr {
							nextS++
						}
						if conf {
							conflated++
						}
						if fr != r.fresh || id != r.id || conf != r.conflated {
							t.Fatalf("@%d key %q: batch (fresh=%v id=%d conflated=%v) vs single (fresh=%v id=%d conflated=%v)",
								lo, r.key, r.fresh, r.id, r.conflated, fr, id, conf)
						}
					}
				}
				if nextB != nextS {
					t.Fatalf("fresh counts diverge: %d vs %d", nextB, nextS)
				}
				bs, ss := batched.st, single.st
				if bs.entries != ss.entries || bs.arenaBytes != ss.arenaBytes {
					t.Fatalf("stats diverge: %+v vs %+v", bs, ss)
				}
				// Exact conflates nothing and keeps every key; compact
				// conflates exactly when the budget leaves a bare entry.
				wantConflation := store == StoreCompact && tc.budget < 15 && tc.name != "spread"
				if (conflated > 0) != wantConflation {
					t.Fatalf("conflated %d requests, want conflation = %v", conflated, wantConflation)
				}
				if !wantConflation && (ss.entries != len(seen) || ss.arenaBytes != int64(5*len(seen))) {
					t.Fatalf("stats %+v, want all %d five-byte keys kept", ss, len(seen))
				}
			})
		}
	})
}

// reqs500 builds one insert batch and adds its keys to seen.
func reqs500(keyOf func(int) []byte, fpOf func([]byte) uint64, lo, n int, seen map[string]bool) []insertReq {
	reqs := make([]insertReq, 0, n)
	for i := lo; i < lo+n; i++ {
		k := keyOf(i)
		reqs = append(reqs, insertReq{fp: fpOf(k), key: k})
		seen[string(k)] = true
	}
	return reqs
}

func TestInsertBatchLimit(t *testing.T) {
	s := newVisitedStore(StoreExact)
	reqs := make([]insertReq, 10)
	for i := range reqs {
		k := []byte(fmt.Sprintf("lim-%d", i))
		reqs[i] = insertReq{fp: Fingerprint(k), key: k}
	}
	processed, fresh, err := s.insertBatch(reqs, 0, 4)
	if err != nil || processed != 4 || fresh != 4 {
		t.Fatalf("processed=%d fresh=%d err=%v, want 4/4", processed, fresh, err)
	}
	if st := s.st; st.entries != 4 {
		t.Fatalf("entries=%d, want 4 (limit must stop inserts too)", st.entries)
	}
}

// --- dedup hot-path benchmarks ---

// BenchmarkVisitedSet measures the canonicalize-free dedup hot path in
// isolation — one insert plus two probes (one hit, one miss) per
// 64-byte key, the mix a ~50% dedup-rate search produces. This is the
// path hash compaction accelerates; end-to-end states/s gains are
// bounded by the share of runtime the model's Successors leaves to it.
func BenchmarkVisitedSet(b *testing.B) {
	const n = 1 << 15
	keys := make([][]byte, n)
	fps := make([]uint64, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%-64d", i))
		fps[i] = Fingerprint(keys[i])
	}
	for _, mode := range []Store{StoreExact, StoreCompact} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				set := newVisitedStore(mode)
				for j := 0; j < n; j++ {
					if _, fresh, _, err := set.Insert(fps[j], keys[j], int32(j)); err != nil || !fresh {
						b.Fatal(fresh, err)
					}
					if _, hit, _ := probe(set, fps[j/2], keys[j/2]); !hit {
						b.Fatal("miss on stored key")
					}
					miss := fps[j] ^ 0x9e3779b97f4a7c15
					probe(set, miss, keys[j])
				}
			}
			b.ReportMetric(float64(n), "states")
		})
	}
}

// BenchmarkCheckStore runs the full sequential engine on a model with
// a near-free Successors, so the visited set dominates end to end.
func BenchmarkCheckStore(b *testing.B) {
	for _, mode := range []Store{StoreExact, StoreCompact} {
		b.Run(mode.String(), func(b *testing.B) {
			m := &counter{n: 200_000, branch: true, quiet: 199_999, bad: -1, errAt: -1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := Check(m, Options{DisableTraces: true, Store: mode})
				if res.Outcome != Complete {
					b.Fatal(res)
				}
			}
			b.ReportMetric(200_000, "states")
		})
	}
}

// --- snapshot rate math (the +Inf/NaN bugfix) ---

func TestSanitizeRate(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if got := sanitizeRate(v); got != 0 {
			t.Errorf("sanitizeRate(%v) = %v, want 0", v, got)
		}
	}
	if got := sanitizeRate(12.5); got != 12.5 {
		t.Errorf("sanitizeRate(12.5) = %v", got)
	}
}

// TestSnapshotZeroElapsed pins that a snapshot taken at (or before)
// zero elapsed time reports finite rates and survives JSON encoding —
// encoding/json rejects +Inf/NaN, which would break -stats-json
// artifacts on sub-resolution runs.
func TestSnapshotZeroElapsed(t *testing.T) {
	// A start time in the future forces elapsed <= 0, the degenerate
	// case a sub-resolution clock read produces.
	tr := newTracker(Options{}, time.Now().Add(time.Hour), asExpander(multiInit{}), 1)
	tr.probe(1, 0, true, false)
	tr.probe(1, 0, false, false)
	s := tr.snapshot(10, 2, 1, 5, true)
	if s.ElapsedSeconds != 0 {
		t.Errorf("ElapsedSeconds = %v, want 0", s.ElapsedSeconds)
	}
	if s.StatesPerSec != 0 {
		t.Errorf("StatesPerSec = %v, want 0", s.StatesPerSec)
	}
	if math.IsNaN(s.DedupHitRate) || math.IsInf(s.DedupHitRate, 0) {
		t.Errorf("DedupHitRate = %v", s.DedupHitRate)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("snapshot does not JSON-encode: %v", err)
	}
	if strings.Contains(string(raw), "Inf") || strings.Contains(string(raw), "NaN") {
		t.Fatalf("non-finite value leaked into JSON: %s", raw)
	}
	// Zero probes: DedupHitRate guard (0/0) must also hold.
	tr2 := newTracker(Options{}, time.Now(), asExpander(multiInit{}), 1)
	if s2 := tr2.snapshot(0, 0, 0, 0, true); s2.DedupHitRate != 0 {
		t.Errorf("zero-probe DedupHitRate = %v", s2.DedupHitRate)
	}
}
