package mc

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// refIndex is the visited set's specification as maps: a fingerprint
// stored bare answers every key under it with a conflated hit; a
// retained key answers itself; a fresh key keeps its bytes unless it is
// the first under its fingerprint and the budget (-1 for none) cannot
// take it.
type refIndex struct {
	budget, retained int64
	keys             map[string]int32 // retained keys
	bare             map[uint64]int32 // fingerprints stored without bytes
	fps              map[uint64]bool  // fingerprints with any state
	keyBytes         int64
}

func newRefIndex(budget int64) *refIndex {
	return &refIndex{budget: budget, keys: map[string]int32{}, bare: map[uint64]int32{}, fps: map[uint64]bool{}}
}

func (r *refIndex) lookup(fp uint64, key []byte) (id int32, hit, conflated bool) {
	if id, ok := r.bare[fp]; ok {
		return id, true, true
	}
	id, ok := r.keys[string(key)]
	return id, ok, false
}

func (r *refIndex) insert(fp uint64, key []byte, id int32) (got int32, fresh, conflated bool) {
	if got, hit, conflated := r.lookup(fp, key); hit {
		return got, false, conflated
	}
	first := r.budget >= 0 && !r.fps[fp]
	retain := !first || r.retained+int64(len(key)) <= r.budget
	if first && retain {
		r.retained += int64(len(key))
	}
	if retain {
		r.keys[string(key)] = id
		r.keyBytes += int64(len(key))
	} else {
		r.bare[fp] = id
	}
	r.fps[fp] = true
	return id, true, false
}

// indexRun drives one VisitedStore beside a refIndex and fails on the
// first request whose verdict or id differs.
type indexRun struct {
	t    testing.TB
	set  *VisitedStore
	ref  *refIndex
	fpOf func([]byte) uint64
	next int32 // the next fresh id
}

func newIndexRun(t testing.TB, store Store, budget int64, shards int, fpOf func([]byte) uint64) *indexRun {
	t.Helper()
	old := compactVerifiedBudget
	compactVerifiedBudget = budget
	defer func() { compactVerifiedBudget = old }()
	ref := newRefIndex(-1)
	if store == StoreCompact {
		ref.budget = budget
	}
	return &indexRun{t: t, set: newVisitedStore(store, shards), ref: ref, fpOf: fpOf}
}

// insert settles one key through Insert.
func (r *indexRun) insert(key []byte) {
	r.t.Helper()
	fp := r.fpOf(key)
	id, fresh, conflated, err := r.set.Insert(fp, key, r.next)
	if err != nil {
		r.t.Fatal(err)
	}
	wid, wfresh, wconflated := r.ref.insert(fp, key, r.next)
	if id != wid || fresh != wfresh || conflated != wconflated {
		r.t.Fatalf("Insert(%q): id=%d fresh=%v conflated=%v, reference id=%d fresh=%v conflated=%v",
			key, id, fresh, conflated, wid, wfresh, wconflated)
	}
	if fresh {
		r.next++
	}
}

// batch settles keys through insertBatch.
func (r *indexRun) batch(keys [][]byte) {
	r.t.Helper()
	reqs := make([]insertReq, len(keys))
	for i, k := range keys {
		reqs[i] = insertReq{fp: r.fpOf(k), key: k}
	}
	processed, fresh, err := r.set.insertBatch(reqs, r.next, -1)
	if err != nil || processed != len(reqs) {
		r.t.Fatalf("insertBatch: processed %d of %d, err %v", processed, len(reqs), err)
	}
	nfresh := 0
	for _, q := range reqs {
		wid, wfresh, wconflated := r.ref.insert(q.fp, q.key, r.next+int32(nfresh))
		if q.id != wid || q.fresh != wfresh || q.conflated != wconflated {
			r.t.Fatalf("insertBatch %q: id=%d fresh=%v conflated=%v, reference id=%d fresh=%v conflated=%v",
				q.key, q.id, q.fresh, q.conflated, wid, wfresh, wconflated)
		}
		if wfresh {
			nfresh++
		}
	}
	if fresh != nfresh {
		r.t.Fatalf("insertBatch: %d fresh, reference %d", fresh, nfresh)
	}
	r.next += int32(fresh)
}

// probe checks the single-key lookup's verdicts and ids on keys against
// the reference.
func (r *indexRun) probe(keys [][]byte) {
	r.t.Helper()
	for _, k := range keys {
		fp := r.fpOf(k)
		id, hit, conflated := probe(r.set, fp, k)
		if wid, whit, wconflated := r.ref.lookup(fp, k); hit != whit || conflated != wconflated || (hit && id != wid) {
			r.t.Fatalf("probe %q: id=%d hit=%v conflated=%v, reference id=%d hit=%v conflated=%v", k, id, hit, conflated, wid, whit, wconflated)
		}
	}
}

// finish checks the totals.
func (r *indexRun) finish() {
	r.t.Helper()
	entries, arena, _ := r.set.Stats()
	if want := len(r.ref.keys) + len(r.ref.bare); entries != want || arena != r.ref.keyBytes {
		r.t.Fatalf("stats: %d entries, %d key bytes; reference %d, %d", entries, arena, want, r.ref.keyBytes)
	}
}

// indexKeyLens are the key lengths the index tests cycle through: empty,
// one-byte and two-byte uvarint prefixes, and keys that fill, nearly
// fill and outgrow an arena chunk.
var indexKeyLens = []int{0, 1, 2, 5, 31, 77, 78, 127, 128, 300, arenaChunk - 2, arenaChunk + 1}

// indexKey is the distinct key number i: its length cycles through
// indexKeyLens and its bytes spell i.
func indexKey(i int) []byte {
	k := make([]byte, indexKeyLens[i%len(indexKeyLens)])
	for j := range k {
		k[j] = byte(i >> (8 * (j % 3)))
	}
	if len(k) > 0 {
		k[len(k)-1] ^= byte(i >> 24)
	}
	if i != 0 && len(k) == 0 {
		return []byte{byte(i), byte(i >> 8), byte(i >> 16)} // only key 0 is empty
	}
	return k
}

// indexFingerprints are the fingerprint functions the index tests use:
// the real one, a handful of values shared by many keys, and one value
// for every key.
var indexFingerprints = []struct {
	name string
	fpOf func([]byte) uint64
}{
	{"fnv", Fingerprint},
	{"mod5", func(k []byte) uint64 { return Fingerprint(k) % 5 }},
	{"equal", func([]byte) uint64 { return 0x5eed }},
}

// indexBudgets are the store configurations: exact, and compact with a
// budget of nothing, 12 bytes and 1 MiB.
var indexBudgets = []struct {
	name   string
	store  Store
	budget int64
}{
	{"exact", StoreExact, compactVerifiedBudget},
	{"compact-0", StoreCompact, 0},
	{"compact-12", StoreCompact, 12},
	{"compact-1MiB", StoreCompact, 1 << 20},
}

// TestVisitedStoreMatchesReference drives the open-addressed index
// beside the map reference with a seeded mix of single inserts, batches
// and lookups, over every budget and fingerprint function. With real
// fingerprints it stores enough keys on 4 shards to grow every shard's
// table at least ten times; with colliding ones, fewer, since each key
// then walks a long run.
func TestVisitedStoreMatchesReference(t *testing.T) {
	for _, b := range indexBudgets {
		for _, f := range indexFingerprints {
			t.Run(b.name+"/"+f.name, func(t *testing.T) {
				distinct := 24_000
				if f.name != "fnv" {
					distinct = 600
				}
				rng := rand.New(rand.NewSource(26))
				r := newIndexRun(t, b.store, b.budget, 4, f.fpOf)
				var keys [][]byte
				for op := 0; op < distinct; op++ {
					// Mostly new keys, a third of them revisited.
					pick := func() []byte {
						if rng.Intn(3) == 0 {
							return indexKey(rng.Intn(op + 1))
						}
						return indexKey(op)
					}
					switch rng.Intn(4) {
					case 0:
						r.insert(pick())
					case 1:
						r.probe([][]byte{pick(), indexKey(op + distinct)})
					default:
						keys = keys[:0]
						for n := 1 + rng.Intn(12); n > 0; n-- {
							keys = append(keys, pick())
						}
						r.batch(keys)
					}
				}
				r.finish()
				for i := range r.set.shards {
					sh := &r.set.shards[i]
					if overfull(int64(sh.used), int64(len(sh.slots))) || (f.name == "fnv" && len(sh.slots) < minSlots<<10) {
						t.Fatalf("shard %d holds %d states in %d slots", i, sh.used, len(sh.slots))
					}
				}
			})
		}
	}
}

// FuzzVisitedStore is TestVisitedStoreMatchesReference driven by fuzz
// bytes: the first picks the budget, the second the fingerprint function
// and the shard count, and each later byte one operation on keys drawn
// from a 48-key alphabet, so duplicates and collisions are the rule.
func FuzzVisitedStore(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{1, 2, 0x80, 0x81, 0x82, 0x40, 0x41, 0x42, 0xc3})
	f.Add([]byte{2, 1, 0xff, 0xfe, 0x10, 0x20, 0x30, 0x11, 0x21, 0x31})
	f.Add([]byte{3, 5, 7, 7, 7, 0x87, 0x47, 0xc7, 0x07})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		b := indexBudgets[int(prog[0])%len(indexBudgets)]
		fp := indexFingerprints[int(prog[1])%len(indexFingerprints)]
		r := newIndexRun(t, b.store, b.budget, 1<<(prog[1]>>6), fp.fpOf)
		key := func(x byte) []byte { return indexKey(int(x) % 48) }
		for i, op := range prog[2:] {
			switch op >> 6 {
			case 0:
				r.insert(key(op))
			case 1:
				r.probe([][]byte{key(op), key(op + 1)})
			default:
				// A batch of the next few program bytes' keys (op's bit 2
				// is unused).
				rest := prog[2+i:]
				keys := make([][]byte, 0, 4)
				for _, x := range rest[:min(len(rest), 1+int(op&3))] {
					keys = append(keys, key(x))
				}
				r.batch(keys)
			}
		}
		r.finish()
	})
}

// TestFingerprint4MatchesFingerprint pins the batched FNV-1a to
// Fingerprint: four keys of every length 0–300, and groups of 1–4 keys
// of mixed lengths through the collector, which fingerprints in groups
// of four and fills a short group's spare lanes with its own keys.
func TestFingerprint4MatchesFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for n := 0; n <= 300; n++ {
		k := [4][]byte{random(n), random(n), random(n), random(n)}
		got := fingerprint4(k)
		for j := range k {
			if want := Fingerprint(k[j]); got[j] != want {
				t.Fatalf("length %d lane %d: %#x, Fingerprint %#x", n, j, got[j], want)
			}
		}
	}
	for trial := 0; trial < 400; trial++ {
		c := newCollector(nil, reverser{})
		var keys [][]byte
		for n := 1 + trial%9; n > 0; n-- { // 1–9 keys: two full groups and every short one
			state := random(rng.Intn(200))
			c.add(state, 0)
			keys = append(keys, reverser{}.AppendCanonical(nil, state))
		}
		for i, sc := range c.resolve() {
			if !bytes.Equal(sc.ckey, keys[i]) || sc.fp != Fingerprint(keys[i]) {
				t.Fatalf("trial %d key %d of %d: ckey %x fp %#x, want %x %#x", trial, i, len(keys), sc.ckey, sc.fp, keys[i], Fingerprint(keys[i]))
			}
		}
	}
}

// reverser is a test Expander whose canonical form of a state is its
// reversal. It reaches all three ways collector.add can get a key: a
// palindrome is its own form (raw itself), an even-length state's form is
// written into dst, and an odd-length one's is returned in a fresh slice.
type reverser struct{}

func (reverser) Expand([]byte, func([]byte, int)) (int, error) { return 0, nil }
func (reverser) RuleNames() []string                           { return nil }
func (reverser) AppendCanonical(dst, raw []byte) []byte {
	rev := slices.Clone(raw)
	slices.Reverse(rev)
	switch {
	case bytes.Equal(rev, raw):
		return raw
	case len(raw)%2 == 0:
		return append(dst[:0], rev...)
	}
	return rev
}
