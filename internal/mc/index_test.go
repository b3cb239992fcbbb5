package mc

import (
	"bytes"
	"fmt"
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
	keys             map[string]bool // retained keys
	bare             map[uint64]bool // fingerprints stored without bytes
	fps              map[uint64]bool // fingerprints with any state
	keyBytes         int64
}

func newRefIndex(budget int64) *refIndex {
	return &refIndex{budget: budget, keys: map[string]bool{}, bare: map[uint64]bool{}, fps: map[uint64]bool{}}
}

func (r *refIndex) lookup(fp uint64, key []byte) (hit, conflated bool) {
	if r.bare[fp] {
		return true, true
	}
	return r.keys[string(key)], false
}

func (r *refIndex) insert(fp uint64, key []byte) (fresh, conflated bool) {
	if hit, conflated := r.lookup(fp, key); hit {
		return false, conflated
	}
	first := r.budget >= 0 && !r.fps[fp]
	retain := !first || r.retained+int64(len(key)) <= r.budget
	if first && retain {
		r.retained += int64(len(key))
	}
	if retain {
		r.keys[string(key)] = true
		r.keyBytes += int64(len(key))
	} else {
		r.bare[fp] = true
	}
	r.fps[fp] = true
	return true, false
}

// indexRun drives one VisitedStore beside a refIndex and fails on the
// first request whose verdict differs.
type indexRun struct {
	t    testing.TB
	set  *VisitedStore
	ref  *refIndex
	fpOf func([]byte) uint64
	next int32 // the next fresh id
}

// newIndexRun builds the store at the given budget, on key log chunks of
// chunk bytes.
func newIndexRun(t testing.TB, store Store, budget int64, chunk int, fpOf func([]byte) uint64) *indexRun {
	t.Helper()
	oldBudget, oldChunk := compactVerifiedBudget, arenaChunk
	compactVerifiedBudget, arenaChunk = budget, chunk
	defer func() { compactVerifiedBudget, arenaChunk = oldBudget, oldChunk }()
	ref := newRefIndex(-1)
	if store == StoreCompact {
		ref.budget = budget
	}
	return &indexRun{t: t, set: newVisitedStore(store), ref: ref, fpOf: fpOf}
}

// insert settles one key through Insert.
func (r *indexRun) insert(key []byte) {
	r.t.Helper()
	fp := r.fpOf(key)
	id, fresh, conflated, err := r.set.Insert(fp, key, r.next)
	if err != nil {
		r.t.Fatal(err)
	}
	wfresh, wconflated := r.ref.insert(fp, key)
	if fresh != wfresh || conflated != wconflated {
		r.t.Fatalf("Insert(%q): fresh=%v conflated=%v, reference fresh=%v conflated=%v",
			key, fresh, conflated, wfresh, wconflated)
	}
	wantID := int32(-1)
	if fresh {
		wantID = r.next
		r.next++
	}
	if id != wantID {
		r.t.Fatalf("Insert(%q): id %d, want %d", key, id, wantID)
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
		wfresh, wconflated := r.ref.insert(q.fp, q.key)
		if q.fresh != wfresh || q.conflated != wconflated {
			r.t.Fatalf("insertBatch %q: fresh=%v conflated=%v, reference fresh=%v conflated=%v",
				q.key, q.fresh, q.conflated, wfresh, wconflated)
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

// probe checks the single-key lookup's verdicts on keys against the
// reference.
func (r *indexRun) probe(keys [][]byte) {
	r.t.Helper()
	for _, k := range keys {
		fp := r.fpOf(k)
		hit, conflated := probe(r.set, fp, k)
		if whit, wconflated := r.ref.lookup(fp, k); hit != whit || conflated != wconflated {
			r.t.Fatalf("probe %q: hit=%v conflated=%v, reference hit=%v conflated=%v", k, hit, conflated, whit, wconflated)
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

// indexChunks are the key log chunk sizes the index tests run on: the
// default, and 64 bytes, on which keys cross chunks every few inserts and
// most of indexKeyLens' long keys get a chunk of their own.
var indexChunks = []int{arenaChunk, 64}

// TestVisitedStoreMatchesReference drives the open-addressed index
// beside the map reference with a seeded mix of single inserts, batches
// and lookups, over every budget, fingerprint function and key chunk
// size. With real fingerprints it stores enough keys to grow the table
// at least twelve times; with colliding ones, fewer, since each key then
// walks a long run.
func TestVisitedStoreMatchesReference(t *testing.T) {
	for _, b := range indexBudgets {
		for _, f := range indexFingerprints {
			for _, chunk := range indexChunks {
				name := b.name + "/" + f.name
				if chunk != arenaChunk {
					name += fmt.Sprintf("/chunk-%d", chunk)
				}
				t.Run(name, func(t *testing.T) {
					distinct := 24_000
					if f.name != "fnv" {
						distinct = 600
					}
					rng := rand.New(rand.NewSource(26))
					r := newIndexRun(t, b.store, b.budget, chunk, f.fpOf)
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
					if s := r.set; overfull(int64(s.entries), int64(len(s.slots))) || (f.name == "fnv" && len(s.slots) < minSlots<<12) {
						t.Fatalf("the table holds %d states in %d slots", s.entries, len(s.slots))
					}
					if s := r.set; s.arenaBytes > int64(chunk) && len(s.keys.chunks) < 2 {
						t.Fatalf("%d key bytes in %d chunks of %d bytes", s.arenaBytes, len(s.keys.chunks), chunk)
					}
				})
			}
		}
	}
}

// FuzzVisitedStore is TestVisitedStoreMatchesReference driven by fuzz
// bytes: the first picks the budget, the second the fingerprint function
// (its top bits are unused), and each later byte one operation on keys
// drawn from a 48-key alphabet, so duplicates and collisions are the
// rule. Each program runs on every size of indexChunks.
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
		key := func(x byte) []byte { return indexKey(int(x) % 48) }
		for _, chunk := range indexChunks {
			r := newIndexRun(t, b.store, b.budget, chunk, fp.fpOf)
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
		}
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
