package mc

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// The visited set is the model checker's dominant memory consumer and
// the one decision every engine makes per successor: "have I stored this
// state?". VisitedStore is the only implementation: N shards chosen by
// the 64-bit FNV-1a fingerprint, each one open-addressed table of
// 16-byte slots plus a chunked byte arena.
//
// A slot holds a stored state's fingerprint, its id and a tagged
// location. Zero is an empty slot. bareSlot marks a state stored by
// fingerprint alone (hash compaction, Murphi lineage): it has no bytes,
// and every hit on it conflates — is taken as a duplicate on faith and
// surfaced to telemetry as an unverified hit. Anything else locates the
// state's canonical key in the arena, behind a uvarint length prefix as
// in the state log; those bytes decide membership, so correctness never
// rests on the 64-bit hash. A state's home slot is the top bits of its
// fingerprint times 2^64/φ, which depend on every fingerprint bit, so
// the few bits shardIdx fixed within a shard cost the spread nothing.
// Probing is linear: keys with equal fingerprints are further slots of
// the same run, and a lookup walks the run to its first empty slot. A
// table grows to twice its size at 7/8 full, rehashed in place.
//
// Which states keep their bytes is a retained-bytes budget. With no
// budget (StoreExact) every key is kept and no slot is bare. With a
// finite one (StoreCompact, compactVerifiedBudget) the first state
// stored under a fingerprint keeps its bytes while the budget lasts and
// is stored bare after; a state whose fingerprint already has a retained
// state always keeps its bytes, uncharged (collisions are rare, and
// conflating two states already told apart would be gratuitous). So a
// fingerprint has either one bare slot or only retained ones. The budget
// is charged in storage order, which the engines' parity contract pins
// identical, so compact runs produce the same result on every engine.
//
// The arena is a list of fixed arenaChunk-byte chunks that are filled
// front to back and never recopied (one contiguous slice would be
// recopied on every growth, a measured +15 % in allocated bytes and
// peak RSS on the sequential engine). A key never straddles chunks: one
// that does not fit the current chunk's remainder starts the next, and
// one longer than a chunk gets a chunk of its own. Slots stay
// pointer-free by packing the location as
// 1 + chunk<<arenaChunkBits | offset-within-chunk.
//
// Concurrency contract: one writer. Every method is called by the
// single store thread (the sequential search loop, the pipelined merge,
// or a distributed worker's Partition); pipeline workers never touch the
// set, so nothing in it is locked. Nothing is ever removed or rewritten
// but by a rehash, which keeps every slot's content, so a hit, and
// whether it conflates, is stable over the whole run.

// DefaultShards is the shard count the in-process engines use. Sharding
// serves no concurrency; 64 keeps per-shard tables small at paper-scale
// state counts.
const DefaultShards = 64

// arenaChunkBits sizes the arena chunks (4 KiB). Larger chunks cost a
// small search real memory — every touched stripe holds at least one.
const (
	arenaChunkBits = 12
	arenaChunk     = 1 << arenaChunkBits
)

// slot is one stored state in a shard's table (see the package comment
// above for at's tags).
type slot struct {
	fp uint64
	id int32
	at uint32
}

const (
	slotSize = 16 // bytes of a slot
	// bareSlot is the location of a state stored without bytes.
	bareSlot = math.MaxUint32
	// minSlots is a table's size at its first insert.
	minSlots = 4
	// fibMul is 2^64/φ: a fingerprint times it has a home slot in its
	// top bits.
	fibMul = 0x9e3779b97f4a7c15
)

// overfull reports whether a table of slots slots is past its maximum
// load with states in it: 7/8, beyond which linear probing's runs grow
// fast.
func overfull(states, slots int64) bool {
	return states*8 > slots*7
}

// recordLen is the arena bytes an n-byte key takes, prefix included.
func recordLen(n int) int {
	return (bits.Len(uint(n)|1)+6)/7 + n
}

// arenaFill tracks how full a chunked arena is: the chunk count and the
// free bytes left in the last chunk.
type arenaFill struct {
	chunks int
	free   int
}

// add accounts one n-byte record, reporting whether it opens a new chunk.
func (f *arenaFill) add(n int) bool {
	if f.chunks > 0 && n <= f.free {
		f.free -= n
		return false
	}
	f.chunks++
	f.free = max(arenaChunk, n) - n
	return true
}

// shardCount rounds a requested shard count up to a power of two,
// clamped to [1, 1<<16]; n <= 0 selects DefaultShards.
func shardCount(n int) int {
	if n <= 0 {
		n = DefaultShards
	}
	size := 1
	for size < min(n, 1<<16) {
		size <<= 1
	}
	return size
}

type setShard struct {
	slots  []slot // nil until the first insert, then a power of two long
	shift  uint8  // 64 - log2(len(slots))
	used   int    // occupied slots
	chunks [][]byte
	fill   arenaFill
}

// VisitedStore is the visited set (see the package comment above). Every
// engine reaches it through the search core, a distributed worker as a
// Partition, which stores its owned slice of fingerprint space in one.
// In compact mode the budget is per store, and therefore per distributed
// worker rather than global across the fleet; see the distributed
// engine's docs for the (tiny) omission-probability consequence. Its
// exported constructor and Insert are for one outside caller, the
// benchmark's layer replay, which measures the set alone.
type VisitedStore struct {
	shards []setShard
	mask   uint64
	// budget is the retained-bytes budget for first-for-fingerprint
	// keys, -1 for none (keep every key); retained is how much of it is
	// spent.
	budget, retained int64
	st               setStats // the footprint so far
	// touched sums what insertBatch loaded ahead of its lookups (see
	// setShard.touch); it is kept so the loads are.
	touched uint64
}

// newVisitedStore builds a store of the given mode with shardCount(n)
// shards.
func newVisitedStore(store Store, n int) *VisitedStore {
	size := shardCount(n)
	s := &VisitedStore{shards: make([]setShard, size), mask: uint64(size - 1), budget: -1}
	if store == StoreCompact {
		s.budget = compactVerifiedBudget
	}
	return s
}

// NewVisitedStore builds a store of the given mode outside a search, for
// the benchmark's layer replay. shards <= 0 selects a single shard.
func NewVisitedStore(store Store, shards int) *VisitedStore {
	if shards <= 0 {
		shards = 1
	}
	return newVisitedStore(store, shards)
}

// shardIdx picks the stripe: the shared mix (fphash.go), the same
// partition the telemetry stripes and dist ownership use.
func (s *VisitedStore) shardIdx(fp uint64) uint32 {
	return uint32(FingerprintMix(fp) & s.mask)
}

// home is fp's first probe position; the table must not be empty.
func (sh *setShard) home(fp uint64) int {
	return int(fp * fibMul >> sh.shift)
}

// key returns the key stored at a retained slot's location.
func (sh *setShard) key(at uint32) []byte {
	loc := at - 1
	c := sh.chunks[loc>>arenaChunkBits][loc&(arenaChunk-1):]
	n, w := binary.Uvarint(c)
	return c[w : w+int(n)]
}

// lookup resolves key's membership: a bare slot for fp conflates, a
// retained one hits when its bytes equal key. known reports whether any
// state is stored under fp, the first-for-fingerprint question the
// budget asks.
func (sh *setShard) lookup(fp uint64, key []byte) (id int32, hit, conflated, known bool) {
	if len(sh.slots) == 0 {
		return 0, false, false, false
	}
	mask := len(sh.slots) - 1
	for i := sh.home(fp); ; i = (i + 1) & mask {
		sl := &sh.slots[i]
		switch {
		case sl.at == 0:
			return 0, false, false, known
		case sl.fp != fp:
		case sl.at == bareSlot:
			return sl.id, true, true, true
		case string(sh.key(sl.at)) == string(key):
			return sl.id, true, false, true
		default:
			known = true
		}
	}
}

// touch loads what a lookup of fp will read first — its home slot and,
// when that slot holds fp with bytes, the key's first byte — and
// returns something of it, so a batch can start every request's cache
// misses before it compares any key and have them overlap.
func (sh *setShard) touch(fp uint64) uint64 {
	if len(sh.slots) == 0 {
		return 0
	}
	sl := &sh.slots[sh.home(fp)]
	if sl.fp != fp || sl.at == 0 || sl.at == bareSlot {
		return sl.fp
	}
	loc := sl.at - 1
	return uint64(sh.chunks[loc>>arenaChunkBits][loc&(arenaChunk-1)])
}

// firstFor reports whether a key that missed lookup would be the first
// state stored under its fingerprint, known telling whether one is, and
// the budget applies: without a budget the answer is never needed.
func (s *VisitedStore) firstFor(known bool) bool {
	return s.budget >= 0 && !known
}

// capacity reports the guard error, if any, for storing one more state,
// with a keyLen-byte key if it is retained. Checked before every store
// so no table outgrows maxShardSlots and the chunk index packed into a
// uint32 location can never wrap.
func (sh *setShard) capacity(retain bool, keyLen int) error {
	if overfull(int64(sh.used+1), maxShardSlots) {
		return &CapacityError{Limit: "shard slots", Max: maxShardSlots}
	}
	if fill := sh.fill; retain && fill.add(recordLen(keyLen)) && int64(fill.chunks) > maxShardChunks {
		return &CapacityError{Limit: "shard arena chunks", Max: maxShardChunks}
	}
	return nil
}

// store records key unconditionally; the caller has already decided
// freshness, retention and capacity. A bare state takes a slot and
// nothing else; a retained one also appends its record to the arena. st
// is the store's footprint, which store keeps.
func (sh *setShard) store(fp uint64, key []byte, id int32, retain bool, st *setStats) {
	if overfull(int64(sh.used+1), int64(len(sh.slots))) {
		sh.grow(st)
	}
	at := uint32(bareSlot)
	if retain {
		n := recordLen(len(key))
		if sh.fill.add(n) {
			had := cap(sh.chunks)
			sh.chunks = append(sh.chunks, make([]byte, 0, max(arenaChunk, n)))
			st.setBytes += int64(max(arenaChunk, n)) + int64(cap(sh.chunks)-had)*sliceHeaderSize
		}
		last := len(sh.chunks) - 1
		at = 1 + (uint32(last)<<arenaChunkBits | uint32(len(sh.chunks[last])))
		sh.chunks[last] = append(binary.AppendUvarint(sh.chunks[last], uint64(len(key))), key...)
		st.arenaBytes += int64(len(key))
	}
	sh.place(slot{fp: fp, id: id, at: at})
	st.entries++
}

// place puts sl in the first empty slot of its run.
func (sh *setShard) place(sl slot) {
	mask := len(sh.slots) - 1
	i := sh.home(sl.fp)
	for sh.slots[i].at != 0 {
		i = (i + 1) & mask
	}
	sh.slots[i] = sl
	sh.used++
}

// grow doubles the table (or makes the first) and rehashes every slot
// into it.
func (sh *setShard) grow(st *setStats) {
	old := sh.slots
	n := max(2*len(old), minSlots)
	sh.slots, sh.shift, sh.used = make([]slot, n), uint8(64-bits.TrailingZeros(uint(n))), 0
	for _, sl := range old {
		if sl.at != 0 {
			sh.place(sl)
		}
	}
	st.setBytes += int64(n-len(old)) * slotSize
}

// admit is the one decision on a fresh n-byte key about to be stored in
// sh under id: whether it keeps its bytes — always, unless it is first
// for its fingerprint under a budget (see firstFor) that cannot take
// it — and whether the guards let it in. Every key needs a slot, a
// retained one arena room, and every key an id in [0, maxNodeID): ids
// are int32 everywhere. The budget is charged only when err is nil.
func (s *VisitedStore) admit(sh *setShard, first bool, n int, id int64) (retain bool, err error) {
	retain = !first || s.retained+int64(n) <= s.budget
	err = sh.capacity(retain, n)
	if err == nil && (id < 0 || id >= maxNodeID) {
		err = &CapacityError{Limit: "node ids", Max: maxNodeID}
	}
	if err == nil && first && retain {
		s.retained += int64(n)
	}
	return retain, err
}

// insert is the one insert-or-get path: lookup, then admit, then store.
// It stores r.key (with fingerprint r.fp) under id unless an equal key is
// present, and fills r's outputs: the surviving id, whether the insert
// was fresh, whether a duplicate verdict was unverifiable (compact
// conflation), and whether a fresh key was stored bare, so that every
// later verdict on it will be. A *CapacityError means nothing was stored.
func (s *VisitedStore) insert(r *insertReq, id int64) error {
	sh := &s.shards[s.shardIdx(r.fp)]
	got, hit, conflated, known := sh.lookup(r.fp, r.key)
	if hit {
		r.id, r.fresh, r.conflated, r.bare = got, false, conflated, false
		return nil
	}
	retain, err := s.admit(sh, s.firstFor(known), len(r.key), id)
	if err != nil {
		r.id, r.fresh, r.conflated, r.bare = 0, false, false, false
		return err
	}
	sh.store(r.fp, r.key, int32(id), retain, &s.st)
	r.id, r.fresh, r.conflated, r.bare = int32(id), true, false, !retain
	return nil
}

// Insert settles one key through insert, for the benchmark's layer
// replay.
func (s *VisitedStore) Insert(fp uint64, key []byte, id int32) (gotID int32, fresh, conflated bool, err error) {
	r := insertReq{fp: fp, key: key}
	err = s.insert(&r, int64(id))
	return r.id, r.fresh, r.conflated, err
}

// insertBatch settles reqs in order through insert, with ids baseID,
// baseID+1, … assigned to fresh entries, so a batch settles exactly
// like a sequence of Inserts. A first pass loads every request's home
// slot (see setShard.touch) so their cache misses overlap. limit >= 0
// stops after that many fresh inserts (the limiting request is still
// settled); processed reports how many leading requests were settled. A
// *CapacityError stops before the offending request, which is then
// reqs[processed].
func (s *VisitedStore) insertBatch(reqs []insertReq, baseID int32, limit int) (processed, fresh int, err error) {
	var touched uint64
	for i := range reqs {
		touched += s.shards[s.shardIdx(reqs[i].fp)].touch(reqs[i].fp)
	}
	s.touched += touched

	for i := range reqs {
		r := &reqs[i]
		if err = s.insert(r, int64(baseID)+int64(fresh)); err != nil {
			return i, fresh, err
		}
		if r.fresh {
			fresh++
			if limit >= 0 && fresh >= limit {
				return i + 1, fresh, nil
			}
		}
	}
	return len(reqs), fresh, nil
}

// Stats reports the stored state count and footprint.
func (s *VisitedStore) Stats() (entries int, arenaBytes, setBytes int64) {
	return s.st.entries, s.st.arenaBytes, s.st.setBytes
}
