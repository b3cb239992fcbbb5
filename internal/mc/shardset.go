package mc

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// The visited set is the model checker's dominant memory consumer and
// the one decision every engine makes per successor: "have I stored this
// state?". VisitedStore is the only implementation: one open-addressed
// table of 16-byte slots over one chunked byte arena, per search or per
// distributed worker's Partition. Its one writer needs no shards: a
// sharded table cost every small search a table and a chunk per shard.
//
// A slot holds a stored state's fingerprint, its id and a tagged
// location. Zero is an empty slot. bareSlot marks a state stored by
// fingerprint alone (hash compaction, Murphi lineage): it has no bytes,
// and every hit on it conflates — is taken as a duplicate on faith and
// surfaced to telemetry as an unverified hit. Anything else locates the
// state's canonical key in the arena, behind a uvarint length prefix as
// in the state log; those bytes decide membership, so correctness never
// rests on the 64-bit hash. A state's home slot is the top bits of its
// fingerprint times 2^64/φ, which depend on every fingerprint bit.
// Probing is linear: keys with equal fingerprints are further slots of
// the same run, and a lookup walks the run to its first empty slot. The
// table grows to twice its size at 7/8 full, rehashed into the new one;
// before a table that holds states grows, the search is asked whether
// the new table fits under the Go memory limit (guard).
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
// 1 + chunk<<arenaChunkBits | offset-within-chunk, which addresses 4 GiB
// of chunks. So the chunks are cut into segments of up to maxSegChunks,
// each keyed by the id of the first key it holds: keys are appended in
// id order, so a slot's id names its segment, and a location is read
// within it. While the arena has one segment, finding it costs one
// compare.
//
// Concurrency contract: one writer. Every method is called by the
// single store thread (the sequential search loop, the pipelined merge,
// or a distributed worker's Partition); pipeline workers never touch the
// set, so nothing in it is locked. Nothing is ever removed or rewritten
// but by a rehash, which keeps every slot's content, so a hit, and
// whether it conflates, is stable over the whole run.

// arenaChunkBits sizes the arena chunks (4 KiB): a small search holds
// at least one.
const (
	arenaChunkBits = 12
	arenaChunk     = 1 << arenaChunkBits
)

// slot is one stored state in the table (see the package comment above
// for at's tags).
type slot struct {
	fp uint64
	id int32
	at uint32
}

const (
	slotSize = 16 // bytes of a slot
	// segmentSize is the bytes of a segment in the store's list of them.
	segmentSize = 32
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

// segment is one piece of the arena: the chunks that hold the keys of
// ids first and on, up to the next segment's first.
type segment struct {
	first  int32
	chunks [][]byte
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
	slots []slot    // nil until the first insert, then a power of two long
	shift uint8     // 64 - log2(len(slots))
	segs  []segment // the arena, by first id
	// budget is the retained-bytes budget for first-for-fingerprint
	// keys, -1 for none (keep every key); retained is how much of it is
	// spent.
	budget, retained int64
	st               setStats // the footprint so far; st.entries slots are used
	// touched sums what insertBatch loaded ahead of its lookups (see
	// touch); it is kept so the loads are.
	touched uint64
	// guard, when set, is asked before a table that holds states grows
	// whether extra more bytes may be held, and refuses with a
	// *CapacityError: the search's memory check.
	guard func(extra int64) error
}

// newVisitedStore builds an empty store of the given mode.
func newVisitedStore(store Store) *VisitedStore {
	s := &VisitedStore{budget: -1}
	if store == StoreCompact {
		s.budget = compactVerifiedBudget
	}
	return s
}

// NewVisitedStore builds a store of the given mode outside a search, for
// the benchmark's layer replay; shards is ignored. The store has no
// memory guard, and its ids must ascend from insert to insert, as a
// search's do.
func NewVisitedStore(store Store, shards int) *VisitedStore {
	return newVisitedStore(store)
}

// home is fp's first probe position; the table must not be empty.
func (s *VisitedStore) home(fp uint64) int {
	return int(fp * fibMul >> s.shift)
}

// record returns the arena from the record stored for id at a retained
// slot's location on: the segment that holds it is the last one to
// start at or before id.
func (s *VisitedStore) record(id int32, at uint32) []byte {
	i := len(s.segs) - 1
	for i > 0 && s.segs[i].first > id {
		i--
	}
	loc := at - 1
	return s.segs[i].chunks[loc>>arenaChunkBits][loc&(arenaChunk-1):]
}

// key returns the key stored for id at a retained slot's location.
func (s *VisitedStore) key(id int32, at uint32) []byte {
	c := s.record(id, at)
	n, w := binary.Uvarint(c)
	return c[w : w+int(n)]
}

// lookup resolves key's membership: a bare slot for fp conflates, a
// retained one hits when its bytes equal key. known reports whether any
// state is stored under fp, the first-for-fingerprint question the
// budget asks.
func (s *VisitedStore) lookup(fp uint64, key []byte) (id int32, hit, conflated, known bool) {
	if len(s.slots) == 0 {
		return 0, false, false, false
	}
	mask := len(s.slots) - 1
	for i := s.home(fp); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		switch {
		case sl.at == 0:
			return 0, false, false, known
		case sl.fp != fp:
		case sl.at == bareSlot:
			return sl.id, true, true, true
		case string(s.key(sl.id, sl.at)) == string(key):
			return sl.id, true, false, true
		default:
			known = true
		}
	}
}

// touch loads what a lookup of fp will read first — its home slot and,
// when that slot holds fp with bytes in the newest segment, the key's
// first byte — and returns something of it, so a batch can start every
// request's cache misses before it compares any key and have them
// overlap. The table must not be empty. It reads only the newest
// segment so that it stays small enough to inline, which the overlap
// needs.
func (s *VisitedStore) touch(fp uint64) uint64 {
	sl := &s.slots[s.home(fp)]
	if sl.fp != fp || sl.at == 0 || sl.at == bareSlot {
		return sl.fp
	}
	seg, loc := &s.segs[len(s.segs)-1], sl.at-1
	if sl.id < seg.first {
		return sl.fp
	}
	return uint64(seg.chunks[loc>>arenaChunkBits][loc&(arenaChunk-1)])
}

// firstFor reports whether a key that missed lookup would be the first
// state stored under its fingerprint, known telling whether one is, and
// the budget applies: without a budget the answer is never needed.
func (s *VisitedStore) firstFor(known bool) bool {
	return s.budget >= 0 && !known
}

// store records key unconditionally; the caller has already decided
// freshness, retention and capacity. A bare state takes a slot and
// nothing else; a retained one also appends its record to the arena.
func (s *VisitedStore) store(fp uint64, key []byte, id int32, retain bool) {
	if overfull(int64(s.st.entries+1), int64(len(s.slots))) {
		s.grow()
	}
	at := uint32(bareSlot)
	if retain {
		at = s.appendKey(key, id)
	}
	s.place(slot{fp: fp, id: id, at: at})
	s.st.entries++
}

// appendKey appends id's key to the arena and returns its location in
// the last segment, which a key that needs a chunk past maxSegChunks
// starts afresh.
func (s *VisitedStore) appendKey(key []byte, id int32) uint32 {
	n := recordLen(len(key))
	var seg *segment
	room := 0 // what the last chunk has left
	if len(s.segs) > 0 {
		seg = &s.segs[len(s.segs)-1]
		c := seg.chunks[len(seg.chunks)-1]
		room = cap(c) - len(c)
	}
	if room < n {
		if seg == nil || int64(len(seg.chunks)) >= maxSegChunks {
			had := cap(s.segs)
			s.segs = append(s.segs, segment{first: id})
			s.st.setBytes += int64(cap(s.segs)-had) * segmentSize
			seg = &s.segs[len(s.segs)-1]
		}
		had := cap(seg.chunks)
		seg.chunks = append(seg.chunks, make([]byte, 0, max(arenaChunk, n)))
		s.st.setBytes += int64(max(arenaChunk, n)) + int64(cap(seg.chunks)-had)*sliceHeaderSize
	}
	last := len(seg.chunks) - 1
	at := 1 + (uint32(last)<<arenaChunkBits | uint32(len(seg.chunks[last])))
	seg.chunks[last] = append(binary.AppendUvarint(seg.chunks[last], uint64(len(key))), key...)
	s.st.arenaBytes += int64(len(key))
	return at
}

// place puts sl in the first empty slot of its run.
func (s *VisitedStore) place(sl slot) {
	mask := len(s.slots) - 1
	i := s.home(sl.fp)
	for s.slots[i].at != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = sl
}

// grown is the length of the table the next growth makes.
func (s *VisitedStore) grown() int {
	return max(2*len(s.slots), minSlots)
}

// grow doubles the table (or makes the first) and rehashes every slot
// into it.
func (s *VisitedStore) grow() {
	old := s.slots
	n := s.grown()
	s.slots, s.shift = make([]slot, n), uint8(64-bits.TrailingZeros(uint(n)))
	for _, sl := range old {
		if sl.at != 0 {
			s.place(sl)
		}
	}
	s.st.setBytes += int64(n-len(old)) * slotSize
}

// admit is the one decision on a fresh n-byte key about to be stored
// under id: whether it keeps its bytes — always, unless it is first for
// its fingerprint under a budget (see firstFor) that cannot take it —
// and whether the guards let it in. Every key needs a slot within
// maxSetSlots and an id in [0, maxNodeID) (ids are int32 everywhere),
// and a table that must grow to take it must fit beside what the search
// holds (guard). The budget is charged only when err is nil.
func (s *VisitedStore) admit(first bool, n int, id int64) (retain bool, err error) {
	retain = !first || s.retained+int64(n) <= s.budget
	entries := int64(s.st.entries + 1)
	switch {
	case overfull(entries, maxSetSlots):
		err = &CapacityError{Limit: "set slots", Max: maxSetSlots}
	case id < 0 || id >= maxNodeID:
		err = &CapacityError{Limit: "node ids", Max: maxNodeID}
	case s.guard != nil && len(s.slots) > 0 && overfull(entries, int64(len(s.slots))):
		// Both tables are held while the slots move across.
		err = s.guard(int64(s.grown()) * slotSize)
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
	got, hit, conflated, known := s.lookup(r.fp, r.key)
	if hit {
		r.id, r.fresh, r.conflated, r.bare = got, false, conflated, false
		return nil
	}
	retain, err := s.admit(s.firstFor(known), len(r.key), id)
	if err != nil {
		r.id, r.fresh, r.conflated, r.bare = 0, false, false, false
		return err
	}
	s.store(r.fp, r.key, int32(id), retain)
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
// slot (see touch) so their cache misses overlap. limit >= 0 stops
// after that many fresh inserts (the limiting request is still
// settled); processed reports how many leading requests were settled. A
// *CapacityError stops before the offending request, which is then
// reqs[processed].
func (s *VisitedStore) insertBatch(reqs []insertReq, baseID int32, limit int) (processed, fresh int, err error) {
	var touched uint64
	if len(s.slots) > 0 {
		for i := range reqs {
			touched += s.touch(reqs[i].fp)
		}
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
