package mc

import (
	"math"
	"math/bits"
)

// The visited set is the model checker's dominant memory consumer and
// the one decision every engine makes per successor: "have I stored this
// state?". VisitedStore is the only implementation: one open-addressed
// table of 16-byte slots over one log of the keys it keeps, per search or
// per distributed worker's Partition. Its one writer needs no shards: a
// sharded table cost every small search a table and a chunk per shard.
//
// A slot holds a stored state's fingerprint and a tagged location. Zero
// is an empty slot. bareSlot marks a state stored by
// fingerprint alone (hash compaction, Murphi lineage): it has no bytes,
// and every hit on it conflates — is taken as a duplicate on faith and
// surfaced to telemetry as an unverified hit. Anything else locates the
// state's canonical key in the key log; those bytes decide membership, so correctness never
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
// The retained keys live in a state log of their own (statelog.go): a
// list of arenaChunk-byte chunks filled front to back and never recopied
// (one contiguous slice would be recopied on every growth, a measured
// +15 % in allocated bytes and peak RSS on the sequential engine), each
// key behind a uvarint length prefix, none straddling chunks. The log
// keeps everything and is never released. A retained slot holds its
// key's log position, the offset plus one, so that its zero is the empty
// slot and the all-ones bareSlot is out of every chunk's reach.
//
// Concurrency contract: one writer. Every method is called by the
// single store thread (the sequential search loop, the pipelined merge,
// or a distributed worker's Partition); pipeline workers never touch the
// set, so nothing in it is locked. Nothing is ever removed or rewritten
// but by a rehash, which keeps every slot's content, so a hit, and
// whether it conflates, is stable over the whole run.

// slot is one stored state in the table: its fingerprint and, unless at
// is 0 (empty) or bareSlot, its key's position in the key log, at one
// past the offset.
type slot struct {
	fp        uint64
	chunk, at uint32
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

// VisitedStore is the visited set (see the package comment above). Every
// engine reaches it through the search core, a distributed worker as a
// Partition, which stores its owned slice of fingerprint space in one.
// In compact mode the budget is per store, and therefore per distributed
// worker rather than global across the fleet; see the distributed
// engine's docs for the (tiny) omission-probability consequence. Its
// exported constructor and Insert are for one outside caller, the
// benchmark's layer replay, which measures the set alone.
type VisitedStore struct {
	slots []slot // nil until the first insert, then a power of two long
	shift uint8  // 64 - log2(len(slots))
	keys  stateLog
	// entries counts the stored states, arenaBytes the key bytes kept:
	// everything for the exact store, only the verification cache for
	// the compact one.
	entries    int
	arenaBytes int64
	// budget is the retained-bytes budget for first-for-fingerprint
	// keys, -1 for none (keep every key); retained is how much of it is
	// spent.
	budget, retained int64
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
	s := &VisitedStore{budget: -1, keys: stateLog{size: arenaChunk, keep: true}}
	if store == StoreCompact {
		s.budget = compactVerifiedBudget
	}
	return s
}

// NewVisitedStore builds a store of the given mode outside a search, for
// the benchmark's layer replay; shards is ignored. The store has no
// memory guard.
func NewVisitedStore(store Store, shards int) *VisitedStore {
	return newVisitedStore(store)
}

// home is fp's first probe position; the table must not be empty.
func (s *VisitedStore) home(fp uint64) int {
	return int(fp * fibMul >> s.shift)
}

// lookup resolves key's membership: a bare slot for fp conflates, a
// retained one hits when its bytes equal key. known reports whether any
// state is stored under fp, the first-for-fingerprint question the
// budget asks.
func (s *VisitedStore) lookup(fp uint64, key []byte) (hit, conflated, known bool) {
	if len(s.slots) == 0 {
		return false, false, false
	}
	mask := len(s.slots) - 1
	for i := s.home(fp); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		switch {
		case sl.at == 0:
			return false, false, known
		case sl.fp != fp:
		case sl.at == bareSlot:
			return true, true, true
		default:
			if k, _ := s.keys.read(logPos{sl.chunk, sl.at - 1}); string(k) == string(key) {
				return true, false, true
			}
			known = true
		}
	}
}

// touch loads what a lookup of fp will read first — its home slot and,
// when that slot holds fp with bytes, the key's first byte — and returns
// something of it, so a batch can start every request's cache misses
// before it compares any key and have them overlap. The table must not
// be empty. It stays small enough to inline, which the overlap needs.
func (s *VisitedStore) touch(fp uint64) uint64 {
	sl := &s.slots[s.home(fp)]
	if sl.fp != fp || sl.at == 0 || sl.at == bareSlot {
		return sl.fp
	}
	return uint64(s.keys.chunks[sl.chunk][sl.at-1])
}

// firstFor reports whether a key that missed lookup would be the first
// state stored under its fingerprint, known telling whether one is, and
// the budget applies: without a budget the answer is never needed.
func (s *VisitedStore) firstFor(known bool) bool {
	return s.budget >= 0 && !known
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
}

// bytes is the set's whole footprint, read off its structures: the table
// at its length and the key log's chunks at their capacity, with their
// headers.
func (s *VisitedStore) bytes() int64 {
	return int64(len(s.slots))*slotSize + s.keys.held
}

// admit is the one decision on a fresh n-byte key about to be stored as
// state id: whether it keeps its bytes — always, unless it is first for
// its fingerprint under a budget (see firstFor) that cannot take it —
// and whether the guards let it in. Every key needs a slot within
// maxSetSlots and an id in [0, maxNodeID) (ids number the search's
// states, int32 everywhere), and a table that must grow to take it must
// fit beside what the search holds (guard).
func (s *VisitedStore) admit(first bool, n int, id int64) (retain bool, err error) {
	retain = !first || s.retained+int64(n) <= s.budget
	entries := int64(s.entries + 1)
	switch {
	case overfull(entries, maxSetSlots):
		err = &CapacityError{Limit: "set slots", Max: maxSetSlots}
	case id < 0 || id >= maxNodeID:
		err = &CapacityError{Limit: "node ids", Max: maxNodeID}
	case s.guard != nil && len(s.slots) > 0 && overfull(entries, int64(len(s.slots))):
		// Both tables are held while the slots move across.
		err = s.guard(int64(s.grown()) * slotSize)
	}
	return retain, err
}

// insert is the one insert-or-get path: lookup, then admit, then the
// key's append to the key log and its slot. It stores r.key (with
// fingerprint r.fp) as state id unless an equal key is present, and
// fills r's outputs: whether the insert was fresh, whether a duplicate
// verdict was unverifiable (compact conflation), and whether a fresh key
// was stored bare, so that every later verdict on it will be. A
// *CapacityError means nothing was stored and no budget was charged.
func (s *VisitedStore) insert(r *insertReq, id int64) error {
	hit, conflated, known := s.lookup(r.fp, r.key)
	r.fresh, r.conflated, r.bare = false, conflated, false
	if hit {
		return nil
	}
	first := s.firstFor(known)
	retain, err := s.admit(first, len(r.key), id)
	if err != nil {
		return err
	}
	sl := slot{fp: r.fp, at: bareSlot}
	if retain {
		pos, err := s.keys.append(r.key)
		if err != nil {
			return err
		}
		sl.chunk, sl.at = pos.chunk, pos.at+1
		s.arenaBytes += int64(len(r.key))
		if first {
			s.retained += int64(len(r.key))
		}
	}
	if overfull(int64(s.entries+1), int64(len(s.slots))) {
		s.grow()
	}
	s.place(sl)
	s.entries++
	r.fresh, r.bare = true, !retain
	return nil
}

// Insert settles one key through insert, for the benchmark's layer
// replay. The set keeps no ids: gotID is id when the key was stored and
// -1 when it was a duplicate or refused.
func (s *VisitedStore) Insert(fp uint64, key []byte, id int32) (gotID int32, fresh, conflated bool, err error) {
	r := insertReq{fp: fp, key: key}
	err = s.insert(&r, int64(id))
	if !r.fresh {
		id = -1
	}
	return id, r.fresh, r.conflated, err
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
	return s.entries, s.arenaBytes, s.bytes()
}
