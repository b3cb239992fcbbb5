package mc

import (
	"sync"
	"sync/atomic"
	"time"
)

// The visited set is the model checker's dominant memory consumer and
// the one decision every engine makes per successor: "have I stored this
// state?". VisitedStore is the only implementation: N lock-striped
// shards keyed by a 64-bit FNV-1a fingerprint, each a map[uint64]int32
// whose value is tagged.
//
//   - v >= 0 is the head index of a byte-verified collision chain in the
//     shard's entry table; the entries' canonical bytes live in a chunked
//     per-shard arena and decide membership, so correctness never rests
//     on the 64-bit hash.
//   - v < 0 is ^id of a state stored by fingerprint alone (hash
//     compaction, Murphi lineage): it has no entry record and no bytes,
//     just the map slot, and every hit on it conflates — is taken as a
//     duplicate on faith and surfaced to telemetry as an unverified hit.
//
// Which states keep their bytes is a retained-bytes budget. With no
// budget (StoreExact) every key is kept and no value is ever negative.
// With a finite one (StoreCompact, compactVerifiedBudget) the first
// state stored under a fingerprint keeps its bytes while the budget
// lasts and is stored bare after; a state whose fingerprint collides
// with a verified chain always keeps its bytes, uncharged (collisions
// are rare, and conflating two states already told apart would be
// gratuitous). The budget is charged in storage order, which the
// engines' parity contract pins identical, so compact runs produce the
// same result on every engine.
//
// The arena is a list of fixed arenaChunk-byte chunks that are filled
// front to back and never recopied (one contiguous slice would be
// recopied on every growth, a measured +15 % in allocated bytes and
// peak RSS on the sequential engine). A key never straddles chunks: one
// that does not fit the current chunk's remainder starts the next, and
// one longer than a chunk gets a chunk of its own. Entries stay 16
// bytes and pointer-free by packing the location as
// off = chunk<<arenaChunkBits | offset-within-chunk.
//
// Concurrency contract: probeBatch takes read locks and may run from
// any number of worker goroutines. Insert and insertBatch are only ever
// called by the single store thread (the sequential search loop, the
// pipelined merge, or a distributed worker's settle), which is also the
// only writer of the budget counter; because it is the sole writer it
// decides duplicate status with unlocked reads and takes a shard's write
// lock only to append. Nothing is ever removed or rewritten — a map
// value changes only from one chain head to a newer one — so a hit, and
// whether it conflates, is stable over the whole run: a worker's early
// probe and the store thread's authoritative insert agree.

// DefaultShards is the shard count the engines use when the caller
// passes 0. Striping only has to out-provision the worker count; 64
// keeps per-shard maps dense at paper-scale state counts.
const DefaultShards = 64

// lockSampleMask selects which acquisitions get their lock-wait timed:
// fingerprints with the low 6 bits clear, i.e. a deterministic 1-in-64
// sample, so contention profiling costs two clock reads per 64 probes
// rather than per probe.
const lockSampleMask = 63

// arenaChunkBits sizes the arena chunks (4 KiB). Larger chunks cost a
// small search real memory — every touched stripe holds at least one.
const (
	arenaChunkBits = 12
	arenaChunk     = 1 << arenaChunkBits
)

// setEntry is one stored state: its node id plus the location of its
// canonical bytes in the shard arena, chained on fingerprint collision.
type setEntry struct {
	id   int32
	next int32  // index of the next entry with the same fingerprint, -1 = none
	off  uint32 // chunk<<arenaChunkBits | offset within the chunk
	n    uint32
}

// arenaFill tracks how full a chunked arena is: the chunk count and the
// free bytes left in the last chunk. The capacity guards replay pending
// keys through it, so a batch trips the chunk limit exactly where a
// one-at-a-time insert sequence would.
type arenaFill struct {
	chunks int
	free   int
}

// add accounts one n-byte key, reporting whether it opens a new chunk.
func (f *arenaFill) add(n int) bool {
	if f.chunks > 0 && n <= f.free {
		f.free -= n
		return false
	}
	f.chunks++
	f.free = max(arenaChunk, n) - n
	return true
}

// stripeLock is one shard's lock plus the sampled wait to acquire it
// (see lockSampleMask): how long callers waited for this stripe, a
// direct read on contention. Atomic because probes run from every
// worker.
type stripeLock struct {
	sync.RWMutex
	waitNS, waitN atomic.Int64
}

// lock write-locks on behalf of fingerprint fp; rlock read-locks.
func (l *stripeLock) lock(fp uint64) {
	if fp&lockSampleMask != 0 {
		l.Lock()
		return
	}
	t0 := time.Now()
	l.Lock()
	l.waitNS.Add(int64(time.Since(t0)))
	l.waitN.Add(1)
}

func (l *stripeLock) rlock(fp uint64) {
	if fp&lockSampleMask != 0 {
		l.RLock()
		return
	}
	t0 := time.Now()
	l.RLock()
	l.waitNS.Add(int64(time.Since(t0)))
	l.waitN.Add(1)
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
	mu stripeLock
	// m maps a fingerprint to its tagged value: >= 0 the index of its
	// verified chain's head in entries, < 0 the ^id of the one state
	// stored under it without bytes (see the package comment above).
	m       map[uint64]int32
	entries []setEntry
	chunks  [][]byte // canonical state bytes of entries
	fill    arenaFill
}

// VisitedStore is the visited set (see the package comment above). The
// in-process engines reach it through the search core; out-of-package
// engines — the distributed workers (internal/dist) store their owned
// slice of fingerprint space in one — get the single-threaded
// insert-or-get path, Insert, so exact and compact dedup semantics are
// shared by construction rather than re-implemented. In compact mode
// the budget is per store, and therefore per distributed worker rather
// than global across the fleet; see the distributed engine's docs for
// the (tiny) omission-probability consequence.
type VisitedStore struct {
	shards []setShard
	mask   uint64
	// budget is the retained-bytes budget for first-for-fingerprint
	// keys, -1 for none (keep every key); retained is how much of it is
	// spent. Store thread only.
	budget, retained int64
	st               setStats // the footprint so far; store thread only
}

// newVisitedStore builds a store of the given mode with shardCount(n)
// shards.
func newVisitedStore(store Store, n int) *VisitedStore {
	size := shardCount(n)
	s := &VisitedStore{shards: make([]setShard, size), mask: uint64(size - 1), budget: -1}
	if store == StoreCompact {
		s.budget = compactVerifiedBudget
	}
	for i := range s.shards {
		s.shards[i].m = make(map[uint64]int32)
	}
	return s
}

// NewVisitedStore builds a store of the given mode for an
// out-of-package engine. shards <= 0 selects a single shard, the right
// choice for a single-threaded owner (striping only pays off under
// concurrent probes).
func NewVisitedStore(store Store, shards int) *VisitedStore {
	if shards <= 0 {
		shards = 1
	}
	return newVisitedStore(store, shards)
}

// shardIdx picks the stripe: the shared mix (fphash.go) keeps the
// index independent of the map's use of the low bits.
func (s *VisitedStore) shardIdx(fp uint64) uint32 {
	return uint32(FingerprintMix(fp) & s.mask)
}

// lookup resolves key's membership: a bare fingerprint conflates, a
// verified chain is walked for an equal key. The caller must hold the
// shard lock, or be the store thread (the sole writer).
func (sh *setShard) lookup(fp uint64, key []byte) (id int32, hit, conflated bool) {
	idx, ok := sh.m[fp]
	if ok && idx < 0 {
		return ^idx, true, true
	}
	for ok {
		e := &sh.entries[idx]
		at := e.off & (arenaChunk - 1)
		if string(sh.chunks[e.off>>arenaChunkBits][at:at+e.n]) == string(key) {
			return e.id, true, false
		}
		idx = e.next
		ok = idx >= 0
	}
	return 0, false, false
}

// capacity reports the guard error, if any, for storing one more
// keyLen-byte entry. pending and fill account for a batch's earlier
// fresh inserts into this shard that are not applied yet (0 and sh.fill
// for a single insert). Checked before every append so the int32 entry
// indices and the chunk index packed into uint32 offsets can never wrap
// (the silent-wrap bug this guard replaced corrupted collision chains
// past 2^31 entries or a 4 GiB per-shard arena).
func (sh *setShard) capacity(pending int, fill arenaFill, keyLen int) error {
	if int64(len(sh.entries)+pending) >= maxShardEntries {
		return &CapacityError{Limit: "shard entries", Max: maxShardEntries}
	}
	if fill.add(keyLen) && int64(fill.chunks) > maxShardChunks {
		return &CapacityError{Limit: "shard arena chunks", Max: maxShardChunks}
	}
	return nil
}

// append stores key unconditionally; the caller holds the write lock
// and has already decided freshness, retention and capacity. A bare
// state takes the fingerprint's map slot and nothing else. A retained
// one is prepended to the fingerprint's chain (next = old head), so
// chain iteration runs newest-first — ids stay stable regardless
// because an equal key is never inserted twice. st is the store's
// footprint, which append keeps.
func (sh *setShard) append(fp uint64, key []byte, id int32, retain bool, st *setStats) {
	st.entries++
	if !retain {
		sh.m[fp] = ^id
		st.setBytes += mapSlotSize
		return
	}
	if sh.fill.add(len(key)) {
		sh.chunks = append(sh.chunks, make([]byte, 0, max(arenaChunk, len(key))))
		st.setBytes += int64(max(arenaChunk, len(key))) + sliceHeaderSize
	}
	last := len(sh.chunks) - 1
	off := uint32(last)<<arenaChunkBits | uint32(len(sh.chunks[last]))
	sh.chunks[last] = append(sh.chunks[last], key...)
	st.arenaBytes += int64(len(key))
	st.setBytes += setEntrySize
	next := int32(-1)
	if head, collision := sh.m[fp]; collision {
		next = head
	} else {
		st.setBytes += mapSlotSize
	}
	sh.entries = append(sh.entries, setEntry{id: id, next: next, off: off, n: uint32(len(key))})
	sh.m[fp] = int32(len(sh.entries) - 1)
}

// firstFor reports whether a key that just missed lookup would be the
// first state stored under fp, the only kind the budget applies to.
// Without a budget the answer is never needed, so the map is not asked.
func (s *VisitedStore) firstFor(sh *setShard, fp uint64) bool {
	if s.budget < 0 {
		return false
	}
	_, known := sh.m[fp]
	return !known
}

// admit is the one decision on a fresh n-byte key about to be stored in
// sh under id: whether it keeps its bytes — always, unless it is first
// for its fingerprint and the budget cannot take it — and whether the
// guards let it in. A retained key needs an entry and arena room
// (pending and fill as for capacity); every key needs an id in
// [0, maxNodeID): ids are int32 everywhere and the map value's sign bit
// is the bare-state tag. The budget is charged only when err is nil.
func (s *VisitedStore) admit(sh *setShard, first bool, pending int, fill arenaFill, n int, id int64) (retain bool, err error) {
	retain = !first || s.retained+int64(n) <= s.budget
	if retain {
		err = sh.capacity(pending, fill, n)
	}
	if err == nil && (id < 0 || id >= maxNodeID) {
		err = &CapacityError{Limit: "node ids", Max: maxNodeID}
	}
	if err == nil && first && retain {
		s.retained += int64(n)
	}
	return retain, err
}

// probeBatch resolves all requests with one read-lock acquisition per
// touched shard, in shard-grouped order (results land back in request
// positions, so callers see request order). Read-only; safe from any
// goroutine.
func (s *VisitedStore) probeBatch(reqs []probeReq, sc *setScratch) {
	sc.group(len(reqs), nil, func(i int) uint32 { return s.shardIdx(reqs[i].fp) })
	sc.runs(func(shard uint32, idx []int32) {
		sh := &s.shards[shard]
		sh.mu.rlock(reqs[idx[0]].fp)
		for _, i := range idx {
			r := &reqs[i]
			_, r.hit, r.conflated = sh.lookup(r.fp, r.key)
		}
		sh.mu.RUnlock()
	})
}

// Insert stores key (with fingerprint fp) under id unless an equal key
// is present, returning the surviving id, whether the insert was
// fresh, and whether a duplicate verdict was unverifiable (compact
// conflation). A *CapacityError means nothing was stored. Store thread
// only.
func (s *VisitedStore) Insert(fp uint64, key []byte, id int32) (gotID int32, fresh, conflated bool, err error) {
	sh := &s.shards[s.shardIdx(fp)]
	if got, hit, conflated := sh.lookup(fp, key); hit {
		return got, false, conflated, nil
	}
	retain, err := s.admit(sh, s.firstFor(sh, fp), 0, sh.fill, len(key), int64(id))
	if err != nil {
		return 0, false, false, err
	}
	sh.mu.lock(fp)
	sh.append(fp, key, id, retain, &s.st)
	sh.mu.Unlock()
	return id, true, false, nil
}

// insertBatch settles reqs in order with ids baseID, baseID+1, …
// assigned to fresh entries, taking each touched shard's write lock at
// most once. limit >= 0 stops processing after that many fresh inserts
// (the limiting request is still processed); processed reports how many
// leading requests were settled. A *CapacityError stops before the
// offending request, which is then reqs[processed]; everything before
// it is fully applied. Store thread only: the pre-pass decides duplicate
// status, retention, ids and capacity in request order with unlocked
// reads, and the apply pass then appends under the locks.
func (s *VisitedStore) insertBatch(reqs []insertReq, baseID int32, limit int, sc *setScratch) (processed, fresh int, err error) {
	sc.pend, sc.pendShard = sc.pend[:0], sc.pendShard[:0]
	processed = len(reqs)
pre:
	for i := range reqs {
		r := &reqs[i]
		if r.skip {
			continue
		}
		r.fresh, r.id, r.conflated, r.retain = false, 0, false, false
		shard := s.shardIdx(r.fp)
		sh := &s.shards[shard]
		if got, hit, conflated := sh.lookup(r.fp, r.key); hit {
			r.id, r.conflated = got, conflated
			continue
		}
		// Replay this batch's pending inserts into the shard against the
		// semantics lookup applies to stored entries, so a batch settles
		// exactly like a one-at-a-time insert sequence; and count the
		// entries and arena bytes they will take, or a batch could
		// overshoot the caps.
		first := s.firstFor(sh, r.fp)
		pending, fill := 0, sh.fill
		for k, j := range sc.pend {
			if sc.pendShard[k] != shard {
				continue
			}
			p := &reqs[j]
			if p.retain {
				pending++
				fill.add(len(p.key))
			}
			if p.fp != r.fp {
				continue
			}
			first = false
			// A pending entry without bytes is necessarily the first for
			// its fingerprint (colliders always keep theirs): conflate.
			if !p.retain || string(p.key) == string(r.key) {
				r.id, r.conflated = p.id, !p.retain
				continue pre
			}
		}
		if r.retain, err = s.admit(sh, first, pending, fill, len(r.key), int64(baseID)+int64(fresh)); err != nil {
			processed = i
			break pre
		}
		r.fresh = true
		r.id = baseID + int32(fresh)
		fresh++
		sc.pend = append(sc.pend, int32(i))
		sc.pendShard = append(sc.pendShard, shard)
		if limit >= 0 && fresh >= limit {
			processed = i + 1
			break pre
		}
	}

	// Apply pass: one write lock per touched shard, appending in
	// request order so collision chains match a one-at-a-time insert
	// sequence exactly.
	if len(sc.pend) > 0 {
		sc.group(processed, func(i int) bool { return reqs[i].fresh }, func(i int) uint32 { return s.shardIdx(reqs[i].fp) })
		sc.runs(func(shard uint32, idx []int32) {
			sh := &s.shards[shard]
			sh.mu.lock(reqs[idx[0]].fp)
			for _, i := range idx {
				r := &reqs[i]
				sh.append(r.fp, r.key, r.id, r.retain, &s.st)
			}
			sh.mu.Unlock()
		})
	}
	return processed, fresh, err
}

// Stats reports the stored state count and approximate footprint.
func (s *VisitedStore) Stats() (entries int, arenaBytes, setBytes int64) {
	return s.st.entries, s.st.arenaBytes, s.st.setBytes
}

// lockWait sums the sampled lock-acquisition wait across all shards:
// total nanoseconds waited and the number of sampled acquisitions.
func (s *VisitedStore) lockWait() (ns, samples int64) {
	for i := range s.shards {
		sh := &s.shards[i]
		ns += sh.mu.waitNS.Load()
		samples += sh.mu.waitN.Load()
	}
	return ns, samples
}
