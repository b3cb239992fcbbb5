package mc

import (
	"sync"
	"sync/atomic"
	"time"
)

// The visited set is the model checker's dominant memory consumer.
// shardedSet is the exact store every engine uses: N lock-striped
// shards keyed by a 64-bit FNV-1a fingerprint. Each shard holds a
// compact map[uint64]int32 into an entry table, and keeps the full
// canonical bytes in a chunked per-shard byte arena used only to verify
// (and chain past) the rare fingerprint collisions — correctness never
// rests on 64-bit hashes alone.
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
// Concurrency contract: probe takes a read lock and may run from any
// number of worker goroutines; insert takes a write lock and is only
// ever called by the single store thread (the sequential search loop or
// the pipelined merge). Entries are never removed, so a successful
// probe is stable: a state seen in the set stays in the set.

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
	mu      stripeLock
	m       map[uint64]int32 // fingerprint → index of chain head in entries
	entries []setEntry
	chunks  [][]byte // canonical state bytes; see the package comment above
	fill    arenaFill
	keyLen  int64 // canonical bytes stored, for telemetry
}

type shardedSet struct {
	shards []setShard
	mask   uint64
}

// newShardedSet builds a set with shardCount(n) shards.
func newShardedSet(n int) *shardedSet {
	size := shardCount(n)
	s := &shardedSet{shards: make([]setShard, size), mask: uint64(size - 1)}
	for i := range s.shards {
		s.shards[i].m = make(map[uint64]int32)
	}
	return s
}

// shardIdx picks the stripe: the shared mix (fphash.go) keeps the
// index independent of the map's use of the low bits.
func (s *shardedSet) shardIdx(fp uint64) uint32 {
	return uint32(FingerprintMix(fp) & s.mask)
}

// lookup walks fp's collision chain for key. The caller must hold the
// shard lock, or be the store thread (the sole writer).
func (sh *setShard) lookup(fp uint64, key []byte) (int32, bool) {
	idx, ok := sh.m[fp]
	for ok {
		e := &sh.entries[idx]
		at := e.off & (arenaChunk - 1)
		if string(sh.chunks[e.off>>arenaChunkBits][at:at+e.n]) == string(key) {
			return e.id, true
		}
		idx = e.next
		ok = idx >= 0
	}
	return 0, false
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
// and has already checked freshness and capacity. New entries are
// prepended to the fingerprint's chain (next = old head), so chain
// iteration runs newest-first — ids stay stable regardless because an
// equal key is never inserted twice.
func (sh *setShard) append(fp uint64, key []byte, id int32) {
	if sh.fill.add(len(key)) {
		sh.chunks = append(sh.chunks, make([]byte, 0, max(arenaChunk, len(key))))
	}
	last := len(sh.chunks) - 1
	off := uint32(last)<<arenaChunkBits | uint32(len(sh.chunks[last]))
	sh.chunks[last] = append(sh.chunks[last], key...)
	sh.keyLen += int64(len(key))
	next := int32(-1)
	if head, collision := sh.m[fp]; collision {
		next = head
	}
	sh.entries = append(sh.entries, setEntry{id: id, next: next, off: off, n: uint32(len(key))})
	sh.m[fp] = int32(len(sh.entries) - 1)
}

// probe reports whether key (with fingerprint fp) is already stored,
// returning its node id. Read-only; safe from any goroutine. The third
// result (conflated) is always false: exact-store hits are verified.
func (s *shardedSet) probe(fp uint64, key []byte) (int32, bool, bool) {
	sh := &s.shards[s.shardIdx(fp)]
	sh.mu.rlock(fp)
	defer sh.mu.RUnlock()
	id, hit := sh.lookup(fp, key)
	return id, hit, false
}

// probeBatch resolves all requests with one read-lock acquisition per
// touched shard, in shard-grouped order (results land back in request
// positions, so callers see request order).
func (s *shardedSet) probeBatch(reqs []probeReq, sc *setScratch) {
	sc.group(len(reqs), nil, func(i int) uint32 { return s.shardIdx(reqs[i].fp) })
	sc.runs(func(shard uint32, idx []int32) {
		sh := &s.shards[shard]
		sh.mu.rlock(reqs[idx[0]].fp)
		for _, i := range idx {
			r := &reqs[i]
			_, r.hit = sh.lookup(r.fp, r.key)
		}
		sh.mu.RUnlock()
	})
}

// insert stores key with node id unless an equal key is present,
// returning the surviving id and whether the insert was fresh. Store
// thread only.
func (s *shardedSet) insert(fp uint64, key []byte, id int32) (int32, bool, bool, error) {
	sh := &s.shards[s.shardIdx(fp)]
	sh.mu.lock(fp)
	defer sh.mu.Unlock()
	if got, ok := sh.lookup(fp, key); ok {
		return got, false, false, nil
	}
	if err := sh.capacity(0, sh.fill, len(key)); err != nil {
		return 0, false, false, err
	}
	sh.append(fp, key, id)
	return id, true, false, nil
}

// insertBatch settles reqs per the visitedSet contract: a lock-free
// pre-pass (this goroutine is the sole writer, so its unlocked reads
// cannot race the write-locked appends it performs itself) decides
// duplicate status, ids, and capacity in request order; the apply pass
// then takes each touched shard's write lock once.
func (s *shardedSet) insertBatch(reqs []insertReq, baseID int32, limit int, sc *setScratch) (int, int, error) {
	sc.pend, sc.pendShard = sc.pend[:0], sc.pendShard[:0]
	processed := len(reqs)
	fresh := 0
	var err error
pre:
	for i := range reqs {
		r := &reqs[i]
		if r.skip {
			continue
		}
		r.fresh, r.id, r.conflated, r.retain = false, 0, false, false
		shard := s.shardIdx(r.fp)
		sh := &s.shards[shard]
		if got, ok := sh.lookup(r.fp, r.key); ok {
			r.id = got
			continue
		}
		// Duplicate of an earlier fresh insert in this same batch?
		dup := false
		for _, j := range sc.pend {
			p := &reqs[j]
			if p.fp == r.fp && string(p.key) == string(r.key) {
				r.id = p.id
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		// Capacity guards must count this batch's still-pending inserts
		// into the same shard, or a batch could overshoot the caps.
		pending, fill := 0, sh.fill
		for k, j := range sc.pend {
			if sc.pendShard[k] == shard {
				pending++
				fill.add(len(reqs[j].key))
			}
		}
		if err = sh.capacity(pending, fill, len(r.key)); err == nil && int64(baseID)+int64(fresh) >= maxNodeID {
			err = &CapacityError{Limit: "node ids", Max: maxNodeID}
		}
		if err != nil {
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
				sh.append(r.fp, r.key, r.id)
			}
			sh.mu.Unlock()
		})
	}
	return processed, fresh, err
}

// stats reports the stored entry count and footprint across all
// shards, for telemetry.
func (s *shardedSet) stats() setStats {
	var st setStats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		var chunkBytes int64
		for _, c := range sh.chunks {
			chunkBytes += int64(cap(c)) + sliceHeaderSize
		}
		st.entries += len(sh.entries)
		st.arenaBytes += sh.keyLen
		st.setBytes += chunkBytes +
			int64(len(sh.entries))*setEntrySize + int64(len(sh.m))*mapSlotSize
		sh.mu.RUnlock()
	}
	return st
}

// lockWait sums the sampled lock-acquisition wait across all shards:
// total nanoseconds waited and the number of sampled acquisitions.
func (s *shardedSet) lockWait() (ns, samples int64) {
	for i := range s.shards {
		sh := &s.shards[i]
		ns += sh.mu.waitNS.Load()
		samples += sh.mu.waitN.Load()
	}
	return ns, samples
}
