package mc

// compactSet is the hash-compacted visited set (Murphi lineage): a
// stored state is represented by its 64-bit fingerprint and node id,
// not its canonical bytes. A bounded verified-bytes cache keeps the
// canonical bytes of the first states stored (in storage order, until
// compactVerifiedBudget is spent) so fingerprint collisions among them
// are detected and chained past exactly like the exact store would;
// once the budget is spent, a fingerprint match on an uncached entry
// is taken as a duplicate on faith — a conflation, surfaced to
// telemetry as an unverified hit.
//
// Determinism: every decision (conflate vs verify, budget charging,
// id assignment) depends only on the storage order, which the engines'
// parity contract already pins identical, so compact runs produce the
// same result on every engine — the compact parity suite rests on
// this.
//
// Concurrency contract matches shardedSet: probes under RLock from any
// goroutine; inserts only from the single store thread, which is also
// the only writer of the budget counter.

// compactEntry is one verified collision-chain member: a state whose
// fingerprint collided with an earlier verified entry. Chain members
// always keep their bytes (collisions are rare, conflating two
// already-distinguished states would be gratuitous) and are appended
// in storage order, so the chain is searched oldest-first.
type compactEntry struct {
	id  int32
	key []byte
}

type compactShard struct {
	mu stripeLock
	// ids maps a fingerprint to the node id of the first state stored
	// under it — the id an unverifiable hit resolves to.
	ids map[uint64]int32
	// verified holds the canonical bytes of fingerprints whose first
	// state fit the verified-bytes budget; absent means hits on that
	// fingerprint conflate.
	verified map[uint64][]byte
	// chains holds verified colliders, keyed by fingerprint.
	chains map[uint64][]compactEntry
	// chainN/chainBytes track chain footprint for stats.
	chainN     int
	chainBytes int64
}

// lookup resolves key's membership. The caller must hold the shard
// lock, or be the store thread (the sole writer).
func (sh *compactShard) lookup(fp uint64, key []byte) (id int32, hit, conflated bool) {
	first, ok := sh.ids[fp]
	if !ok {
		return 0, false, false
	}
	bytes, verifiable := sh.verified[fp]
	if !verifiable {
		// Hash compaction proper: the fingerprint matches and there is
		// nothing to verify against, so assume a duplicate. ids[fp] and
		// the absence of verified[fp] are both immutable once set, so
		// this verdict is stable over the whole run — a speculative
		// worker probe and the authoritative store agree.
		return first, true, true
	}
	if string(bytes) == string(key) {
		return first, true, false
	}
	for _, e := range sh.chains[fp] {
		if string(e.key) == string(key) {
			return e.id, true, false
		}
	}
	return 0, false, false
}

// store appends key's entry; the caller holds the write lock and has
// already decided freshness (lookup missed) and retention. retain only
// applies to first-for-fingerprint entries; colliders always keep
// their bytes.
func (sh *compactShard) store(fp uint64, key []byte, id int32, retain bool) {
	if _, ok := sh.ids[fp]; !ok {
		sh.ids[fp] = id
		if retain {
			sh.verified[fp] = append([]byte(nil), key...)
		}
		return
	}
	sh.chains[fp] = append(sh.chains[fp], compactEntry{id: id, key: append([]byte(nil), key...)})
	sh.chainN++
	sh.chainBytes += int64(len(key))
}

type compactSet struct {
	shards []compactShard
	mask   uint64
	// retained is the verified-bytes budget consumed so far; store
	// thread only, charged in storage order.
	retained int64
}

// newCompactSet builds a compact set with shardCount(n) shards.
func newCompactSet(n int) *compactSet {
	size := shardCount(n)
	s := &compactSet{shards: make([]compactShard, size), mask: uint64(size - 1)}
	for i := range s.shards {
		s.shards[i].ids = make(map[uint64]int32)
		s.shards[i].verified = make(map[uint64][]byte)
		s.shards[i].chains = make(map[uint64][]compactEntry)
	}
	return s
}

func (s *compactSet) shardIdx(fp uint64) uint32 {
	return uint32(FingerprintMix(fp) & s.mask)
}

func (s *compactSet) probe(fp uint64, key []byte) (int32, bool, bool) {
	sh := &s.shards[s.shardIdx(fp)]
	sh.mu.rlock(fp)
	defer sh.mu.RUnlock()
	return sh.lookup(fp, key)
}

func (s *compactSet) probeBatch(reqs []probeReq, sc *setScratch) {
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

func (s *compactSet) insert(fp uint64, key []byte, id int32) (int32, bool, bool, error) {
	sh := &s.shards[s.shardIdx(fp)]
	// Inlined lookup, keeping the fp-known result so the fresh path
	// does not re-probe the ids map. Unlocked reads: the store thread
	// is the sole writer.
	first, fpKnown := sh.ids[fp]
	retain := false
	if fpKnown {
		bytes, verifiable := sh.verified[fp]
		if !verifiable {
			return first, false, true, nil
		}
		if string(bytes) == string(key) {
			return first, false, false, nil
		}
		dup := false
		var dupID int32
		for _, e := range sh.chains[fp] {
			if string(e.key) == string(key) {
				dup, dupID = true, e.id
				break
			}
		}
		if dup {
			return dupID, false, false, nil
		}
	} else {
		// Fresh first-for-fingerprint: decide retention before taking
		// the lock (the budget is store-thread state).
		if retain = !compactBudgetExhausted(s.retained, len(key)); retain {
			s.retained += int64(len(key))
		}
	}
	sh.mu.Lock()
	sh.store(fp, key, id, retain)
	sh.mu.Unlock()
	return id, true, false, nil
}

func (s *compactSet) insertBatch(reqs []insertReq, baseID int32, limit int, sc *setScratch) (int, int, error) {
	// Pre-pass, store-thread only: settle duplicate status, retention,
	// and id assignment in request order with unlocked reads (this
	// goroutine is the sole writer; concurrent probes are read-only).
	sc.pend, sc.pendShard, sc.pendRetain = sc.pend[:0], sc.pendShard[:0], sc.pendRetain[:0]
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
		if got, hit, conflated := sh.lookup(r.fp, r.key); hit {
			r.id, r.conflated = got, conflated
			continue
		}
		_, fpKnown := sh.ids[r.fp]
		// Replay this batch's pending inserts against the same
		// semantics lookup applies to stored entries, so a batch settles
		// exactly like a one-at-a-time insert sequence.
		dup := false
		for k, j := range sc.pend {
			p := &reqs[j]
			if p.fp != r.fp || sc.pendShard[k] != shard {
				continue
			}
			if !fpKnown && !sc.pendRetain[k] && firstForFp(reqs, sc, k, shard) {
				// The pending first-for-fp kept no bytes: conflate.
				r.id, r.conflated = p.id, true
				dup = true
				break
			}
			if string(p.key) == string(r.key) {
				r.id = p.id
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if int64(baseID)+int64(fresh) >= maxNodeID {
			err = &CapacityError{Limit: "node ids", Max: maxNodeID}
			processed = i
			break pre
		}
		// Retention: only a first-for-fingerprint entry charges the
		// budget; colliders always keep bytes.
		pendingSameFp := false
		for k, j := range sc.pend {
			if reqs[j].fp == r.fp && sc.pendShard[k] == shard {
				pendingSameFp = true
				break
			}
		}
		if !fpKnown && !pendingSameFp {
			if r.retain = !compactBudgetExhausted(s.retained, len(r.key)); r.retain {
				s.retained += int64(len(r.key))
			}
		}
		r.fresh = true
		r.id = baseID + int32(fresh)
		fresh++
		sc.pend = append(sc.pend, int32(i))
		sc.pendShard = append(sc.pendShard, shard)
		sc.pendRetain = append(sc.pendRetain, r.retain)
		if limit >= 0 && fresh >= limit {
			processed = i + 1
			break pre
		}
	}

	// Apply pass: group the fresh inserts by shard and take each write
	// lock once, storing in request order so chains match a
	// one-at-a-time insert sequence exactly.
	if len(sc.pend) > 0 {
		sc.group(processed, func(i int) bool { return reqs[i].fresh }, func(i int) uint32 { return s.shardIdx(reqs[i].fp) })
		sc.runs(func(shard uint32, idx []int32) {
			sh := &s.shards[shard]
			sh.mu.lock(reqs[idx[0]].fp)
			for _, i := range idx {
				r := &reqs[i]
				sh.store(r.fp, r.key, r.id, r.retain)
			}
			sh.mu.Unlock()
		})
	}
	return processed, fresh, err
}

// firstForFp reports whether pending slot k is the first pending entry
// with its fingerprint in its shard — the one whose insert will create
// ids[fp] (when the fingerprint is not already stored).
func firstForFp(reqs []insertReq, sc *setScratch, k int, shard uint32) bool {
	fp := reqs[sc.pend[k]].fp
	for k2 := 0; k2 < k; k2++ {
		if sc.pendShard[k2] == shard && reqs[sc.pend[k2]].fp == fp {
			return false
		}
	}
	return true
}

func (s *compactSet) stats() setStats {
	var st setStats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		var vbytes int64
		for _, b := range sh.verified {
			vbytes += int64(len(b))
		}
		st.entries += len(sh.ids) + sh.chainN
		st.arenaBytes += vbytes + sh.chainBytes
		// Footprint: ids map slots, verified map slots + slice headers +
		// cached bytes, chain entries (id + slice header) + their bytes.
		st.setBytes += int64(len(sh.ids))*mapSlotSize +
			int64(len(sh.verified))*(mapSlotSize+sliceHeaderSize) + vbytes +
			int64(sh.chainN)*(4+sliceHeaderSize) + sh.chainBytes
		sh.mu.RUnlock()
	}
	return st
}

func (s *compactSet) lockWait() (ns, samples int64) {
	for i := range s.shards {
		sh := &s.shards[i]
		ns += sh.mu.waitNS.Load()
		samples += sh.mu.waitN.Load()
	}
	return ns, samples
}
