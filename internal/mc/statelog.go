package mc

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// stateLog holds the stored states' raw bytes back to back in storage
// order, each behind a uvarint length prefix: where a state lives from
// the insert that stores it to the expansion that consumes it. Like the
// set arena (shardset.go) it is a list of fixed-size chunks filled front
// to back and never recopied; a state never straddles chunks, and one
// longer than a chunk gets its own. One log, three disciplines (DESIGN
// §5.15): keep (traces on) releases nothing; else BFS uses it as a queue
// (release) and DFS as a stack that holds exactly the DFS stack's states,
// in order (truncate). Bytes handed out alias the chunks and die with
// them. Store thread only, but for workers reading what they were lent.
type stateLog struct {
	chunks [][]byte // nil once released
	low    int      // chunks below this index are released
	free   [][]byte // released logChunk-sized chunks, emptied
	held   int64    // bytes of every chunk held, free list included
	keep   bool
}

// logPos locates one state: its chunk (guarded by maxLogChunks, never
// wrapped) and the offset of its length prefix.
type logPos struct{ chunk, at uint32 }

// append stores state at the tail and returns where.
func (l *stateLog) append(state []byte) (logPos, error) {
	need := binary.MaxVarintLen32 + len(state)
	last := len(l.chunks) - 1
	if last < 0 || cap(l.chunks[last])-len(l.chunks[last]) < need {
		if int64(len(l.chunks)) >= maxLogChunks {
			return logPos{}, &CapacityError{Limit: "state log chunks", Max: maxLogChunks}
		}
		var c []byte
		if n := len(l.free); n > 0 && need <= logChunk {
			c, l.free = l.free[n-1], l.free[:n-1]
		} else {
			c = make([]byte, 0, max(logChunk, need))
			l.held += int64(cap(c)) + sliceHeaderSize
		}
		l.chunks = append(l.chunks, c)
		last++
	}
	c := l.chunks[last]
	pos := logPos{uint32(last), uint32(len(c))}
	l.chunks[last] = append(binary.AppendUvarint(c, uint64(len(state))), state...)
	return pos, nil
}

// read returns the state at pos and the position after it. pos may be
// the end of a finished chunk, which is the start of the next.
func (l *stateLog) read(pos logPos) (state []byte, next logPos) {
	if int(pos.at) == len(l.chunks[pos.chunk]) {
		pos = logPos{pos.chunk + 1, 0}
	}
	c := l.chunks[pos.chunk][pos.at:]
	n, w := binary.Uvarint(c)
	end := w + int(n)
	return c[w:end:end], logPos{pos.chunk, pos.at + uint32(end)}
}

// release recycles every chunk wholly before pos: the queue's pop.
func (l *stateLog) release(pos logPos) {
	for ; !l.keep && l.low < int(pos.chunk); l.low++ {
		l.recycle(l.chunks[l.low])
		l.chunks[l.low] = nil
	}
}

// truncate drops the state at pos and everything after it: the stack's pop.
func (l *stateLog) truncate(pos logPos) {
	for _, c := range l.chunks[pos.chunk+1:] {
		l.recycle(c)
	}
	l.chunks = l.chunks[:pos.chunk+1]
	l.chunks[pos.chunk] = l.chunks[pos.chunk][:pos.at]
}

// recycle keeps a standard chunk for reuse and lets an oversize one go.
func (l *stateLog) recycle(c []byte) {
	if cap(c) == logChunk {
		l.free = append(l.free, c[:0])
	} else {
		l.held -= int64(cap(c)) + sliceHeaderSize
	}
}

// rawCache knows a successor already stored by its raw bytes: a
// direct-mapped table from a stored state's raw hash to where its bytes
// are in the log, with the fingerprint and conflation verdict the visited
// set returns for it. A successor byte-equal to a cached state is a
// duplicate of it — equal raw bytes have equal canonical forms — so the
// sequential BFS, and a Partition, settle it straight from its entry,
// without canonicalizing, fingerprinting or probing it (DESIGN §5.26). The hash
// only picks an entry; the verdict is the byte compare against the log's
// copy. An entry is live while its chunk is: BFS releases the log from
// the front, and an entry below low is dead. DFS truncates the log, so
// positions are reused, and never builds one. Store thread only.
type rawCache struct {
	log *stateLog
	// slots is 2^rawSmallBits long from the first stored state, and
	// 2^rawCacheBits from rawCacheFrom stored states on; shift is 64 -
	// log2 of its length.
	slots []rawEntry
	shift uint8
	hits  int64 // successors settled from an entry
	off   bool  // dropped for the memory limit, for the rest of the run
}

// rawEntry is one stored state in a rawCache: its fingerprint, where its
// bytes are in the log, and a tag: the low bits of its raw hash (the
// table index is the high ones) with bit 0 set, so that zero means
// empty, and bit 1 the verdict's conflation — whether the state was
// stored by fingerprint alone. 16 bytes: at holds a state's offset in a
// 64 KiB logChunk (an oversize chunk holds one state, at offset 0), and
// fill skips a state at a larger one.
type rawEntry struct {
	fp    uint64
	chunk uint32
	at    uint16
	tag   uint16
}

const (
	rawEntrySize = 16
	// rawSmallBits sizes a search's first table at 2^10 entries (16 KiB),
	// which a search of a few thousand states fills; rawCacheBits its
	// table from rawCacheFrom stored states on at 2^14 (256 KiB): a
	// larger one hits more but misses L2.
	rawSmallBits = 10
	rawCacheBits = 14
	// rawMul and rawMix are 64-bit odd multipliers for rawHash.
	rawMul = 0x9e3779b97f4a7c15
	rawMix = 0xff51afd7ed558ccd
)

// The raw cache's switches: package vars so that tests can compare a
// search with the cache and without it.
var (
	rawCacheOn = true
	// rawCacheFrom is the stored-state count at which the small table
	// makes way for the large one: a search that never reaches it holds
	// 16 KiB of cache.
	rawCacheFrom = 1 << 12
	// rawHashMask is applied to every raw hash; tests narrow it to force
	// collisions that only the byte compare tells apart.
	rawHashMask = ^uint64(0)
)

// rawHash indexes the raw cache: two chains of a multiply per eight
// bytes, sixteen bytes a step, the last step's words overlapping the
// previous ones where the length is not a multiple of sixteen.
func rawHash(b []byte) uint64 {
	n := len(b)
	x, y := uint64(n)*rawMul, uint64(n)^rawMix
	switch {
	case n > 16:
		for p := b; len(p) > 16; p = p[16:] {
			x = bits.RotateLeft64(x^binary.LittleEndian.Uint64(p), 29) * rawMul
			y = bits.RotateLeft64(y^binary.LittleEndian.Uint64(p[8:]), 29) * rawMul
		}
		b = b[n-16:]
		fallthrough
	case n >= 8:
		x ^= binary.LittleEndian.Uint64(b)
		y ^= binary.LittleEndian.Uint64(b[len(b)-8:])
	default:
		for i, c := range b {
			x ^= uint64(c) << (8 * i)
		}
	}
	h := (bits.RotateLeft64(x, 29)*rawMul ^ y) * rawMix
	return (h ^ h>>32) & rawHashMask
}

// rawTag is the tag of an entry with raw hash h; bare sets its
// conflation bit.
func rawTag(h uint64, bare bool) uint16 {
	t := uint16(h)&^2 | 1
	if bare {
		t |= 2
	}
	return t
}

// on reports whether the table exists, so that successors are hashed.
func (c *rawCache) on() bool { return c != nil && c.slots != nil }

// lookup returns the entry of a live stored state byte-equal to raw, whose
// hash is h, or nil.
func (c *rawCache) lookup(h uint64, raw []byte) *rawEntry {
	e := &c.slots[h>>c.shift]
	if e.tag&^2 != rawTag(h, false) || int(e.chunk) < c.log.low {
		return nil
	}
	b := c.log.chunks[e.chunk][e.at:]
	n, w := binary.Uvarint(b)
	if int(n) != len(raw) || string(b[w:w+len(raw)]) != string(raw) {
		return nil
	}
	return e
}

// conflated is the visited set's verdict on a duplicate of e's state.
func (e *rawEntry) conflated() bool { return e.tag&2 != 0 }

// fill records a state just stored at pos: its raw bytes, fingerprint fp
// and whether it was stored bare. It displaces whatever held the entry.
func (c *rawCache) fill(raw []byte, pos logPos, fp uint64, bare bool) {
	if c.on() && pos.at <= math.MaxUint16 {
		h := rawHash(raw)
		c.slots[h>>c.shift] = rawEntry{fp, pos.chunk, uint16(pos.at), rawTag(h, bare)}
	}
}

// allocate gives the cache the table the search's stored-state count
// calls for: the small one to begin with, the large one in its place,
// empty, once the search has stored rawCacheFrom states.
func (c *rawCache) allocate(stored int) {
	bits := rawSmallBits
	if stored >= rawCacheFrom {
		bits = rawCacheBits
	}
	if c != nil && !c.off && len(c.slots) < 1<<bits {
		c.slots, c.shift = make([]rawEntry, 1<<bits), uint8(64-bits)
	}
}

// bytes is the table's footprint.
func (c *rawCache) bytes() int64 {
	if c == nil {
		return 0
	}
	return int64(cap(c.slots)) * rawEntrySize
}

// drop frees the table for the rest of the run and returns the bytes it
// held.
func (c *rawCache) drop() int64 {
	n := c.bytes()
	if c != nil {
		c.slots, c.off = nil, true
	}
	return n
}
