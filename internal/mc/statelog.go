package mc

import "encoding/binary"

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
