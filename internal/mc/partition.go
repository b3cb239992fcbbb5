package mc

import (
	"context"
	"time"
)

// Partition is one owner's share of a level-synchronous BFS whose states
// are partitioned by fingerprint: owner self of n, by OwnerOf. It is the
// search core (search.go) over the states self owns — the same
// collector, settle, state log and books as CheckCtx — which is what a
// distributed worker (internal/dist) runs. The caller moves the search
// level by level: Expand expands every state stored at the current depth,
// settling each owned successor right after its parent's expansion,
// where CheckCtx settles it, and handing each foreign one to the caller
// for its owner; Settle stores the states the other owners sent here at
// the next depth. So a partition stores its states in the order the
// sequential BFS would store its own share: its own successors in
// generation order, then the received ones in the order given.
//
// A partition has the sequential BFS's raw cache (rawCache, allocated
// at the same stored-state count and the first thing dropped at the
// memory limit): an owned successor or a received state byte-equal to a
// state it stores, still in its log, settles as that state's duplicate
// without being canonicalized. The compare is against the partition's
// own copy, so a received state's bytes are trusted no more than
// before. It keeps no counterexample trace (like DisableTraces) and no
// bounds: the caller applies MaxStates and MaxDepth at level
// granularity. It has one caller at a time.
type Partition struct {
	s       *search
	self, n int
	cur     ref   // the BFS cursor: the next state to expand
	depth   int32 // the depth Expand expands next, and Settle stores at
}

// NewPartition builds owner self of n's partition of m's search and
// stores its owned initial states at depth 0. Of opts only Store and
// Observer apply. held, when non-nil, reports the bytes the caller holds
// for its peers; they count in the frontier bytes, and so against the Go
// memory limit. The error is a *CapacityError.
func NewPartition(m Model, opts Options, self, n int, held func() int64) (*Partition, error) {
	opts = Options{Store: opts.Store, Observer: opts.Observer, DisableTraces: true}
	s := newSearch(context.Background(), m, opts, "partition", 1)
	// One shard: a partition's store has one writer, and one shard keeps
	// its footprint and allocations those of a single table.
	s.set = newVisitedStore(opts.Store, 1)
	s.outbox = held
	s.addRawCache()
	p := &Partition{s: s, self: self, n: n}
	succs := s.digest(m.Initial())
	own := succs[:0]
	for _, sc := range succs {
		if OwnerOf(sc.fp, n) == self {
			own = append(own, sc)
		}
	}
	return p, s.settle(-1, 0, own)
}

// Expand expands every state stored at the current depth, in storage
// order, and moves the partition to the next depth. An owned successor
// is settled at once; a foreign one is counted as a rule firing and as
// generated, and handed to ship with its owner — its bytes are lent,
// valid only during the call. Before each state Expand asks more whether
// to go on and runs the memory check: a false from more stops the level
// there, with nothing returned; the held bytes at the limit stop it with
// a *CapacityError, as does a capacity limit of the visited set or the
// log. A state that deadlocks or violates an invariant stops it too: the
// result is then a Deadlock or Violation with its Message and the state
// as its Trace, and zero otherwise. A stopped partition is done.
func (p *Partition) Expand(ship func(state []byte, owner int), more func() bool) (Result, error) {
	s := p.s
	for end := int32(s.stored); p.cur.id < end; {
		if !more() {
			return Result{}, nil
		}
		if err := s.overMemory(); err != nil {
			return Result{}, err
		}
		e := s.collect(s.next(&p.cur))
		if s.count(&e) {
			return s.res, nil
		}
		own := e.succs[:0]
		for i := range e.succs {
			sc := &e.succs[i]
			if owner := OwnerOf(sc.fp, p.n); owner != p.self {
				s.tr.fire(int(sc.rule))
				ship(sc.state, owner)
			} else {
				own = append(own, *sc)
			}
		}
		if err := s.settle(e.id, e.depth+1, own); err != nil {
			return Result{}, err
		}
		s.log.release(p.cur.pos)
		s.raw.allocate(s.stored)
	}
	p.depth++
	return Result{}, nil
}

// Settle stores the states other owners sent here at the current depth,
// in the order given; states is only read. The error is a
// *CapacityError.
func (p *Partition) Settle(states [][]byte) error {
	s := p.s
	if err := s.settle(-1, p.depth, s.digest(states)); err != nil {
		return err
	}
	s.raw.allocate(s.stored)
	return nil
}

// SendWait books time the caller spent blocked handing successors on.
func (p *Partition) SendWait(d time.Duration) { p.s.tr.sendWait(d) }

// Snapshot is the partition's account so far: its books, its footprint,
// and its frontier — the stored states not yet expanded. HeapBytes is 0:
// MergeSnapshots reads the merging process's heap.
func (p *Partition) Snapshot() Snapshot {
	s := p.s
	return s.tr.snapshot(s.stored, s.stored-int(p.cur.id), s.res.MaxDepth, s.res.Rules, false)
}
