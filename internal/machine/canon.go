package machine

import (
	"bytes"
	"math/bits"

	"minvn/internal/icn"
)

// Canonicalization is called once per generated successor in a
// symmetry-reduced search, which makes it as hot as expansion itself.
// The canonical form is the lexicographically smallest encoding among
// all relabelings of the (identical) caches. Nothing is decoded: a
// relabeling is written straight from the encoded bytes, a section at a
// time — each cache row, the home entries, the global buffers, each
// endpoint's input FIFOs — and compared with the best encoding so far
// after every section. Most permutations lose on the first cache row
// and are abandoned there; only one that wins is written out in full.

// perm is one permutation of the caches: fwd[c] is where it sends
// cache c, inv[j] which cache it puts in row j.
type perm struct{ fwd, inv []uint8 }

// permutations enumerates all permutations of 0..n-1, identity first.
func permutations(n int) []perm {
	var out []perm
	base := make([]uint8, n)
	for i := range base {
		base[i] = uint8(i)
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			p := perm{append([]uint8(nil), base...), make([]uint8, n)}
			for c, to := range base {
				p.inv[to] = uint8(c)
			}
			out = append(out, p)
			return
		}
		for i := k; i < n; i++ {
			base[k], base[i] = base[i], base[k]
			rec(k + 1)
			base[k], base[i] = base[i], base[k]
		}
	}
	rec(0)
	return out
}

// endpoint relabels endpoint id e: caches move, L2 homes and
// directories are fixed points.
func (p perm) endpoint(e uint8) uint8 {
	if int(e) < len(p.fwd) {
		return p.fwd[e]
	}
	return e
}

// ref relabels an "endpoint id + 1, 0 = none" reference (a saved
// requestor, an owner).
func (p perm) ref(r uint8) uint8 {
	if r == 0 {
		return 0
	}
	return p.endpoint(r-1) + 1
}

// mask relabels a sharer bitmask of endpoint ids.
func (p perm) mask(m uint8) uint8 {
	var out uint8
	for ; m != 0; m &= m - 1 {
		out |= 1 << p.endpoint(uint8(bits.TrailingZeros8(m)))
	}
	return out
}

// canonScratch is the per-call reusable working set. It never escapes
// AppendCanonical; the pool makes it safe under the parallel engines'
// concurrent calls.
type canonScratch struct {
	buf  []byte // the candidate relabeling under construction
	best []byte // the best non-identity relabeling so far
	tied []int  // permutations whose cache rows equal the smallest seen
	// local[e] is the offset in the input of endpoint e's first input
	// FIFO, local[endpoints] the end of the state; filled on demand,
	// haveLocal says whether it describes the current input.
	local     []int
	haveLocal bool
}

// Canonicalize implements symmetry reduction: among all relabelings of
// the (identical) caches, pick the lexicographically smallest
// encoding. Directories are distinguished by their address ranges and
// are not permuted. It allocates once, the returned copy, and only when
// a non-identity relabeling wins.
func (s *System) Canonicalize(raw []byte) []byte {
	return s.AppendCanonical(nil, raw)
}

// AppendCanonical is Canonicalize into a caller-owned buffer, the form
// mc's Expander uses: it returns raw itself when the identity relabeling
// is the smallest, and otherwise the canonical form appended to dst[:0]
// — so with a warm dst it allocates nothing.
//
// The cache rows lead the encoding, so they decide almost every
// comparison. A first pass finds the permutations with the smallest
// rows by comparing rows in place in raw, writing nothing; only those
// (usually one) are then written out and compared in full.
func (s *System) AppendCanonical(dst, raw []byte) []byte {
	if len(s.perms) <= 1 {
		return raw
	}
	s.checkLen(raw)
	sc := s.canonPool.Get().(*canonScratch)
	sc.haveLocal = false
	lead, tied := 0, sc.tied[:0] // 0 is the identity
	for i := 1; i < len(s.perms); i++ {
		switch s.compareRows(raw, s.perms[i], s.perms[lead]) {
		case -1:
			lead, tied = i, append(tied[:0], i)
		case 0:
			tied = append(tied, i)
		}
	}
	sc.tied = tied
	// tied now lists every non-identity permutation with minimal rows,
	// lead first; raw itself is among the minimal iff lead is still 0.
	best, relabeled := raw, false
	for _, i := range tied {
		from, against := s.cfg.Caches, best
		if i == lead {
			from, against = 0, nil // beats raw on the rows alone
		}
		if s.relabel(sc, raw, against, s.perms[i], from) {
			// The candidate buffer becomes the best; swap so the next
			// candidate doesn't overwrite it.
			sc.best, sc.buf = sc.buf, sc.best
			best, relabeled = sc.best, true
		}
	}
	if relabeled {
		// best aliases pooled scratch; copy before releasing it.
		best = append(dst[:0], best...)
	}
	s.canonPool.Put(sc)
	return best
}

// compareRows compares the cache sections of raw relabeled under p and
// under q, reading both out of raw.
func (s *System) compareRows(raw []byte, p, q perm) int {
	width := s.cfg.Addrs * cacheEntryBytes
	for j := range p.inv {
		a := raw[int(p.inv[j])*width:][:width]
		b := raw[int(q.inv[j])*width:][:width]
		for i := 0; i < width; i += cacheEntryBytes {
			// state, acks, saved (relabeled), savedAcks — most
			// significant first, as the encoding orders them.
			x := uint32(a[i])<<24 | uint32(a[i+1])<<16 | uint32(p.ref(a[i+2]))<<8 | uint32(a[i+3])
			y := uint32(b[i])<<24 | uint32(b[i+1])<<16 | uint32(q.ref(b[i+2]))<<8 | uint32(b[i+3])
			if x != y {
				if x < y {
					return -1
				}
				return 1
			}
		}
	}
	return 0
}

// relabel writes raw relabeled under p into sc.buf section by section
// — each cache row, the home entries, the global buffers, each
// endpoint's input FIFOs — starting at section from (the sections
// before it are known to equal best's and are copied from it). After
// each section it compares what it wrote with the same bytes of best
// and gives up at the first that is greater. It reports whether the
// relabeling is strictly smaller than best, in which case sc.buf holds
// all of it; a nil best is beaten without comparing. Every relabeling
// of raw has raw's length, and a section is only compared after all
// earlier bytes tied, so the compared ranges line up.
func (s *System) relabel(sc *canonScratch, raw, best []byte, p perm, from int) bool {
	buf := sc.buf[:0]
	if from > 0 {
		buf = append(buf, best[:from*s.cfg.Addrs*cacheEntryBytes]...)
	}
	less := best == nil
	sections := s.cfg.Caches + 2 + s.endpoints
	for sec := from; sec < sections; sec++ {
		start := len(buf)
		switch {
		case sec < s.cfg.Caches:
			buf = s.appendCacheRow(buf, raw, p, sec)
		case sec == s.cfg.Caches:
			buf = s.appendHomes(buf, raw, p)
		case sec == s.cfg.Caches+1:
			buf = appendQueues(buf, raw[s.netOff:], 2*s.net.NumVNs, p)
		default:
			if !sc.haveLocal {
				s.indexLocal(sc, raw)
			}
			// Input FIFOs move with their endpoint: row e of the
			// relabeling holds the queues of the cache p puts there.
			e := sec - s.cfg.Caches - 2
			src := e
			if e < len(p.inv) {
				src = int(p.inv[e])
			}
			buf = appendQueues(buf, raw[sc.local[src]:sc.local[src+1]], s.net.NumVNs, p)
		}
		if !less {
			switch bytes.Compare(buf[start:], best[start:len(buf)]) {
			case 1:
				sc.buf = buf
				return false
			case -1:
				less = true
			}
		}
	}
	sc.buf = buf
	return less
}

// appendCacheRow appends row j of the relabeling: the entries of the
// cache p puts there, saved requestors relabeled.
func (s *System) appendCacheRow(buf, raw []byte, p perm, j int) []byte {
	width := s.cfg.Addrs * cacheEntryBytes
	from := int(p.inv[j]) * width
	start := len(buf)
	buf = append(buf, raw[from:from+width]...)
	for i := start + 2; i < len(buf); i += cacheEntryBytes {
		buf[i] = p.ref(buf[i]) // saved
	}
	return buf
}

// appendHomes appends the l2 and directory sections with owners and
// sharer masks relabeled. Both entry kinds keep them in bytes 1 and 2.
func (s *System) appendHomes(buf, raw []byte, p perm) []byte {
	start := len(buf)
	buf = append(buf, raw[s.l2Off:s.netOff]...)
	homes := buf[start:]
	for i := 0; i < s.dirOff-s.l2Off; i += l2EntryBytes {
		homes[i+1], homes[i+2] = p.ref(homes[i+1]), p.mask(homes[i+2])
	}
	for i := s.dirOff - s.l2Off; i < len(homes); i += dirEntryBytes {
		homes[i+1], homes[i+2] = p.ref(homes[i+1]), p.mask(homes[i+2])
	}
	return buf
}

// appendQueues appends the first n queues encoded at the head of src
// with every message's Src, Req and Dst relabeled (bytes 2–4 of a
// record, see icn.MessageBytes).
func appendQueues(buf, src []byte, n int, p perm) []byte {
	i := 0
	for q := 0; q < n; q++ {
		msgs := int(src[i])
		buf = append(buf, src[i])
		i++
		for ; msgs > 0; msgs-- {
			m := src[i : i+icn.MessageBytes]
			buf = append(buf, m[0], m[1], p.endpoint(m[2]), p.endpoint(m[3]), p.endpoint(m[4]), m[5])
			i += icn.MessageBytes
		}
	}
	return buf
}

// indexLocal finds where each endpoint's input FIFOs start in raw.
func (s *System) indexLocal(sc *canonScratch, raw []byte) {
	if sc.local == nil {
		sc.local = make([]int, s.endpoints+1)
	}
	i := s.netOff
	skip := func(queues int) {
		for ; queues > 0; queues-- {
			i += 1 + int(raw[i])*icn.MessageBytes
		}
	}
	skip(2 * s.net.NumVNs)
	for e := 0; e < s.endpoints; e++ {
		sc.local[e] = i
		skip(s.net.NumVNs)
	}
	sc.local[s.endpoints] = i
	sc.haveLocal = true
}
