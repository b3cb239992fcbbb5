package machine

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"

	"minvn/internal/icn"
)

// Canonicalization is called once per generated successor in a
// symmetry-reduced search, which makes it as hot as expansion itself.
// The canonical form is the lexicographically smallest encoding among
// all relabelings of the (identical) caches. Nothing is decoded: a
// relabeling is read and written straight from the encoded bytes, a
// section at a time — each cache row, the home entries, the global
// buffers, each endpoint's input FIFOs. The cache rows lead the
// encoding and decide almost every comparison, so they are compared in
// place first; the winner is written once, into the caller's buffer,
// and a permutation that ties it on the rows is compared against it in
// place and written only if it wins.

// perm is one permutation of the caches: fwd[c] is where it sends
// cache c, inv[j] which cache it puts in row j. The byte tables relabel
// without a branch: ep an endpoint id (caches move, L2 homes and
// directories are fixed points), ref an "endpoint id + 1, 0 = none"
// reference (a saved requestor, an owner), mask a sharer bitmask of
// endpoint ids.
type perm struct {
	fwd, inv      []uint8
	ep, ref, mask [256]uint8
}

// permutations enumerates all permutations of 0..n-1, identity first,
// with their relabeling tables.
func permutations(n int) []perm {
	var out []perm
	base := make([]uint8, n)
	for i := range base {
		base[i] = uint8(i)
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, newPerm(base))
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

// newPerm builds the permutation that sends cache c to fwd[c].
func newPerm(fwd []uint8) perm {
	p := perm{fwd: append([]uint8(nil), fwd...), inv: make([]uint8, len(fwd))}
	for e := range p.ep {
		p.ep[e] = uint8(e)
	}
	for c, to := range fwd {
		p.inv[to] = uint8(c)
		p.ep[c] = to
	}
	for r := 1; r < len(p.ref); r++ {
		p.ref[r] = p.ep[r-1] + 1
	}
	for m := range p.mask {
		for b := uint8(m); b != 0; b &= b - 1 {
			p.mask[m] |= 1 << p.ep[bits.TrailingZeros8(b)]
		}
	}
	return p
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
// — so with a dst of len(raw) spare capacity it allocates nothing, and
// a caller that passes the tail of its own buffer gets the form written
// there and nowhere else.
func (s *System) AppendCanonical(dst, raw []byte) []byte {
	if len(s.perms) <= 1 {
		return raw
	}
	s.checkLen(raw)
	// tied lists every non-identity permutation whose rows are minimal,
	// lead first; raw itself is among the minimal iff lead is still 0.
	// The stack array holds every tie up to four caches.
	var tiedAt [24]int32
	lead, tied := 0, tiedAt[:0]
	for i := 1; i < len(s.perms); i++ {
		switch s.compareRows(raw, &s.perms[i], &s.perms[lead]) {
		case -1:
			lead, tied = i, append(tied[:0], int32(i))
		case 0:
			tied = append(tied, int32(i))
		}
	}
	if len(tied) == 0 {
		return raw
	}
	var localAt [9]int
	local := s.indexLocal(raw, localAt[:0])
	best, relabeled := raw, false
	if lead != 0 {
		// The lead beats raw on its rows alone.
		dst = s.appendRelabel(slices.Grow(dst[:0], len(raw)), raw, local, &s.perms[lead], 0)
		best, relabeled, tied = dst, true, tied[1:]
	}
	for _, i := range tied {
		p := &s.perms[i]
		sec, at := s.beats(best, raw, local, p)
		if sec < 0 {
			continue
		}
		// Everything before section sec equals best: keep it (or copy it
		// from raw) and write p's relabeling from there on.
		if relabeled {
			dst = dst[:at]
		} else {
			dst = append(slices.Grow(dst[:0], len(raw)), raw[:at]...)
		}
		dst = s.appendRelabel(dst, raw, local, p, sec)
		best, relabeled = dst, true
	}
	return best
}

// compareRows compares the cache sections of raw relabeled under p and
// under q, reading both out of raw: two entries at a time as one
// big-endian word — state, acks, saved (relabeled), savedAcks each, most
// significant first, as the encoding orders them — and an odd last one
// alone.
func (s *System) compareRows(raw []byte, p, q *perm) int {
	const saved2 = 0x0000ff000000ff00 // the saved bytes of a word's two entries
	width := s.cfg.Addrs * cacheEntryBytes
	for j := range p.inv {
		a := raw[int(p.inv[j])*width:][:width]
		b := raw[int(q.inv[j])*width:][:width]
		i := 0
		for ; i+8 <= width; i += 8 {
			x := binary.BigEndian.Uint64(a[i:])&^saved2 | uint64(p.ref[a[i+2]])<<40 | uint64(p.ref[a[i+6]])<<8
			y := binary.BigEndian.Uint64(b[i:])&^saved2 | uint64(q.ref[b[i+2]])<<40 | uint64(q.ref[b[i+6]])<<8
			if x != y {
				return cmp.Compare(x, y)
			}
		}
		if i < width {
			x := binary.BigEndian.Uint32(a[i:])&^0xff00 | uint32(p.ref[a[i+2]])<<8
			y := binary.BigEndian.Uint32(b[i:])&^0xff00 | uint32(q.ref[b[i+2]])<<8
			if x != y {
				return cmp.Compare(x, y)
			}
		}
	}
	return 0
}

// The sections of an encoding, in order: one per cache row
// (0..Caches-1), the home entries (Caches), the global buffers
// (Caches+1), one per cache's input FIFOs, and the input FIFOs of every
// other endpoint (2·Caches+2), which no permutation moves.

// appendRelabel appends raw relabeled under p from section from on. The
// queue sections are copied in their new order and then relabeled in
// one pass.
func (s *System) appendRelabel(buf, raw []byte, local []int, p *perm, from int) []byte {
	for sec := from; sec <= s.cfg.Caches; sec++ {
		if sec < s.cfg.Caches {
			buf = s.appendCacheRow(buf, raw, p, sec)
		} else {
			buf = s.appendHomes(buf, raw, p)
		}
	}
	start := len(buf)
	for sec := max(from, s.cfg.Caches+1); sec <= 2*s.cfg.Caches+2; sec++ {
		buf = append(buf, s.queueSection(raw, local, p, sec)...)
	}
	relabelQueues(buf[start:], p)
	return buf
}

// beats compares raw relabeled under p with best, whose cache rows it
// is known to equal, without writing anything. If the relabeling is
// strictly smaller it returns the section where it first differs and
// that section's offset; otherwise sec is -1. Every relabeling of raw
// has raw's length, and a section is only compared after all earlier
// bytes tied, so the compared ranges line up.
func (s *System) beats(best, raw []byte, local []int, p *perm) (sec, at int) {
	switch s.compareHomes(best, raw, p) {
	case -1:
		return s.cfg.Caches, s.l2Off
	case 1:
		return -1, 0
	}
	at = s.netOff
	for sec = s.cfg.Caches + 1; sec <= 2*s.cfg.Caches+2; sec++ {
		src := s.queueSection(raw, local, p, sec)
		switch compareQueues(best[at:], src, p) {
		case -1:
			return sec, at
		case 1:
			return -1, 0
		}
		at += len(src)
	}
	return -1, 0
}

// queueSection returns the queues of raw that a queue section of the
// relabeling under p is written from: the global buffers, the input
// FIFOs of the cache p puts in that row (they move with it), or the
// fixed endpoints' FIFOs.
func (s *System) queueSection(raw []byte, local []int, p *perm, sec int) []byte {
	switch c := sec - s.cfg.Caches - 2; {
	case c < 0:
		return raw[s.netOff:local[0]]
	case c < s.cfg.Caches:
		c = int(p.inv[c])
		return raw[local[c]:local[c+1]]
	}
	return raw[local[s.cfg.Caches]:]
}

// appendCacheRow appends row j of the relabeling: the entries of the
// cache p puts there, saved requestors relabeled.
func (s *System) appendCacheRow(buf, raw []byte, p *perm, j int) []byte {
	width := s.cfg.Addrs * cacheEntryBytes
	from := int(p.inv[j]) * width
	start := len(buf)
	buf = append(buf, raw[from:from+width]...)
	for i := start + 2; i < len(buf); i += cacheEntryBytes {
		buf[i] = p.ref[buf[i]] // saved
	}
	return buf
}

// appendHomes appends the l2 and directory sections with owners and
// sharer masks relabeled. Both entry kinds keep them in bytes 1 and 2.
func (s *System) appendHomes(buf, raw []byte, p *perm) []byte {
	start := len(buf)
	buf = append(buf, raw[s.l2Off:s.netOff]...)
	homes := buf[start:]
	for i := 0; i < s.dirOff-s.l2Off; i += l2EntryBytes {
		homes[i+1], homes[i+2] = p.ref[homes[i+1]], p.mask[homes[i+2]]
	}
	for i := s.dirOff - s.l2Off; i < len(homes); i += dirEntryBytes {
		homes[i+1], homes[i+2] = p.ref[homes[i+1]], p.mask[homes[i+2]]
	}
	return buf
}

// compareHomes compares appendHomes' output under p with the same bytes
// of best, reading both in place.
func (s *System) compareHomes(best, raw []byte, p *perm) int {
	if c := compareHomeEntries(best[s.l2Off:s.dirOff], raw[s.l2Off:s.dirOff], l2EntryBytes, p); c != 0 {
		return c
	}
	return compareHomeEntries(best[s.dirOff:s.netOff], raw[s.dirOff:s.netOff], dirEntryBytes, p)
}

// compareHomeEntries compares width-byte home entries of raw, owner and
// sharers relabeled, with best.
func compareHomeEntries(best, raw []byte, width int, p *perm) int {
	for i := 0; i < len(raw); i += width {
		for k, v := range raw[i : i+width] {
			switch k {
			case 1:
				v = p.ref[v]
			case 2:
				v = p.mask[v]
			}
			if v != best[i+k] {
				return cmp.Compare(v, best[i+k])
			}
		}
	}
	return 0
}

// relabelQueues relabels in place the Src, Req and Dst of every message
// in the queues encoded in q (bytes 2–4 of a record, see
// icn.MessageBytes).
func relabelQueues(q []byte, p *perm) {
	for i := 0; i < len(q); {
		if k := emptyQueues(q, i); k > 0 {
			i += k
			continue
		}
		end := i + 1 + int(q[i])*icn.MessageBytes
		for i++; i < end; i += icn.MessageBytes {
			m := q[i : i+icn.MessageBytes : i+icn.MessageBytes]
			m[2], m[3], m[4] = p.ep[m[2]], p.ep[m[3]], p.ep[m[4]]
		}
	}
}

// compareQueues compares src's queues, relabeled under p, with the head
// of best, reading both in place.
func compareQueues(best, src []byte, p *perm) int {
	for i := 0; i < len(src); {
		if src[i] != best[i] {
			return cmp.Compare(src[i], best[i])
		}
		end := i + 1 + int(src[i])*icn.MessageBytes
		for i++; i < end; i += icn.MessageBytes {
			m, b := src[i:i+icn.MessageBytes], best[i:i+icn.MessageBytes]
			x := uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(p.ep[m[2]])<<24 | uint64(p.ep[m[3]])<<16 | uint64(p.ep[m[4]])<<8 | uint64(m[5])
			y := uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 | uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5])
			if x != y {
				return cmp.Compare(x, y)
			}
		}
	}
	return 0
}

// indexLocal appends to local where each cache's input FIFOs start in
// raw, then where the other endpoints' start.
func (s *System) indexLocal(raw []byte, local []int) []int {
	i := s.netOff
	skip := func(queues int) {
		for queues > 0 {
			if k := min(emptyQueues(raw, i), queues); k > 0 {
				i, queues = i+k, queues-k
				continue
			}
			i += 1 + int(raw[i])*icn.MessageBytes
			queues--
		}
	}
	skip(2 * s.net.NumVNs)
	for c := 0; c < s.cfg.Caches; c++ {
		local = append(local, i)
		skip(s.net.NumVNs)
	}
	return append(local, i)
}

// emptyQueues counts the empty queues — zero length bytes — that start
// at q[i], up to eight: at one VN per message most queues are empty, so
// it reads eight length bytes as one little-endian word, and near the
// end of q only the byte at i.
func emptyQueues(q []byte, i int) int {
	if i+8 <= len(q) {
		return bits.TrailingZeros64(binary.LittleEndian.Uint64(q[i:])) / 8
	}
	if q[i] == 0 {
		return 1
	}
	return 0
}
