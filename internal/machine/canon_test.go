package machine

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"minvn/internal/icn"
	"minvn/internal/protocol/xform"
	"minvn/internal/protocols"
)

// referenceCanonicalize is the naive allocating form: the minimum of
// encode(applyPerm(st, p)) over all cache permutations.
func referenceCanonicalize(s *System, raw []byte) []byte {
	if len(s.perms) <= 1 {
		return raw
	}
	st := s.decode(raw)
	best := raw
	for _, perm := range s.perms[1:] {
		cand := s.encode(s.applyPerm(st, perm.fwd))
		if string(cand) < string(best) {
			best = cand
		}
	}
	return best
}

// permuteEndpoint maps endpoint id e under cache permutation perm
// (L2 homes and directories are fixed points).
func permuteEndpoint(perm []uint8, e uint8) uint8 {
	if int(e) < len(perm) {
		return perm[e]
	}
	return e
}

// permuteMask relabels a sharer bitmask of endpoint ids under perm.
// Bits at or beyond len(perm) (L2 homes, directories) stay in place.
func permuteMask(perm []uint8, mask uint8) uint8 {
	var out uint8
	for b := 0; b < 8; b++ {
		if mask&(1<<uint(b)) != 0 {
			out |= 1 << uint(permuteEndpoint(perm, uint8(b)))
		}
	}
	return out
}

// applyPerm is the reference relabeling on decoded states that
// Canonicalize's byte-level relabeling must agree with: a deep copy of
// st with cache c renamed perm[c] everywhere a cache id appears.
func (s *System) applyPerm(st *state, perm []uint8) *state {
	out := s.decode(s.encode(st))
	for c := range st.cache {
		copy(out.cache[perm[c]], st.cache[c])
	}
	for c := range out.cache {
		for a := range out.cache[c] {
			e := &out.cache[c][a]
			if e.saved != 0 {
				e.saved = permuteEndpoint(perm, e.saved-1) + 1
			}
		}
	}
	for a := range out.l2 {
		e := &out.l2[a]
		if e.owner != 0 {
			e.owner = permuteEndpoint(perm, e.owner-1) + 1
		}
		e.sharers = permuteMask(perm, e.sharers)
	}
	for a := range out.dir {
		e := &out.dir[a]
		if e.owner != 0 {
			e.owner = permuteEndpoint(perm, e.owner-1) + 1
		}
		e.sharers = permuteMask(perm, e.sharers)
	}
	permMsg := func(m icn.Message) icn.Message {
		m.Src = permuteEndpoint(perm, m.Src)
		m.Req = permuteEndpoint(perm, m.Req)
		m.Dst = permuteEndpoint(perm, m.Dst)
		return m
	}
	for vn := range out.net.Global {
		for b := 0; b < 2; b++ {
			q := out.net.Global[vn][b]
			for i := range q {
				q[i] = permMsg(q[i])
			}
		}
	}
	// Local FIFOs move with their endpoints: cache c's queues become
	// cache perm[c]'s queues.
	local := make([][][]icn.Message, len(out.net.Local))
	copy(local, out.net.Local)
	for c := 0; c < s.cfg.Caches; c++ {
		local[perm[c]] = out.net.Local[c]
	}
	out.net.Local = local
	for e := range out.net.Local {
		for vn := range out.net.Local[e] {
			q := out.net.Local[e][vn]
			for i := range q {
				q[i] = permMsg(q[i])
			}
		}
	}
	return out
}

func canonSystem(t *testing.T) *System {
	t.Helper()
	p := protocols.MustLoad("MSI_nonblocking_cache")
	vn, n := PerMessageVN(p)
	sys, err := New(Config{Protocol: p, Caches: 3, Dirs: 2, Addrs: 2, VN: vn, NumVNs: n})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestCanonicalizeMatchesReference pins the streaming canonicalizer
// against the reference implementation on a spread of reachable states
// of a 3-cache, a 4-cache and a two-level system, and checks
// idempotence.
func TestCanonicalizeMatchesReference(t *testing.T) {
	msi := protocols.MustLoad("MSI_nonblocking_cache")
	vn, n := PerMessageVN(msi)
	comp, err := xform.Compose(protocols.MustLoad("MSI_blocking_cache"),
		protocols.MustLoad("MESI_blocking_cache"), "MSI_under_MESI")
	if err != nil {
		t.Fatal(err)
	}
	cvn, cn := PerMessageVN(comp)
	for name, cfg := range map[string]Config{
		"3c":        {Protocol: msi, Caches: 3, Dirs: 2, Addrs: 2, VN: vn, NumVNs: n},
		"4c":        {Protocol: msi, Caches: 4, Dirs: 2, Addrs: 2, VN: vn, NumVNs: n},
		"two-level": {Protocol: comp, Caches: 3, L2s: 2, Dirs: 1, Addrs: 2, VN: cvn, NumVNs: cn},
	} {
		sys, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		states := walkStates(sys, 400)
		if len(states) < 100 {
			t.Fatalf("%s: only %d states to compare", name, len(states))
		}
		for i, raw := range states {
			got := sys.Canonicalize(raw)
			want := referenceCanonicalize(sys, raw)
			if string(got) != string(want) {
				t.Fatalf("%s state %d: canonical forms diverge\n got  %x\n want %x", name, i, got, want)
			}
			if again := sys.Canonicalize(got); string(again) != string(got) {
				t.Fatalf("%s state %d: canonicalization not idempotent", name, i)
			}
		}
	}
}

// TestCanonicalizeConcurrent exercises the scratch pool from many
// goroutines (meaningful under -race).
func TestCanonicalizeConcurrent(t *testing.T) {
	sys := canonSystem(t)
	states := walkStates(sys, 100)
	want := make([][]byte, len(states))
	for i, raw := range states {
		want[i] = sys.Canonicalize(raw)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, raw := range states {
				if got := sys.Canonicalize(raw); string(got) != string(want[i]) {
					t.Errorf("state %d: concurrent canonicalization diverged", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// walkStates collects distinct states along random walks, giving the
// canonicalizer non-trivial network contents to chew on.
func walkStates(sys *System, n int) [][]byte {
	seen := map[string]bool{}
	var out [][]byte
	for seed := int64(0); len(out) < n && seed < 50; seed++ {
		cur := sys.Initial()[0]
		for step := 0; step < 40 && len(out) < n; step++ {
			if !seen[string(cur)] {
				seen[string(cur)] = true
				out = append(out, cur)
			}
			succs, err := sys.Successors(cur)
			if err != nil || len(succs) == 0 {
				break
			}
			cur = succs[int(seed+int64(step*7))%len(succs)]
		}
	}
	return out
}

// byteWalkLocal and byteWalkRelabel are indexLocal and relabelQueues
// the plain way, one length byte at a time.
func byteWalkLocal(s *System, raw []byte) []int {
	i := s.netOff
	skip := func(queues int) {
		for ; queues > 0; queues-- {
			i += 1 + int(raw[i])*icn.MessageBytes
		}
	}
	skip(2 * s.net.NumVNs)
	var local []int
	for c := 0; c < s.cfg.Caches; c++ {
		local = append(local, i)
		skip(s.net.NumVNs)
	}
	return append(local, i)
}

func byteWalkRelabel(q []byte, p *perm) {
	for i := 0; i < len(q); {
		end := i + 1 + int(q[i])*icn.MessageBytes
		for i++; i < end; i += icn.MessageBytes {
			q[i+2], q[i+3], q[i+4] = p.ep[q[i+2]], p.ep[q[i+3]], p.ep[q[i+4]]
		}
	}
}

// TestQueueSkipMatchesByteWalk pins the word-at-a-time skip over empty
// queues in indexLocal and relabelQueues against the byte walks above,
// on networks built queue by queue: runs of 0–20 empty queues between
// non-empty ones, at every phase, so a non-empty queue's length byte
// falls at every offset mod 8 of the word read before it; seeded random
// fillings; every suffix of each network, down to regions shorter than a
// word; at 3 and 4 caches, with 13 VNs and with one (a network of 6 and
// 7 length bytes).
func TestQueueSkipMatchesByteWalk(t *testing.T) {
	msi, blocking := protocols.MustLoad("MSI_nonblocking_cache"), protocols.MustLoad("MSI_blocking_cache")
	uvn, un := UniformVN(msi)
	pvn, pn := PerMessageVN(blocking)
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []Config{
		{Protocol: blocking, Caches: 3, Dirs: 2, Addrs: 2, VN: pvn, NumVNs: pn},
		{Protocol: blocking, Caches: 4, Dirs: 2, Addrs: 2, VN: pvn, NumVNs: pn},
		{Protocol: msi, Caches: 3, Dirs: 1, Addrs: 1, VN: uvn, NumVNs: un},
		{Protocol: msi, Caches: 4, Dirs: 1, Addrs: 1, VN: uvn, NumVNs: un},
	} {
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%dc/vn%d", cfg.Caches, cfg.NumVNs)
		var fills [][]int
		for run := 0; run <= 20; run++ {
			for phase := 0; phase < 8; phase++ {
				fill := make([]int, sys.queues)
				for q := phase; q < len(fill); q += run + 1 {
					fill[q] = 1 + q%2
				}
				fills = append(fills, fill)
			}
		}
		for range 200 {
			fill := make([]int, sys.queues)
			for q := range fill {
				if rng.Intn(4) == 0 {
					fill[q] = 1 + rng.Intn(3)
				}
			}
			fills = append(fills, fill)
		}
		var offsets [8]bool // of non-empty length bytes in the network, mod 8
		for _, fill := range fills {
			// The controller bytes are never read; the records' bytes are
			// small so that many of them are zero.
			raw := make([]byte, sys.netOff)
			var starts []int
			for _, n := range fill {
				starts = append(starts, len(raw))
				if n > 0 {
					offsets[(len(raw)-sys.netOff)%8] = true
				}
				raw = append(raw, byte(n))
				for range n * icn.MessageBytes {
					raw = append(raw, byte(rng.Intn(3)))
				}
			}
			if got, want := sys.indexLocal(raw, nil), byteWalkLocal(sys, raw); !slices.Equal(got, want) {
				t.Fatalf("%s fill %v: indexLocal %v, byte walk %v", name, fill, got, want)
			}
			for _, from := range starts {
				p := &sys.perms[len(sys.perms)-1]
				got, want := slices.Clone(raw[from:]), slices.Clone(raw[from:])
				relabelQueues(got, p)
				byteWalkRelabel(want, p)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s fill %v from byte %d: relabelQueues %x, byte walk %x", name, fill, from, got, want)
				}
			}
		}
		if slices.Contains(offsets[:], false) {
			t.Fatalf("%s: non-empty length bytes only at offsets %v mod 8", name, offsets)
		}
	}
}
