package machine

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"minvn/internal/mc"
	"minvn/internal/protocol"
	"minvn/internal/protocol/xform"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

var update = flag.Bool("update", false, "rewrite testdata/expansion.golden")

// The expansion golden file is the reference semantics of this package.
// It was recorded from the table interpreter that expansion used to be
// (one Controller.Lookup and one state clone per rule) immediately
// before that interpreter was deleted; the compiled tables and the
// streaming canonicalizer must reproduce every digest — twice over,
// once derived through the collecting forms the recording used
// (Successors, SuccessorsNamed, Canonicalize) and once through the
// streaming forms the search runs on (Expand with RuleNames,
// AppendCanonical). A digest covers,
// for the first expansionStates states of a system in BFS storage
// order: the state, Quiescent, the ordered successors of Successors and
// SuccessorsNamed with their labels, Canonicalize of the state and of
// each successor, every EnabledRules string, Apply of every enabled
// rule, and any error text; then three seeded random walks. The same
// walk checks Expand against Apply (matchApply), so it can name the
// state and rule where they part.
const expansionStates = 3000

type expansionCase struct {
	name string
	cfg  Config
}

// expansionCases lists the pinned systems: every built-in at the
// paper's 3c/2d/2a under its minimal assignment (where one exists) and
// under one VN per message, plus one system per configuration axis the
// expansion code branches on.
func expansionCases(t testing.TB) []expansionCase {
	t.Helper()
	var out []expansionCase
	paper := func(p *protocol.Protocol, vn map[string]int, n int) Config {
		return Config{Protocol: p, Caches: 3, Dirs: 2, Addrs: 2, VN: vn, NumVNs: n}
	}
	for _, name := range protocols.Names() {
		p := protocols.MustLoad(name)
		if a := vnassign.Assign(p); a.VN != nil {
			out = append(out, expansionCase{name + "/minimal", paper(p, a.VN, a.NumVNs)})
		}
		vn, n := PerMessageVN(p)
		out = append(out, expansionCase{name + "/permsg", paper(p, vn, n)})
	}

	msi := protocols.MustLoad("MSI_nonblocking_cache")
	minimal := vnassign.Assign(msi)

	comp, err := xform.Compose(protocols.MustLoad("MSI_blocking_cache"),
		protocols.MustLoad("MESI_blocking_cache"), "MSI_under_MESI")
	if err != nil {
		t.Fatal(err)
	}
	cvn, cn := PerMessageVN(comp)
	out = append(out, expansionCase{"two-level/MSI_under_MESI", Config{
		Protocol: comp, Caches: 2, L2s: 2, Dirs: 1, Addrs: 2, VN: cvn, NumVNs: cn}})

	p2p := paper(msi, minimal.VN, minimal.NumVNs)
	p2p.PointToPoint, p2p.P2PVariant = true, 3
	out = append(out, expansionCase{"p2p3/MSI_nonblocking_cache", p2p})

	tight := paper(msi, minimal.VN, minimal.NumVNs)
	tight.GlobalCap, tight.LocalCap = 2, 2
	out = append(out, expansionCase{"caps2/MSI_nonblocking_cache", tight})

	inv := paper(msi, minimal.VN, minimal.NumVNs)
	inv.Invariants = true
	out = append(out, expansionCase{"invariants/MSI_nonblocking_cache", inv})

	four := paper(msi, minimal.VN, minimal.NumVNs)
	four.Caches = 4
	out = append(out, expansionCase{"4c/MSI_nonblocking_cache", four})

	nosym := paper(msi, minimal.VN, minimal.NumVNs)
	nosym.NoSymmetry = true
	nosym.CoreEvents = []protocol.CoreEvent{protocol.Load, protocol.Store}
	out = append(out, expansionCase{"nosym-loadstore/MSI_nonblocking_cache", nosym})

	// Violation texts: an SWMR break under Invariants, and a table with
	// a missing cell.
	broken := protocols.MustLoad("MSI_blocking_cache")
	broken.Name = "MSI_broken"
	broken.Dir.Transitions[protocol.TransKey{State: "M", Event: protocol.MsgEv("GetM")}] = cellSendDataSetOwner()
	bvn, bn := PerMessageVN(broken)
	out = append(out, expansionCase{"swmr-broken/MSI_blocking_cache", Config{
		Protocol: broken, Caches: 2, Dirs: 1, Addrs: 1, VN: bvn, NumVNs: bn, Invariants: true}})

	holed := protocols.MustLoad("MSI_blocking_cache")
	holed.Name = "MSI_holed"
	delete(holed.Dir.Transitions, protocol.TransKey{State: "M", Event: protocol.MsgEv("GetM")})
	hvn, hn := PerMessageVN(holed)
	out = append(out, expansionCase{"missing-cell/MSI_blocking_cache", Config{
		Protocol: holed, Caches: 2, Dirs: 1, Addrs: 1, VN: hvn, NumVNs: hn}})
	return out
}

// digester frames every field it hashes, so no two field sequences
// share a byte stream.
type digester struct{ h io.Writer }

func (d digester) bytes(b []byte) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(b)))
	d.h.Write(n[:])
	d.h.Write(b)
}
func (d digester) str(s string) { d.bytes([]byte(s)) }
func (d digester) num(n int)    { d.bytes([]byte{byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24)}) }
func (d digester) err(e error) {
	if e == nil {
		d.str("ok")
		return
	}
	d.str("error: " + e.Error())
}

// bfsStates returns the first n states sys stores in breadth-first
// order, deduplicating on the canonical form as the model checker does
// (so the states themselves are raw successors, not canonical forms). A
// state whose expansion fails is kept and contributes no successors.
func bfsStates(sys *System, n int) [][]byte {
	seen := map[string]bool{}
	var queue [][]byte
	store := func(states [][]byte) {
		for _, st := range states {
			if k := string(sys.Canonicalize(st)); !seen[k] {
				seen[k] = true
				queue = append(queue, st)
			}
		}
	}
	store(sys.Initial())
	for i := 0; i < len(queue) && len(queue) < n; i++ {
		succs, _ := sys.Successors(queue[i])
		store(succs)
	}
	return queue[:min(n, len(queue))]
}

// matchApply pins the successors Expand splices from the parent's bytes
// against Apply, which encodes each one in full: Expand must have
// visited got, Apply over the enabled rules (next(i) applies rules[i]),
// in order, with the self-loops left out. It reports how many
// successors it compared, or the first difference, naming the rule.
func matchApply(sys *System, raw []byte, got [][]byte, rules []Rule, next func(i int) ([]byte, error)) (int, error) {
	k := 0
	for i, r := range rules {
		want, err := next(i)
		if err != nil {
			return k, fmt.Errorf("%s: Apply: %v", r, err)
		}
		if bytes.Equal(want, raw) {
			continue
		}
		if k >= len(got) {
			return k, fmt.Errorf("%s: Expand visited %d successors, Apply has more", r, len(got))
		}
		if !bytes.Equal(got[k], want) {
			at := 0
			for at < min(len(got[k]), len(want)) && got[k][at] == want[at] {
				at++
			}
			return k, fmt.Errorf("%s: successor %d differs from Apply's at byte %d (network from %d)\n got  %x\n want %x",
				r, k, at, sys.netOff, got[k], want)
		}
		k++
	}
	if k != len(got) {
		return k, fmt.Errorf("Expand visited %d successors, Apply over EnabledRules gives %d", len(got), k)
	}
	return k, nil
}

// expansionDigest hashes everything the package's expansion surface
// says about each of sys's first expansionStates stored states, into two
// digests that must come out equal: collected reads successors, labels
// and canonical forms off the collecting forms, streamed off Expand,
// RuleNames and AppendCanonical; everything else goes into both. On the
// way it checks each state's expansion against Apply (matchApply);
// mismatch is the first difference, naming the state's index.
func expansionDigest(sys *System) (collected, streamed string, states, succs int, mismatch error) {
	hc, hs := sha256.New(), sha256.New()
	d, dc, ds := digester{io.MultiWriter(hc, hs)}, digester{hc}, digester{hs}
	var key []byte // AppendCanonical's warm destination
	canonical := func(raw []byte) []byte {
		ck := sys.AppendCanonical(key, raw)
		if len(ck) > 0 && &ck[0] != &raw[0] {
			key = ck[:0]
		}
		return ck
	}
	// expand copies what Expand lends — the successors back to back, their
	// end offsets and rule ids — digests error and count, and returns the
	// error; each then walks the copies.
	var arena []byte
	var ends, ids []int
	visit := func(succ []byte, rule int) {
		arena = append(arena, succ...)
		ends, ids = append(ends, len(arena)), append(ids, rule)
	}
	expand := func(raw []byte) error {
		arena, ends, ids = arena[:0], ends[:0], ids[:0]
		n, err := sys.Expand(raw, visit)
		ds.err(err)
		ds.num(n)
		return err
	}
	each := func(f func(succ []byte, rule int)) {
		lo := 0
		for i, hi := range ends {
			f(arena[lo:hi], ids[i])
			lo = hi
		}
	}
	var got, applied [][]byte
	var applyErrs []error
	for i, raw := range bfsStates(sys, expansionStates) {
		states++
		d.bytes(raw)
		dc.bytes(sys.Canonicalize(raw))
		ds.bytes(canonical(raw))
		if sys.Quiescent(raw) {
			d.str("quiescent")
		}

		plain, err := sys.Successors(raw)
		dc.err(err)
		dc.num(len(plain))
		for _, s := range plain {
			dc.bytes(s)
			dc.bytes(sys.Canonicalize(s))
		}
		succs += len(plain)
		named, labels, nerr := sys.SuccessorsNamed(raw)
		dc.err(nerr)
		dc.num(len(named))
		for i, s := range named {
			dc.bytes(s)
			dc.str(labels[i])
		}

		expand(raw)
		each(func(s []byte, _ int) {
			ds.bytes(s)
			ds.bytes(canonical(s))
		})
		expandErr := expand(raw)
		got = got[:0]
		each(func(s []byte, rule int) {
			ds.bytes(s)
			ds.str(sys.RuleNames()[rule])
			got = append(got, s)
		})

		rules, rerr := sys.EnabledRules(raw)
		d.err(rerr)
		d.num(len(rules))
		applied, applyErrs = applied[:0], applyErrs[:0]
		for _, r := range rules {
			d.str(r.String())
			next, aerr := sys.Apply(raw, r)
			d.err(aerr)
			d.bytes(next)
			applied, applyErrs = append(applied, next), append(applyErrs, aerr)
		}
		// A state whose expansion fails is a violation, whose text the
		// digest pins; one that expands must match Apply.
		if expandErr != nil || mismatch != nil {
			continue
		}
		if rerr != nil {
			mismatch = fmt.Errorf("state %d: Expand succeeds, EnabledRules fails: %v", i, rerr)
		} else if _, err := matchApply(sys, raw, got, rules, func(j int) ([]byte, error) { return applied[j], applyErrs[j] }); err != nil {
			mismatch = fmt.Errorf("state %d, %v", i, err)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		w := sys.Walk(seed, 300)
		d.str(w.String())
		d.bytes(w.Final)
	}
	return fmt.Sprintf("%x", hc.Sum(nil)), fmt.Sprintf("%x", hs.Sum(nil)), states, succs, mismatch
}

// TestExpansionGolden: the compiled expansion path reproduces the
// recorded interpreter on every pinned system, and Expand matches Apply
// on every state the digest walks. Run with -update to re-record (only
// legitimate when the semantics are meant to change).
func TestExpansionGolden(t *testing.T) {
	path := filepath.Join("testdata", "expansion.golden")
	var got []string
	for _, c := range expansionCases(t) {
		sys, err := New(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum, streamed, states, succs, mismatch := expansionDigest(sys)
		if mismatch != nil {
			t.Errorf("%s: %v", c.name, mismatch)
		}
		if streamed != sum {
			t.Errorf("%s: digest through Expand/RuleNames/AppendCanonical is %s, through the collecting forms %s", c.name, streamed, sum)
		}
		got = append(got, fmt.Sprintf("%s %s states=%d successors=%d", c.name, sum, states, succs))
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d systems, test has %d (re-record with -update only if the case list changed)", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("expansion digest diverged\n got  %s\n want %s", got[i], want[i])
		}
	}
}

// huntSample keeps a copy of every every-th state a search stores.
type huntSample struct {
	seen, every int
	states      [][]byte
}

func (h *huntSample) Observe(state []byte) {
	if h.seen%h.every == 0 {
		h.states = append(h.states, append([]byte(nil), state...))
	}
	h.seen++
}

// TestExpandMatchesApply pins Expand against Apply (matchApply) where
// more messages are in flight than on the golden digest's breadth-first
// states, which TestExpansionGolden checks the same way: ~2,000 states
// of the depth-first hunt from the owned seed at one VN per message. It
// runs on one goroutine, so under the race detector, twenty times
// slower, a tenth of the sample does.
func TestExpandMatchesApply(t *testing.T) {
	first, every := expansionStates, 150
	if raceEnabled {
		first, every = expansionStates/10, 1500
	}
	// Bench's deadlock_hunt_dfs search, every 150th of its 301,611 stored
	// states: four to six messages in flight where breadth-first has two
	// or three.
	hunt := perMessageSystem(t)
	seed, err := OwnedSeed(hunt)
	if err != nil {
		t.Fatal(err)
	}
	sample := &huntSample{every: every}
	res := mc.Check(&Seeded{System: hunt, Seeds: [][]byte{seed}},
		mc.Options{Strategy: mc.DFS, MaxStates: 600_000, DisableTraces: true, Observer: sample})
	if res.Outcome != mc.Deadlock {
		t.Fatalf("the depth-first hunt ends %v", res.Outcome)
	}
	deepest := 0
	for _, raw := range sample.states {
		deepest = max(deepest, hunt.InFlight(raw))
	}
	for _, raw := range bfsStates(hunt, first) {
		if n := hunt.InFlight(raw); n >= deepest {
			t.Fatalf("the depth-first sample holds at most %d messages in flight, breadth-first %d", deepest, n)
		}
	}

	var got [][]byte
	visit := func(succ []byte, _ int) { got = append(got, append([]byte(nil), succ...)) }
	compared := 0
	for i, raw := range sample.states {
		got = got[:0]
		if _, err := hunt.Expand(raw, visit); err != nil {
			continue // a violation; the golden digest pins its text
		}
		rules, err := hunt.EnabledRules(raw)
		if err != nil {
			t.Fatalf("state %d: Expand succeeds, EnabledRules fails: %v", i, err)
		}
		k, err := matchApply(hunt, raw, got, rules, func(j int) ([]byte, error) { return hunt.Apply(raw, rules[j]) })
		if err != nil {
			t.Fatalf("state %d, %v", i, err)
		}
		compared += k
	}
	if compared == 0 {
		t.Error("no successor compared")
	}
}
