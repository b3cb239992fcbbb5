package ptest

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"minvn/internal/protocol"
	"minvn/internal/protocol/xform"
	"minvn/internal/protocols"
)

// The generator's size bounds: request/response chains of a
// synthesized protocol (each contributes a request, a response, and —
// when its directory transaction blocks — a completion message), stable
// states of the synthesized cache, and mutations per mutated case.
const (
	maxChains       = 4
	maxStableStates = 3
	maxMutations    = 4
)

// GenConfig picks the generator's mix of case origins.
type GenConfig struct {
	// MutateFrac is the fraction of cases produced by mutating a
	// built-in protocol instead of synthesizing one. The zero value
	// mutates none; a value outside [0, 1] means 0.5.
	MutateFrac float64
	// XformFrac is the fraction of cases produced by the xform
	// derivations — the non-stalling transform of a built-in, or a
	// two-level composite of two built-ins — optionally mutated.
	// Negative disables; the zero value means the default 0.25.
	XformFrac float64
}

func (c GenConfig) normalized() GenConfig {
	if c.MutateFrac < 0 || c.MutateFrac > 1 {
		c.MutateFrac = 0.5
	}
	if c.XformFrac == 0 {
		c.XformFrac = 0.25
	}
	if c.XformFrac < 0 || c.XformFrac > 1 {
		c.XformFrac = 0
	}
	return c
}

// Case is one generated protocol: the editable spec, the built (and
// therefore validated) protocol, the sub-seed that deterministically
// reproduces it, and its origin ("synthesized" or "mutated:<name>").
type Case struct {
	Spec   *Spec
	Proto  *protocol.Protocol
	Seed   int64
	Origin string
}

// Generator produces well-formed random protocols. It is deterministic
// per seed: Generate(seed) always returns the same case.
type Generator struct {
	cfg      GenConfig
	builtins []string
}

// NewGenerator returns a generator over the built-in protocol corpus.
func NewGenerator(cfg GenConfig) *Generator {
	return &Generator{cfg: cfg.normalized(), builtins: protocols.Names()}
}

// composePairs returns the (inner, outer) built-in combinations the
// composer accepts, outer-major in name order — outers are the
// blocking-cache variants (the saved register and directory-book
// qualifiers rule the rest out). They depend only on the built-ins, so
// they are probed once per process, by the first generator that
// derives a composite.
var composePairs = sync.OnceValue(func() [][2]string {
	var pairs [][2]string
	names := protocols.Names()
	for _, outer := range names {
		if !strings.Contains(outer, "_blocking_cache") {
			continue
		}
		for _, inner := range names {
			if _, err := xform.Compose(
				protocols.MustLoad(inner), protocols.MustLoad(outer), "probe"); err == nil {
				pairs = append(pairs, [2]string{inner, outer})
			}
		}
	}
	return pairs
})

// caseSeed decorrelates per-case streams from (campaign seed, index)
// with a splitmix64 step, so neighbouring indices do not produce
// correlated protocols.
func caseSeed(seed int64, index int) int64 {
	z := uint64(seed) + uint64(index)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Generate builds the case for one sub-seed. Mutation candidates that
// fail validation are retried with fresh randomness and fall back to
// synthesis, so the result is always a valid protocol.
func (g *Generator) Generate(seed int64) *Case {
	r := rand.New(rand.NewSource(seed))
	if r.Float64() < g.cfg.XformFrac {
		if c := g.xformCase(r, seed); c != nil {
			return c
		}
	}
	if r.Float64() < g.cfg.MutateFrac {
		base := g.builtins[r.Intn(len(g.builtins))]
		for attempt := 0; attempt < 24; attempt++ {
			spec := FromProtocol(protocols.MustLoad(base))
			spec.Name = fmt.Sprintf("%s_mut_%d", base, seed&0xffff)
			n := 1 + r.Intn(maxMutations)
			for i := 0; i < n; i++ {
				mutateOnce(r, spec)
			}
			spec.normalize()
			if p, err := spec.Build(); err == nil {
				return &Case{Spec: spec, Proto: p, Seed: seed, Origin: "mutated:" + base}
			}
		}
	}
	spec := synthesize(r)
	p, err := spec.Build()
	if err != nil {
		// Synthesis is correct by construction; a failure here is a
		// generator bug and must be loud, not skipped.
		panic(fmt.Sprintf("ptest: synthesized spec invalid (seed %d): %v", seed, err))
	}
	return &Case{Spec: spec, Proto: p, Seed: seed, Origin: "synthesized"}
}

// xformCase derives a case through the xform package: a non-stalling
// variant of a random built-in, or a two-level composite of an
// accepted pair, lifted into a Spec and optionally mutated (falling
// back to the unmutated derivation when mutation breaks validity).
// Returns nil when no derivation applies — the caller falls through to
// mutation/synthesis.
func (g *Generator) xformCase(r *rand.Rand, seed int64) *Case {
	var p *protocol.Protocol
	var origin string
	pairs := composePairs()
	if len(pairs) == 0 || r.Intn(2) == 0 {
		base := g.builtins[r.Intn(len(g.builtins))]
		ns, err := xform.NonStalling(protocols.MustLoad(base))
		if err != nil {
			return nil
		}
		p, origin = ns, "xform:nonstalling:"+base
	} else {
		pair := pairs[r.Intn(len(pairs))]
		comp, err := xform.Compose(protocols.MustLoad(pair[0]), protocols.MustLoad(pair[1]),
			fmt.Sprintf("compose_%d", seed&0xffff))
		if err != nil {
			return nil
		}
		p, origin = comp, "xform:compose:"+pair[0]+"+"+pair[1]
	}
	spec := FromProtocol(p)
	if r.Intn(2) == 0 {
		n := 1 + r.Intn(maxMutations)
		cand := spec.Clone()
		for i := 0; i < n; i++ {
			mutateOnce(r, cand)
		}
		cand.normalize()
		if mp, err := cand.Build(); err == nil {
			return &Case{Spec: cand, Proto: mp, Seed: seed, Origin: origin + ":mutated"}
		}
	}
	built, err := spec.Build()
	if err != nil {
		// The derivation validated once already; a lift that cannot
		// rebuild is a Spec/FromProtocol bug and must be loud.
		panic(fmt.Sprintf("ptest: xform case does not rebuild (seed %d, %s): %v", seed, origin, err))
	}
	return &Case{Spec: spec, Proto: built, Seed: seed, Origin: origin}
}

// synthesize builds a random request/response protocol from scratch.
// The shape mirrors the paper's protocol space: caches issue requests
// from stable states and wait in per-chain transient states; the
// directory answers, optionally entering a blocking transient state
// that stalls a random subset of requests until the requestor's
// completion arrives (CHI-style home orchestration). Random extra
// cache stalls exercise the static analysis's conservatism: they add
// waits edges for receptions that are dynamically unreachable.
func synthesize(r *rand.Rand) *Spec {
	ns := 1 + r.Intn(maxStableStates)
	chains := 1 + r.Intn(maxChains)
	if max := ns * len(protocol.CoreEvents); chains > max {
		chains = max
	}
	s := &Spec{Name: fmt.Sprintf("synth_%dx%d", ns, chains)}

	stable := make([]string, ns)
	for i := range stable {
		stable[i] = fmt.Sprintf("S%d", i)
	}
	s.Cache.Initial = stable[0]
	for _, name := range stable {
		s.Cache.States = append(s.Cache.States, protocol.State{Name: name})
	}
	s.Dir.Initial = "H"
	s.Dir.States = append(s.Dir.States, protocol.State{Name: "H"})

	type chain struct {
		req, rsp, cmp string // cmp == "" for non-blocking chains
		wait          string
	}
	cs := make([]chain, chains)

	// Assign distinct (stable state, core event) launch slots.
	type slot struct {
		state int
		core  protocol.CoreEvent
	}
	var slots []slot
	for st := 0; st < ns; st++ {
		for _, core := range protocol.CoreEvents {
			slots = append(slots, slot{st, core})
		}
	}
	r.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })

	rspTypes := []protocol.MsgType{protocol.FwdRequest, protocol.DataResponse, protocol.CtrlResponse}
	for i := range cs {
		c := &cs[i]
		c.req = fmt.Sprintf("Req%d", i)
		c.rsp = fmt.Sprintf("Rsp%d", i)
		c.wait = fmt.Sprintf("W%d", i)
		s.Msgs = append(s.Msgs,
			protocol.Message{Name: c.req, Type: protocol.Request},
			protocol.Message{Name: c.rsp, Type: rspTypes[r.Intn(len(rspTypes))]})
		s.Cache.States = append(s.Cache.States, protocol.State{Name: c.wait, Transient: true})
		blocking := r.Float64() < 0.6
		if blocking {
			c.cmp = fmt.Sprintf("Cmp%d", i)
			s.Msgs = append(s.Msgs, protocol.Message{Name: c.cmp, Type: protocol.Request})
			s.Dir.States = append(s.Dir.States, protocol.State{Name: "B" + fmt.Sprint(i), Transient: true})
		}
	}

	// Cache side: launch, wait, complete.
	for i := range cs {
		c := &cs[i]
		sl := slots[i]
		target := stable[r.Intn(ns)]
		s.Trans = append(s.Trans, TransSpec{
			Ctrl: protocol.CacheCtrl, State: stable[sl.state], Event: protocol.CoreEv(sl.core),
			Actions: []protocol.Action{{Kind: protocol.ASend, Msg: c.req, To: protocol.ToDir}},
			Next:    c.wait,
		})
		var acts []protocol.Action
		if c.cmp != "" {
			acts = append(acts, protocol.Action{Kind: protocol.ASend, Msg: c.cmp, To: protocol.ToDir})
		}
		s.Trans = append(s.Trans, TransSpec{
			Ctrl: protocol.CacheCtrl, State: c.wait, Event: protocol.MsgEv(c.rsp),
			Actions: acts, Next: target,
		})
		// Conservatism probe: a stall for a response that cannot
		// actually arrive in this wait state.
		if chains > 1 && r.Float64() < 0.4 {
			j := r.Intn(chains)
			if j != i {
				s.Trans = append(s.Trans, TransSpec{
					Ctrl: protocol.CacheCtrl, State: c.wait,
					Event: protocol.MsgEv(cs[j].rsp), Stall: true,
				})
			}
		}
	}

	// Directory side.
	for i := range cs {
		c := &cs[i]
		next := ""
		if c.cmp != "" {
			next = "B" + fmt.Sprint(i)
		}
		s.Trans = append(s.Trans, TransSpec{
			Ctrl: protocol.DirCtrl, State: "H", Event: protocol.MsgEv(c.req),
			Actions: []protocol.Action{{Kind: protocol.ASend, Msg: c.rsp, To: protocol.ToReq}},
			Next:    next,
		})
	}
	// Late completions can reach H once a second requestor's
	// transaction was answered from the blocking state.
	for i := range cs {
		if cs[i].cmp != "" {
			s.Trans = append(s.Trans, TransSpec{
				Ctrl: protocol.DirCtrl, State: "H", Event: protocol.MsgEv(cs[i].cmp),
			})
		}
	}
	for i := range cs {
		if cs[i].cmp == "" {
			continue
		}
		bst := "B" + fmt.Sprint(i)
		for j := range cs {
			stallIt := r.Float64() < 0.7
			if stallIt {
				s.Trans = append(s.Trans, TransSpec{
					Ctrl: protocol.DirCtrl, State: bst, Event: protocol.MsgEv(cs[j].req), Stall: true,
				})
			} else {
				s.Trans = append(s.Trans, TransSpec{
					Ctrl: protocol.DirCtrl, State: bst, Event: protocol.MsgEv(cs[j].req),
					Actions: []protocol.Action{{Kind: protocol.ASend, Msg: cs[j].rsp, To: protocol.ToReq}},
				})
			}
		}
		for j := range cs {
			if cs[j].cmp == "" {
				continue
			}
			next := ""
			if j == i {
				next = "H"
			}
			s.Trans = append(s.Trans, TransSpec{
				Ctrl: protocol.DirCtrl, State: bst, Event: protocol.MsgEv(cs[j].cmp), Next: next,
			})
		}
	}
	return s
}

// mutateOnce applies one random structural edit. Edits may produce an
// invalid table; the caller re-validates via Build and retries.
func mutateOnce(r *rand.Rand, s *Spec) {
	if len(s.Trans) == 0 {
		return
	}
	switch r.Intn(6) {
	case 0: // drop a transition
		s.removeTransAt(r.Intn(len(s.Trans)))
	case 1: // convert a message cell into a stall
		i := r.Intn(len(s.Trans))
		t := &s.Trans[i]
		if !t.Event.IsCore() {
			t.Stall, t.Actions, t.Next = true, nil, ""
		}
	case 2: // remove a stall (un-block a reception)
		for off, n := r.Intn(len(s.Trans)), 0; n < len(s.Trans); n++ {
			i := (off + n) % len(s.Trans)
			if s.Trans[i].Stall {
				s.removeTransAt(i)
				break
			}
		}
	case 3: // redirect a next-state
		i := r.Intn(len(s.Trans))
		t := &s.Trans[i]
		states := s.ctrl(t.Ctrl).States
		if !t.Stall && len(states) > 0 {
			t.Next = states[r.Intn(len(states))].Name
		}
	case 4: // drop one action
		i := r.Intn(len(s.Trans))
		t := &s.Trans[i]
		if len(t.Actions) > 0 {
			j := r.Intn(len(t.Actions))
			t.Actions = append(append([]protocol.Action(nil), t.Actions[:j]...), t.Actions[j+1:]...)
		}
	case 5: // add a stall for a random message in a transient state
		var transients []TransSpec
		for _, kind := range s.ctrlKinds() {
			cs := *s.ctrl(kind)
			for _, st := range cs.States {
				if st.Transient {
					transients = append(transients, TransSpec{Ctrl: kind, State: st.Name})
				}
			}
		}
		if len(transients) == 0 || len(s.Msgs) == 0 {
			return
		}
		pick := transients[r.Intn(len(transients))]
		msg := s.Msgs[r.Intn(len(s.Msgs))].Name
		for _, t := range s.Trans {
			if t.Ctrl == pick.Ctrl && t.State == pick.State && !t.Event.IsCore() &&
				t.Event.Msg == msg && t.Event.Qual == protocol.QNone {
				return // cell exists; Build would reject the duplicate
			}
		}
		s.Trans = append(s.Trans, TransSpec{
			Ctrl: pick.Ctrl, State: pick.State, Event: protocol.MsgEv(msg), Stall: true,
		})
	}
}

// SweepSet is the protocol set of the repository benchmark's
// static_sweep workload (bench/static.go), for in-package tests and
// benchmarks of the static path: every built-in, every NonStalling
// variant, every pair Compose accepts, and n generated protocols per
// seed (mutations and syntheses only; the transforms are already in).
func SweepSet(seeds []int64, n int) []*protocol.Protocol {
	var ps []*protocol.Protocol
	names := protocols.Names()
	for _, name := range names {
		ps = append(ps, protocols.MustLoad(name))
	}
	for _, name := range names {
		if ns, err := xform.NonStalling(protocols.MustLoad(name)); err == nil {
			ps = append(ps, ns)
		}
	}
	for _, outer := range names {
		for _, inner := range names {
			c, err := xform.Compose(protocols.MustLoad(inner), protocols.MustLoad(outer), xform.ComposeName(inner, outer))
			if err == nil {
				ps = append(ps, c)
			}
		}
	}
	gen := NewGenerator(GenConfig{MutateFrac: 0.7, XformFrac: -1})
	for _, seed := range seeds {
		for i := 0; i < n; i++ {
			ps = append(ps, gen.Generate(seed*1_000_003+int64(i)).Proto)
		}
	}
	return ps
}

// Composites are the two-level members of the protocol family that
// vntable -family lists and vnsweep model checks: the two canonical
// blocking stacks, plus a Class 3 inner to show that a well-assigned L1
// protocol does not rescue the composite's class.
var Composites = []struct{ Name, Inner, Outer string }{
	{"MSI_under_MESI", "MSI_blocking_cache", "MESI_blocking_cache"},
	{"MESI_under_MESI", "MESI_blocking_cache", "MESI_blocking_cache"},
	{"MSInb_under_MESI", "MSI_nonblocking_cache", "MESI_blocking_cache"},
}

// FamilyMember is one derived protocol of the family: a non-stalling
// variant of Parent, or (Parent nil) the composite of Inner under Outer.
type FamilyMember struct {
	Proto, Parent *protocol.Protocol
	Inner, Outer  string
}

// Family derives the protocol family: every built-in's NonStalling
// variant in name order, then the Composites in order.
func Family() ([]FamilyMember, error) {
	var fam []FamilyMember
	for _, name := range protocols.Names() {
		parent := protocols.MustLoad(name)
		ns, err := xform.NonStalling(parent)
		if err != nil {
			return nil, fmt.Errorf("non-stalling %s: %w", name, err)
		}
		fam = append(fam, FamilyMember{Proto: ns, Parent: parent})
	}
	for _, c := range Composites {
		comp, err := xform.Compose(protocols.MustLoad(c.Inner), protocols.MustLoad(c.Outer), c.Name)
		if err != nil {
			return nil, fmt.Errorf("compose %s: %w", c.Name, err)
		}
		fam = append(fam, FamilyMember{Proto: comp, Inner: c.Inner, Outer: c.Outer})
	}
	return fam, nil
}
