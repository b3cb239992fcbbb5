package protocols

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"minvn/internal/protocol"
)

// TestAllBuiltinsValidate: every registered protocol builds and passes
// structural validation (MustLoad panics otherwise).
func TestAllBuiltinsValidate(t *testing.T) {
	for _, name := range Names() {
		p := MustLoad(name)
		if err := protocol.Validate(p); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("protocol name %q registered as %q", p.Name, name)
		}
	}
}

func TestAliases(t *testing.T) {
	for alias, canonical := range map[string]string{
		"MSI": "MSI_blocking_cache", "MESI-NB": "MESI_nonblocking_cache",
	} {
		p, err := Load(alias)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != canonical {
			t.Errorf("alias %s resolved to %s", alias, p.Name)
		}
		if got, ok := Canonical(alias); !ok || got != canonical {
			t.Errorf("Canonical(%s) = %s, %v; want %s", alias, got, ok, canonical)
		}
		if got, ok := Canonical(canonical); !ok || got != canonical {
			t.Errorf("Canonical(%s) = %s, %v", canonical, got, ok)
		}
	}
	if _, err := Load("bogus"); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Errorf("expected unknown-protocol error, got %v", err)
	}
	if _, ok := Canonical("bogus"); ok {
		t.Error("Canonical accepts an unknown name")
	}
}

// TestLoadReturnsFreshCopies: editing one load must not leak into the
// next. Every built-in is built once per process and every Load is a
// deep copy of it, so the test edits, in place, every message, state,
// cell, action and next state of one copy (plus its maps) and checks
// the next Load encodes byte for byte as the first did untouched.
func TestLoadReturnsFreshCopies(t *testing.T) {
	for _, name := range Names() {
		p1 := MustLoad(name)
		want, err := protocol.Encode(p1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mutate(p1)
		got, err := protocol.Encode(MustLoad(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: editing one Load changed the next:\n%s\nwant\n%s", name, got, want)
		}
	}
}

// mutate edits every part of p reachable through its exported fields.
func mutate(p *protocol.Protocol) {
	p.Name += "_edited"
	for _, m := range p.Messages {
		m.Name += "_edited"
		m.Type = (m.Type + 1) % 4
		m.Ack = protocol.AckUnit
		m.Qual = protocol.QualOwnership
		m.Level = protocol.LevelOuter
	}
	p.Messages["Edited"] = &protocol.Message{Name: "Edited"}
	for _, c := range p.Controllers() {
		c.Initial += "_edited"
		for _, st := range c.States {
			st.Name += "_edited"
			st.Transient = !st.Transient
		}
		c.States["Edited"] = &protocol.State{Name: "Edited"}
		for key, tr := range c.Transitions {
			tr.Stall = !tr.Stall
			tr.Next += "_edited"
			for i := range tr.Actions {
				a := &tr.Actions[i]
				a.Kind = protocol.ASend
				a.Msg += "_edited"
				a.To = protocol.ToSelf
				a.WithAcks, a.Inherit, a.ReqSaved = !a.WithAcks, !a.Inherit, !a.ReqSaved
			}
			tr.Actions = append(tr.Actions, protocol.Action{Kind: protocol.ACopyToMem})
			c.Transitions[protocol.TransKey{State: key.State, Event: protocol.MsgEv("Edited")}] = tr
		}
	}
}

// TestLoadConcurrent loads every built-in from 16 goroutines at once,
// each editing its copies, and checks they all encode alike: under
// -race it catches a copy that shares memory with the cached table or
// with another copy, and, run alone, a first build that races.
func TestLoadConcurrent(t *testing.T) {
	names := Names()
	const goroutines = 16
	encs := make([][][]byte, goroutines)
	var wg sync.WaitGroup
	for g := range encs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range names {
				p := MustLoad(name)
				enc, err := protocol.Encode(p)
				if err != nil {
					t.Error(err)
					return
				}
				encs[g] = append(encs[g], enc)
				mutate(p)
			}
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i, name := range names {
			if !bytes.Equal(encs[g][i], encs[0][i]) {
				t.Fatalf("%s: goroutine %d loaded a different table from goroutine 0", name, g)
			}
		}
	}
}

// TestClass1DiffersFromMSIOnlyInSMADInv.
func TestClass1DiffersFromMSIOnlyInSMADInv(t *testing.T) {
	base := MustLoad("MSI_blocking_cache")
	c1 := MustLoad("MSI_class1")
	key := protocol.TransKey{State: "SM_AD", Event: protocol.MsgEv("Inv")}
	if !c1.Cache.Transitions[key].Stall {
		t.Fatal("class1 does not stall Inv in SM_AD")
	}
	if base.Cache.Transitions[key].Stall {
		t.Fatal("base MSI stalls Inv in SM_AD")
	}
	diffs := 0
	for k, tr := range base.Cache.Transitions {
		o := c1.Cache.Transitions[k]
		if o == nil || o.Stall != tr.Stall || o.Next != tr.Next {
			diffs++
		}
	}
	if diffs != 1 {
		t.Fatalf("class1 differs from MSI in %d cells, want 1", diffs)
	}
}

// TestJSONRoundTripAllBuiltins: every built-in protocol survives the
// JSON codec with its transition tables intact.
func TestJSONRoundTripAllBuiltins(t *testing.T) {
	for _, name := range Names() {
		p := MustLoad(name)
		data, err := protocol.Encode(p)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		q, err := protocol.Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if len(q.Messages) != len(p.Messages) {
			t.Errorf("%s: lost messages", name)
		}
		for _, c := range []struct{ a, b *protocol.Controller }{
			{p.Cache, q.Cache}, {p.Dir, q.Dir},
		} {
			if len(c.a.Transitions) != len(c.b.Transitions) {
				t.Errorf("%s: %s transitions %d -> %d",
					name, c.a.Kind, len(c.a.Transitions), len(c.b.Transitions))
				continue
			}
			for k, tr := range c.a.Transitions {
				o := c.b.Transitions[k]
				if o == nil {
					t.Errorf("%s: lost cell %v", name, k)
					continue
				}
				if o.Stall != tr.Stall || o.Next != tr.Next || len(o.Actions) != len(tr.Actions) {
					t.Errorf("%s: cell %v mutated", name, k)
				}
				for i := range tr.Actions {
					if tr.Actions[i] != o.Actions[i] {
						t.Errorf("%s: cell %v action %d: %+v -> %+v",
							name, k, i, tr.Actions[i], o.Actions[i])
					}
				}
			}
		}
	}
}

// TestBlockingVariantsStallForwards / NonblockingDont: the defining
// difference of the Table I rows.
func TestBlockingVariantsStallForwards(t *testing.T) {
	for _, fam := range []string{"MSI", "MESI", "MOSI", "MOESI"} {
		bl := MustLoad(fam + "_blocking_cache")
		nb := MustLoad(fam + "_nonblocking_cache")
		stalls := func(p *protocol.Protocol) int {
			n := 0
			for k, tr := range p.Cache.Transitions {
				if tr.Stall && !k.Event.IsCore() &&
					(k.Event.Msg == "Fwd-GetS" || k.Event.Msg == "Fwd-GetM") {
					n++
				}
			}
			return n
		}
		if stalls(bl) == 0 {
			t.Errorf("%s blocking variant stalls no forwards", fam)
		}
		if got := stalls(nb); got != 0 {
			t.Errorf("%s non-blocking variant stalls %d forwards", fam, got)
		}
	}
}

// TestDirectoryBlockingShape: MOSI/MOESI directories have no stalls at
// all; MSI/MESI stall only requests in S_D; CHI stalls every request
// in every busy state.
func TestDirectoryBlockingShape(t *testing.T) {
	countDirStalls := func(p *protocol.Protocol) (n int, states map[string]bool) {
		states = map[string]bool{}
		for k, tr := range p.Dir.Transitions {
			if tr.Stall && !k.Event.IsCore() {
				n++
				states[k.State] = true
			}
		}
		return n, states
	}
	for _, name := range []string{"MOSI_nonblocking_cache", "MOESI_nonblocking_cache",
		"MOSI_blocking_cache", "MOESI_blocking_cache"} {
		if n, _ := countDirStalls(MustLoad(name)); n != 0 {
			t.Errorf("%s: directory has %d stalls, want 0 (never blocks)", name, n)
		}
	}
	for _, name := range []string{"MSI_blocking_cache", "MESI_nonblocking_cache"} {
		_, states := countDirStalls(MustLoad(name))
		if len(states) != 1 || !states["S_D"] {
			t.Errorf("%s: directory stalls in %v, want only S_D", name, states)
		}
	}
	chi := MustLoad("CHI")
	nBusy := 0
	for _, st := range chi.Dir.StateNames() {
		if chi.Dir.States[st].Transient {
			nBusy++
		}
	}
	_, states := countDirStalls(chi)
	if len(states) != nBusy {
		t.Errorf("CHI: stalls in %d of %d busy states (always blocks)", len(states), nBusy)
	}
}

// TestResponsesNeverStalled: §VI-C.1 — stalling responses leads to
// protocol deadlock; none of the built-ins does it.
func TestResponsesNeverStalled(t *testing.T) {
	for _, name := range Names() {
		p := MustLoad(name)
		for _, c := range p.Controllers() {
			for k, tr := range c.Transitions {
				if !tr.Stall || k.Event.IsCore() {
					continue
				}
				if p.Messages[k.Event.Msg].Type.IsResponse() {
					t.Errorf("%s: %s stalls response %s in %s",
						name, c.Kind, k.Event.Msg, k.State)
				}
			}
		}
	}
}

// TestTablePrintingGolden spot-checks the Fig. 1 rendering.
func TestTablePrintingGolden(t *testing.T) {
	p := MustLoad("MSI_blocking_cache")
	out := protocol.FormatController(p.Cache)
	for _, want := range []string{
		"send GetS to Dir/IS_D",
		"send GetM to Dir/IM_AD",
		"stall",
		"-/M",
		"send Data to Req; send Data to Dir/S",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig. 1 rendering missing %q", want)
		}
	}
}

// TestMessageTypeInventory: each protocol declares the message classes
// the paper's taxonomy expects.
func TestMessageTypeInventory(t *testing.T) {
	for _, name := range Names() {
		p := MustLoad(name)
		if len(p.MessagesOfType(protocol.Request)) == 0 {
			t.Errorf("%s: no requests", name)
		}
		if len(p.MessagesOfType(protocol.FwdRequest)) == 0 {
			t.Errorf("%s: no forwarded requests", name)
		}
		if len(p.MessagesOfType(protocol.DataResponse)) == 0 {
			t.Errorf("%s: no data responses", name)
		}
	}
}
