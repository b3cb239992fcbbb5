package vnassign

import (
	"fmt"
	"testing"

	"minvn/internal/analysis"
	"minvn/internal/protocol"
	"minvn/internal/protocols"
)

// TestTableIStatic reproduces the static half of the paper's Table I:
// the classification and VN count for every protocol configuration.
func TestTableIStatic(t *testing.T) {
	cases := []struct {
		proto  string
		class  Class
		numVNs int // for Class 3
	}{
		// Cell (1): never-blocking directory and cache → 1 VN.
		{"MOSI_nonblocking_cache", Class3, 1},
		{"MOESI_nonblocking_cache", Class3, 1},
		// Cell (2): never-blocking directory, blocking cache → Class 2.
		{"MOSI_blocking_cache", Class2, 0},
		{"MOESI_blocking_cache", Class2, 0},
		// Cell (4): always-blocking directory (CHI) → 2 VNs.
		{"CHI", Class3, 2},
		// Extensions in the same cell: the other industrial-flavored
		// specs (TileLink prescribes 5 channels; a completion-ordered
		// MSI is the §III chain-length-4 example).
		{"TileLink", Class3, 2},
		{"MSI_completion", Class3, 2},
		{"CXL_cache", Class3, 2},
		// Cell (5): sometimes-blocking directory, non-blocking cache → 2 VNs.
		{"MSI_nonblocking_cache", Class3, 2},
		{"MESI_nonblocking_cache", Class3, 2},
		// Extension: MESIF (the remaining MOESIF-family member) lands
		// in the same cell.
		{"MESIF_nonblocking_cache", Class3, 2},
		// Cell (6): sometimes-blocking directory, blocking cache → Class 2.
		{"MSI_blocking_cache", Class2, 0},
		{"MESI_blocking_cache", Class2, 0},
		{"MESIF_blocking_cache", Class2, 0},
	}
	for _, c := range cases {
		a := Assign(protocols.MustLoad(c.proto))
		if a.Class != c.class {
			t.Errorf("%s: class %v, want %v", c.proto, a.Class, c.class)
			continue
		}
		if c.class == Class3 {
			if a.NumVNs != c.numVNs {
				t.Errorf("%s: %d VNs, want %d (%s)", c.proto, a.NumVNs, c.numVNs, a)
			}
			if !Eq4Holds(a) {
				t.Errorf("%s: assignment does not satisfy Eq. 4", c.proto)
			}
			if a.Refinements != 0 {
				t.Errorf("%s: paper algorithm needed %d refinements", c.proto, a.Refinements)
			}
			if !a.Exact {
				t.Errorf("%s: solution should be exact at this scale", c.proto)
			}
		}
	}
}

// TestClass2WitnessIsFwdGetM: the paper's §V-E-b pinpoints the
// Fwd-GetM self-wait as the fatal cycle in the blocking-cache
// protocols.
func TestClass2WitnessIsFwdGetM(t *testing.T) {
	for _, proto := range []string{
		"MSI_blocking_cache", "MESI_blocking_cache",
		"MOSI_blocking_cache", "MOESI_blocking_cache",
	} {
		a := Assign(protocols.MustLoad(proto))
		if a.Class != Class2 {
			t.Errorf("%s: not Class 2", proto)
			continue
		}
		found := false
		for _, m := range a.WaitsCycle {
			if m == "Fwd-GetM" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: waits cycle %v does not involve Fwd-GetM", proto, a.WaitsCycle)
		}
	}
}

// TestRequestsIsolated: for the 2-VN protocols, the computed mapping
// isolates requests on one VN, everything else on the other — the
// assignment the paper reports for both cells (4) and (5).
func TestRequestsIsolated(t *testing.T) {
	for _, proto := range []string{"MSI_nonblocking_cache", "MESI_nonblocking_cache", "MESIF_nonblocking_cache", "CHI"} {
		a := Assign(protocols.MustLoad(proto))
		if a.NumVNs != 2 {
			t.Fatalf("%s: %d VNs", proto, a.NumVNs)
		}
		p := a.Protocol
		reqVN := -1
		for _, m := range p.MessagesOfType(protocol.Request) {
			if reqVN == -1 {
				reqVN = a.VN[m]
			} else if a.VN[m] != reqVN {
				t.Errorf("%s: requests split across VNs", proto)
			}
		}
		for _, m := range p.MessageNames() {
			if p.Messages[m].Type != protocol.Request && a.VN[m] == reqVN {
				t.Errorf("%s: non-request %s shares the request VN", proto, m)
			}
		}
	}
}

// TestIndustrialSpecsTextbookFour: the completion-chain protocols all
// get 4 VNs from the conventional rule — matching the CHI spec's 4
// channels-for-deadlock and overshooting TileLink's actual need —
// while the minimum is 2 in every case.
func TestIndustrialSpecsTextbookFour(t *testing.T) {
	for _, proto := range []string{"TileLink", "MSI_completion"} {
		r := analysis.Analyze(protocols.MustLoad(proto))
		tb := Textbook(r)
		if tb.NumVNs != 4 {
			t.Errorf("%s: textbook VNs = %d (chain %v), want 4", proto, tb.NumVNs, tb.Chain)
		}
		if a := AssignFromAnalysis(r); a.NumVNs != 2 {
			t.Errorf("%s: minimal VNs = %d, want 2", proto, a.NumVNs)
		}
	}
}

// TestCHITextbookFour: the conventional rule derives 4 VNs for CHI
// via the completion chain (§III, Eq. 7) — the count the CHI
// specification mandates — while our algorithm needs only 2.
func TestCHITextbookFour(t *testing.T) {
	r := analysis.Analyze(protocols.MustLoad("CHI"))
	tb := Textbook(r)
	if tb.NumVNs != 4 {
		t.Fatalf("CHI textbook VNs = %d (chain %v), want 4", tb.NumVNs, tb.Chain)
	}
	if tb.ClassOf["CompAck"] != "completion" {
		t.Errorf("CompAck classified %q, want completion", tb.ClassOf["CompAck"])
	}
	a := AssignFromAnalysis(r)
	if a.NumVNs != 2 {
		t.Fatalf("CHI minimal VNs = %d, want 2", a.NumVNs)
	}
}

// TestTextbookThreeForPrimerProtocols: request → forwarded → response.
func TestTextbookThreeForPrimerProtocols(t *testing.T) {
	for _, proto := range []string{
		"MSI_blocking_cache", "MSI_nonblocking_cache",
		"MESI_blocking_cache", "MOSI_nonblocking_cache", "MOESI_blocking_cache",
	} {
		tb := Textbook(analysis.Analyze(protocols.MustLoad(proto)))
		if tb.NumVNs != 3 {
			t.Errorf("%s: textbook VNs = %d (chain %v), want 3", proto, tb.NumVNs, tb.Chain)
		}
	}
}

// TestTextbookNeitherNecessaryNorSufficient is §III in test form.
func TestTextbookNeitherNecessaryNorSufficient(t *testing.T) {
	// Not sufficient: MSI-with-blocking-cache gets 3 VNs from the
	// textbook, yet no finite per-name assignment avoids deadlock.
	bl := Assign(protocols.MustLoad("MSI_blocking_cache"))
	tbBl := Textbook(bl.Analysis)
	if tbBl.NumVNs != 3 || bl.Class != Class2 {
		t.Errorf("not-sufficient half failed: textbook %d, class %v", tbBl.NumVNs, bl.Class)
	}
	// Not necessary: the fully non-blocking MOSI gets 3 from the
	// textbook but needs only 1; CHI gets 4 but needs 2.
	nb := Assign(protocols.MustLoad("MOSI_nonblocking_cache"))
	tbNb := Textbook(nb.Analysis)
	if tbNb.NumVNs != 3 || nb.NumVNs != 1 {
		t.Errorf("not-necessary half failed: textbook %d, minimal %d", tbNb.NumVNs, nb.NumVNs)
	}
}

// TestCHIFig5Relations checks the paper's Eq. 7 causes chain and the
// waits relation of §VII-C for our CHI formalization.
func TestCHIFig5Relations(t *testing.T) {
	r := analysis.Analyze(protocols.MustLoad("CHI"))
	// CleanUnique causes Inv causes SnpResp(=Inv-Ack) causes
	// Comp(=Resp) causes CompAck(=Comp in the paper's naming).
	chain := []string{"CleanUnique", "Inv", "SnpResp", "Comp", "CompAck"}
	for i := 0; i+1 < len(chain); i++ {
		if !r.Causes.Has(chain[i], chain[i+1]) {
			t.Errorf("causes missing %s -> %s", chain[i], chain[i+1])
		}
	}
	// ReadShared waits for the CleanUnique transaction's tail:
	// req waits {fwd, res, data} — and never for another request.
	wants := map[string][]string{
		"ReadShared": {"Inv", "SnpResp", "Comp", "CompAck"},
	}
	for m, tail := range wants {
		for _, w := range tail {
			if !r.Waits.Has(m, w) {
				t.Errorf("waits missing %s -> %s", m, w)
			}
		}
	}
	for _, req := range r.Protocol.MessagesOfType(protocol.Request) {
		for _, other := range r.Protocol.MessagesOfType(protocol.Request) {
			if r.Waits.Has(req, other) {
				t.Errorf("request %s waits for request %s — would be Class 2", req, other)
			}
		}
	}
}

// TestNeverStallingNeedsOneVN: a protocol without stalls yields an
// empty waits relation and one VN (§III-B's "almost trivial" example).
func TestNeverStallingNeedsOneVN(t *testing.T) {
	for _, proto := range []string{"MOSI_nonblocking_cache", "MOESI_nonblocking_cache"} {
		a := Assign(protocols.MustLoad(proto))
		if !a.Analysis.Waits.IsEmpty() {
			t.Errorf("%s: waits not empty: %v", proto, a.Analysis.Waits)
		}
		if a.NumVNs != 1 {
			t.Errorf("%s: VNs = %d, want 1", proto, a.NumVNs)
		}
	}
}

// TestFASClass2AgreesWithDirectCheck: the Eq. 6 weighted-FAS route and
// the direct waits-cycle check must classify identically.
func TestFASClass2AgreesWithDirectCheck(t *testing.T) {
	for _, proto := range protocols.Names() {
		a := Assign(protocols.MustLoad(proto))
		direct := a.Analysis.Waits.HasCycle()
		if direct != (a.Class == Class2) {
			t.Errorf("%s: FAS route says %v, direct cycle check says %v",
				proto, a.Class, direct)
		}
	}
}

// TestUniqueVNsStillDeadlockForClass2: Eq. 4 fails for Class 2
// protocols even with per-message VNs (§V-E).
func TestUniqueVNsStillDeadlockForClass2(t *testing.T) {
	for _, proto := range []string{"MOSI_blocking_cache", "MESI_blocking_cache"} {
		r := analysis.Analyze(protocols.MustLoad(proto))
		if ok, _ := analysis.DeadlockFree(r, analysis.UniqueVNs(r.Protocol)); ok {
			t.Errorf("%s: Eq. 4 unexpectedly holds with unique VNs", proto)
		}
	}
}

// TestAssignmentStringRendering smoke-tests the human-readable output.
func TestAssignmentStringRendering(t *testing.T) {
	a := Assign(protocols.MustLoad("CHI"))
	s := a.String()
	if s == "" || a.VNGroups() == nil {
		t.Fatal("empty rendering")
	}
}

// chainProtocol builds a Class 3 protocol whose waits relation is one
// long chain Fwd1 → Fwd2 → … → FwdK: a cache waiting for Rsp_i stalls
// Fwd_i, and the directory answers Req_i with Rsp_i and Fwd_{i+1}. With
// K = 16 it has 66 messages, so Eq. 6's unbreakable weight is at its
// cap of 2^60+1, and the sixteen Fwd messages form one component of the
// dependency graph with 120 unbreakable edges (i → j, i < j) — every
// vertex order but one puts some of them backward.
func chainProtocol(t *testing.T, k int) *protocol.Protocol {
	b := protocol.NewBuilder(fmt.Sprintf("chain%d", k))
	name := func(kind string, i int) string { return fmt.Sprintf("%s%02d", kind, i) }
	for i := 0; i <= k; i++ {
		b.Message(name("Req", i), protocol.Request)
		b.Message(name("Rsp", i), protocol.DataResponse)
		if i > 0 {
			b.Message(name("Fwd", i), protocol.FwdRequest)
			b.Message(name("Ack", i), protocol.CtrlResponse)
		}
	}
	c := b.Cache("S0")
	d := b.Dir("Idle")
	d.Stable("Idle")
	for i := 0; i <= k; i++ {
		// Three core events per stable state issue three requests.
		stable, pending := fmt.Sprintf("S%d", i/3), fmt.Sprintf("T%d", i)
		if i%3 == 0 {
			c.Stable(stable)
		}
		c.Transient(pending)
		c.On(stable, protocol.CoreEv(protocol.CoreEvents[i%3])).Send(name("Req", i), protocol.ToDir).Goto(pending)
		c.On(pending, protocol.MsgEv(name("Rsp", i))).Goto(stable)
		answer := d.On("Idle", protocol.MsgEv(name("Req", i))).Send(name("Rsp", i), protocol.ToReq)
		if i < k {
			answer.Send(name("Fwd", i+1), protocol.ToReq)
		}
		answer.Stay()
		if i > 0 {
			c.StallOn(pending, protocol.MsgEv(name("Fwd", i)))
			c.On("S0", protocol.MsgEv(name("Fwd", i))).Send(name("Ack", i), protocol.ToDir).Stay()
			d.On("Idle", protocol.MsgEv(name("Ack", i))).Stay()
		}
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestUnbreakableWeightManyMessages: a protocol with more than 60
// messages and an acyclic waits relation is Class 3. Summing Eq. 6's
// capped 2^60+1 weights in the feedback-arc-set DP used to wrap for
// such protocols, put an unbreakable edge in the arc set, and report
// Class 2 with no waits cycle to show for it.
func TestUnbreakableWeightManyMessages(t *testing.T) {
	p := chainProtocol(t, 16)
	if len(p.Messages) < 64 {
		t.Fatalf("only %d messages", len(p.Messages))
	}
	r := analysis.Analyze(p)
	if w := r.Waits.CycleWitness(); w != nil {
		t.Fatalf("the chain's waits relation has a cycle: %v", w)
	}
	a := AssignFromAnalysis(r)
	if a.Class != Class3 || a.WaitsCycle != nil {
		t.Fatalf("class = %v (waits cycle %v), want Class 3", a.Class, a.WaitsCycle)
	}
	if !Eq4Holds(a) {
		t.Fatalf("the %d-VN assignment violates Eq. 4", a.NumVNs)
	}
	closure := r.Waits.TransitiveClosure()
	for _, e := range a.FAS {
		if closure.Has(e.From, e.To) {
			t.Errorf("feedback arc %s -> %s is unbreakable", e.From, e.To)
		}
	}
	// Every Fwd message is stalled behind every other: they all need
	// their own VN.
	if a.NumVNs < 16 {
		t.Errorf("NumVNs = %d, want at least one per Fwd message", a.NumVNs)
	}
}
