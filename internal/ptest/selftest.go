package ptest

import (
	"fmt"

	"minvn/internal/analysis"
	"minvn/internal/protocol"
	"minvn/internal/relation"
)

// pingSpec is the self-test protocol: a completion-style transaction
// (CHI/TileLink shape) where the directory blocks after answering
// Req0 and stalls further Req0s until the requestor's Cmp0 arrives,
// decorated with a second non-blocking transaction and a dynamically
// unreachable directory cell so the shrinker has real work to do.
//
// Its true analysis has waits = {Req0→Rsp0, Req0→Cmp0}; two VNs with
// Cmp0 on the response network are required. Dropping the Req0→Cmp0
// waits edge makes the assignment park Cmp0 with Req0 on VN 0 — and
// then Cmp0 queues behind a stalled Req0 at the directory, a genuine
// reachable deadlock the model checker finds.
func pingSpec() *Spec {
	s := &Spec{Name: "selftest_ping"}
	s.Msgs = []protocol.Message{
		{Name: "Req0", Type: protocol.Request},
		{Name: "Rsp0", Type: protocol.DataResponse},
		{Name: "Cmp0", Type: protocol.Request},
		{Name: "Req1", Type: protocol.Request},
		{Name: "Rsp1", Type: protocol.DataResponse},
	}
	s.Cache = CtrlSpec{Initial: "I", States: []protocol.State{
		{Name: "I"}, {Name: "W0", Transient: true}, {Name: "W1", Transient: true},
	}}
	s.Dir = CtrlSpec{Initial: "H", States: []protocol.State{
		{Name: "H"}, {Name: "B0", Transient: true},
	}}
	send := func(msg string, to protocol.Dest) []protocol.Action {
		return []protocol.Action{{Kind: protocol.ASend, Msg: msg, To: to}}
	}
	s.Trans = []TransSpec{
		{Ctrl: protocol.CacheCtrl, State: "I", Event: protocol.CoreEv(protocol.Load),
			Actions: send("Req0", protocol.ToDir), Next: "W0"},
		{Ctrl: protocol.CacheCtrl, State: "W0", Event: protocol.MsgEv("Rsp0"),
			Actions: send("Cmp0", protocol.ToDir), Next: "I"},
		{Ctrl: protocol.CacheCtrl, State: "I", Event: protocol.CoreEv(protocol.Store),
			Actions: send("Req1", protocol.ToDir), Next: "W1"},
		{Ctrl: protocol.CacheCtrl, State: "W1", Event: protocol.MsgEv("Rsp1"), Next: "I"},

		{Ctrl: protocol.DirCtrl, State: "H", Event: protocol.MsgEv("Req0"),
			Actions: send("Rsp0", protocol.ToReq), Next: "B0"},
		{Ctrl: protocol.DirCtrl, State: "H", Event: protocol.MsgEv("Req1"),
			Actions: send("Rsp1", protocol.ToReq)},
		{Ctrl: protocol.DirCtrl, State: "H", Event: protocol.MsgEv("Cmp0")},
		{Ctrl: protocol.DirCtrl, State: "B0", Event: protocol.MsgEv("Req0"), Stall: true},
		{Ctrl: protocol.DirCtrl, State: "B0", Event: protocol.MsgEv("Req1"),
			Actions: send("Rsp1", protocol.ToReq)},
		{Ctrl: protocol.DirCtrl, State: "B0", Event: protocol.MsgEv("Cmp0"), Next: "H"},
	}
	return s
}

// DropWaitsEdge returns an AnalysisHook that deletes one waits pair —
// the canonical injected analysis bug of the self-test.
func DropWaitsEdge(from, to string) func(*analysis.Result) {
	return func(r *analysis.Result) {
		nw := relation.New()
		for _, pr := range r.Waits.Pairs() {
			if pr.From == from && pr.To == to {
				continue
			}
			nw.Add(pr.From, pr.To)
		}
		r.Waits = nw
	}
}

// SelfTestResult reports the harness's end-to-end fault-injection
// check.
type SelfTestResult struct {
	CleanVerdict    Verdict
	InjectedVerdict Verdict
	Shrunk          *ShrinkResult
}

// SelfTest proves the harness can catch a real soundness bug: it runs
// the ping protocol clean (expecting OK), re-runs it with one waits
// edge dropped from the analysis (expecting the checker to expose the
// resulting bad assignment as a soundness violation), and shrinks the
// violating protocol. An error means the harness itself is broken.
func SelfTest(opts Options) (*SelfTestResult, error) {
	spec := pingSpec()
	p, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("selftest: ping protocol invalid: %v", err)
	}

	res := &SelfTestResult{}
	clean := RunCase(p, opts)
	res.CleanVerdict = clean.Verdict
	if clean.Verdict != VerdictOK {
		return res, fmt.Errorf("selftest: clean run verdict %v, want ok: %s", clean.Verdict, clean.Detail)
	}

	injected := opts
	injected.AnalysisHook = DropWaitsEdge("Req0", "Cmp0")
	bad := RunCase(p, injected)
	res.InjectedVerdict = bad.Verdict
	if bad.Verdict != VerdictSoundnessBug {
		return res, fmt.Errorf("selftest: injected-bug verdict %v, want soundness-bug: %s", bad.Verdict, bad.Detail)
	}

	res.Shrunk = Shrink(spec, func(p *protocol.Protocol) bool {
		return RunCase(p, injected).Verdict == VerdictSoundnessBug
	}, 0)
	return res, nil
}
