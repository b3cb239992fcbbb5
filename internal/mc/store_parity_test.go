package mc_test

// Compact-store parity suite. Two contracts, checked over every
// built-in protocol:
//
//  1. Within the compact store, both engines agree exactly
//     (outcome, message, states, depth, rules, trace, dedup counters)
//     — the same contract the exact store has always carried.
//  2. Across stores, exact and compact agree on the outcome class and
//     the stored-state count. At these state counts the 64-bit
//     fingerprint conflation probability is ~n²/2⁶⁵ (≈ 10⁻¹³ for
//     n=1500), so a divergence is a dedup bug, not bad luck.

import (
	"testing"

	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/protocols"
)

func requireIdentical(t *testing.T, name string, ref, got mc.Result) {
	t.Helper()
	if ref.Outcome != got.Outcome || ref.Message != got.Message {
		t.Fatalf("%s outcome: %v %q vs %v %q", name, ref.Outcome, ref.Message, got.Outcome, got.Message)
	}
	if ref.States != got.States || ref.MaxDepth != got.MaxDepth || ref.Rules != got.Rules {
		t.Fatalf("%s states/depth/rules: %d/%d/%d vs %d/%d/%d",
			name, ref.States, ref.MaxDepth, ref.Rules, got.States, got.MaxDepth, got.Rules)
	}
	if len(ref.Trace) != len(got.Trace) {
		t.Fatalf("%s trace length: %d vs %d", name, len(ref.Trace), len(got.Trace))
	}
	for i := range ref.Trace {
		if string(ref.Trace[i]) != string(got.Trace[i]) {
			t.Fatalf("%s trace diverges at step %d", name, i)
		}
	}
	if ref.Stats.DedupHits != got.Stats.DedupHits ||
		ref.Stats.Health.UnverifiedHits != got.Stats.Health.UnverifiedHits {
		t.Fatalf("%s dedup/unverified: %d/%d vs %d/%d", name,
			ref.Stats.DedupHits, ref.Stats.Health.UnverifiedHits,
			got.Stats.DedupHits, got.Stats.Health.UnverifiedHits)
	}
}

// TestCompactParityAllProtocols: contract 1.
func TestCompactParityAllProtocols(t *testing.T) {
	for _, name := range protocols.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := protocols.MustLoad(name)
			vn, n := machine.PerMessageVN(p)
			sys, err := machine.New(machine.Config{
				Protocol: p, Caches: 2, Dirs: 1, Addrs: 1, VN: vn, NumVNs: n,
			})
			if err != nil {
				t.Fatal(err)
			}
			opts := mc.Options{MaxStates: 1500, Store: mc.StoreCompact}
			seq := mc.Check(sys, opts)
			pip := mc.CheckPipelined(sys, opts, 4, 0)
			if seq.Stats.Store != "compact" {
				t.Fatalf("Stats.Store = %q, want compact", seq.Stats.Store)
			}
			requireIdentical(t, "pipeline", seq, pip)
		})
	}
}

// TestExactVsCompactAllProtocols: contract 2 — the differential check
// that would catch a wrong-dedup conflation (states count drops) or a
// missed dedup (states count grows, or the run no longer terminates
// inside the bound).
func TestExactVsCompactAllProtocols(t *testing.T) {
	for _, name := range protocols.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := protocols.MustLoad(name)
			vn, n := machine.PerMessageVN(p)
			sys, err := machine.New(machine.Config{
				Protocol: p, Caches: 2, Dirs: 1, Addrs: 1, VN: vn, NumVNs: n,
			})
			if err != nil {
				t.Fatal(err)
			}
			exact := mc.Check(sys, mc.Options{MaxStates: 1500, DisableTraces: true})
			compact := mc.Check(sys, mc.Options{MaxStates: 1500, DisableTraces: true, Store: mc.StoreCompact})
			if exact.Outcome != compact.Outcome || exact.Message != compact.Message {
				t.Fatalf("outcome: exact %v %q vs compact %v %q",
					exact.Outcome, exact.Message, compact.Outcome, compact.Message)
			}
			if exact.States != compact.States || exact.MaxDepth != compact.MaxDepth || exact.Rules != compact.Rules {
				t.Fatalf("states/depth/rules: exact %d/%d/%d vs compact %d/%d/%d",
					exact.States, exact.MaxDepth, exact.Rules,
					compact.States, compact.MaxDepth, compact.Rules)
			}
			// Unverified (conflated) dedup hits are expected once the
			// verified-bytes budget runs out; they only change the
			// answer on a real fingerprint collision, which the
			// equality checks above would have caught.
		})
	}
}
