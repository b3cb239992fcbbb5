package ptest

import (
	"strings"
	"testing"

	"minvn/internal/analysis"
	"minvn/internal/protocol"
	"minvn/internal/protocol/xform"
	"minvn/internal/protocols"
)

// TestGeneratorXformCases forces the xform derivation path and checks
// the produced cases are valid, diverse, and clean under the harness.
func TestGeneratorXformCases(t *testing.T) {
	g := NewGenerator(GenConfig{XformFrac: 1})
	if pairs := composePairs(); len(pairs) < 2 {
		t.Fatalf("generator accepted only %d compose pairs", len(pairs))
	}
	origins := map[string]int{}
	n := 24
	if testing.Short() {
		n = 8
	}
	for i := 0; i < n; i++ {
		c := g.Generate(caseSeed(7, i))
		if !strings.HasPrefix(c.Origin, "xform:") {
			t.Fatalf("case %d origin %q: xform fraction 1 produced a non-xform case", i, c.Origin)
		}
		switch {
		case strings.HasPrefix(c.Origin, "xform:nonstalling:"):
			origins["nonstalling"]++
		case strings.HasPrefix(c.Origin, "xform:compose:"):
			origins["compose"]++
			if !strings.Contains(c.Origin, ":mutated") && !c.Proto.TwoLevel() {
				t.Fatalf("case %d: unmutated composite is not two-level", i)
			}
		}
		// The spec lift must rebuild to an equivalent protocol.
		rebuilt, err := c.Spec.Build()
		if err != nil {
			t.Fatalf("case %d (%s): spec does not rebuild: %v", i, c.Origin, err)
		}
		if rebuilt.TwoLevel() != c.Proto.TwoLevel() {
			t.Fatalf("case %d (%s): lift changed levels", i, c.Origin)
		}
	}
	if origins["nonstalling"] == 0 || origins["compose"] == 0 {
		t.Fatalf("derivations not diverse: %v", origins)
	}
}

// TestXformCampaignSmoke runs a short campaign with the extended
// generator: xform-derived cases mixed with mutants and synthesis, no
// oracle violations allowed.
func TestXformCampaignSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("model-checking campaign")
	}
	res := RunCampaign(CampaignConfig{
		Seed:  11,
		Count: 30,
		Gen:   GenConfig{XformFrac: 0.5},
		Opts:  testOpts(),
	})
	if len(res.Violations) != 0 {
		v := res.Violations[0]
		t.Fatalf("campaign found oracle violations: %s\ncase %d (%s, seed %d):\n%s",
			res.Summary(), v.Index, v.Case.Origin, v.Case.Seed, v.Result.Summary())
	}
	sawXform := false
	for origin := range res.ByOrigin {
		if strings.HasPrefix(origin, "xform:") {
			sawXform = true
		}
	}
	if !sawXform {
		t.Fatalf("no xform-derived cases in campaign: %v", res.ByOrigin)
	}
}

// TestShrinkCompositeRegression injects a failing composite into the
// shrinker and requires the result to stay a valid two-level protocol
// that still reproduces — the regression net for L2-aware
// normalization and state dropping.
func TestShrinkCompositeRegression(t *testing.T) {
	comp, err := xform.Compose(
		protocols.MustLoad("MSI_blocking_cache"),
		protocols.MustLoad("MESI_blocking_cache"), "MSI_under_MESI")
	if err != nil {
		t.Fatal(err)
	}
	spec := FromProtocol(comp)
	before := spec.NumTransitions()

	// The injected "failure": the composite's signature waits cycle
	// through an inner-tier message. Any shrink step that keeps the
	// protocol two-level and the cycle intact is accepted.
	repro := func(p *protocol.Protocol) bool {
		if !p.TwoLevel() {
			return false
		}
		r := analysis.Analyze(p)
		cyc := r.Waits.CycleWitness()
		if len(cyc) == 0 {
			return false
		}
		for _, m := range cyc {
			if strings.HasPrefix(m, xform.InnerPrefix) {
				return true
			}
		}
		return false
	}
	if !repro(comp) {
		t.Fatal("composite does not exhibit the injected failure")
	}

	res := Shrink(spec, repro, 1200)
	if res.Removed == 0 {
		t.Fatal("shrinker made no progress on a composite spec")
	}
	if res.Spec.NumTransitions() >= before {
		t.Fatalf("no size reduction: %d -> %d", before, res.Spec.NumTransitions())
	}
	if !repro(res.Proto) {
		t.Fatal("shrunk protocol no longer reproduces")
	}
	// The shrunk spec still round-trips through the builder and codec.
	rebuilt, err := res.Spec.Build()
	if err != nil {
		t.Fatalf("shrunk spec does not rebuild: %v", err)
	}
	enc, err := protocol.Encode(rebuilt)
	if err != nil {
		t.Fatalf("shrunk protocol does not encode: %v", err)
	}
	if _, err := protocol.Decode(enc); err != nil {
		t.Fatalf("shrunk protocol does not decode: %v", err)
	}
}
