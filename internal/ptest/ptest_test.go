package ptest

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"

	"minvn/internal/dist"
	"minvn/internal/mc"
	"minvn/internal/obs/ledger"
	"minvn/internal/protocol"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

// testOpts keeps per-case model checking cheap enough for tier-1.
func testOpts() Options {
	return Options{Spec: dist.Spec{Caches: 2, Dirs: 1, Addrs: 1, MaxStates: 20_000, Workers: 2}}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, name := range protocols.Names() {
		p := protocols.MustLoad(name)
		spec := FromProtocol(p)
		q, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: rebuild failed: %v", name, err)
		}
		a, _ := protocol.Encode(p)
		b, _ := protocol.Encode(q)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: spec round trip changed the protocol", name)
		}
	}
}

func TestGeneratorDeterministicAndValid(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 20
	}
	// The zero MutateFrac mutates no built-in; 0.5 must, and its mutated
	// cases must be as deterministic as the rest.
	for _, cfg := range []GenConfig{{}, {MutateFrac: 0.5}} {
		g := NewGenerator(cfg)
		mutated := 0
		for i := 0; i < n; i++ {
			seed := caseSeed(42, i)
			c1 := g.Generate(seed)
			c2 := g.Generate(seed)
			e1, err1 := protocol.Encode(c1.Proto)
			e2, err2 := protocol.Encode(c2.Proto)
			if err1 != nil || err2 != nil {
				t.Fatalf("%+v case %d: encode: %v / %v", cfg, i, err1, err2)
			}
			if !bytes.Equal(e1, e2) || c1.Origin != c2.Origin {
				t.Fatalf("%+v case %d (seed %d): generator not deterministic", cfg, i, seed)
			}
			// Build already validated; re-assert through the codec too.
			if _, err := protocol.Decode(e1); err != nil {
				t.Fatalf("%+v case %d: generated protocol does not round trip: %v", cfg, i, err)
			}
			if strings.HasPrefix(c1.Origin, "mutated:") {
				mutated++
			}
		}
		if (cfg.MutateFrac == 0) != (mutated == 0) {
			t.Errorf("MutateFrac %v: %d of %d cases mutated", cfg.MutateFrac, mutated, n)
		}
	}
}

func TestBuiltinsCleanUnderHarness(t *testing.T) {
	// The built-in protocols are the ground truth: at a small system
	// size the harness must not flag any oracle violation on them.
	for _, name := range []string{"MSI_blocking_cache", "MESI_blocking_cache", "MOSI_blocking_cache", "MSI_nonblocking_cache", "MSI_completion", "MSI_class1"} {
		name := name
		t.Run(name, func(t *testing.T) {
			r := RunCase(protocols.MustLoad(name), testOpts())
			if r.Verdict.IsViolation() {
				t.Fatalf("%s: %s", name, r.Summary())
			}
		})
	}
}

func TestCampaignSmoke(t *testing.T) {
	count := 20
	if testing.Short() {
		count = 8
	}
	res := RunCampaign(CampaignConfig{
		Seed:  1,
		Count: count,
		Opts:  testOpts(),
	})
	if len(res.Violations) != 0 {
		v := res.Violations[0]
		t.Fatalf("campaign found violations: %s\ncase %d (seed %d, %s): %s",
			res.Summary(), v.Index, v.Case.Seed, v.Case.Origin, v.Result.Summary())
	}
	if res.ByVerdict["ok"] == 0 {
		t.Fatalf("campaign produced no ok cases: %s", res.Summary())
	}
}

func TestSelfTestCatchesInjectedBug(t *testing.T) {
	res, err := SelfTest(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Shrunk == nil || res.Shrunk.Proto == nil {
		t.Fatal("self-test did not shrink")
	}
	if n := res.Shrunk.Spec.NumTransitions(); n > 6 {
		t.Fatalf("shrunk repro has %d transitions, want <= 6", n)
	}
	if res.Shrunk.Removed == 0 {
		t.Fatal("shrinker removed nothing from the decorated protocol")
	}
}

func TestRenderGoTestMentionsProtocol(t *testing.T) {
	p, err := pingSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := protocol.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	r := &CaseResult{Verdict: VerdictSoundnessBug, Detail: "injected"}
	src := RenderGoTest(enc, r, Options{}, 1, 2)
	for _, want := range []string{"package ptest", "VerdictSoundnessBug", "Req0", "protocol.Decode"} {
		if !bytes.Contains([]byte(src), []byte(want)) {
			t.Errorf("rendered test missing %q", want)
		}
	}
}

// TestReproReplaysCampaign: a repro's record and rendered test carry the
// campaign's options, normalized, so the test replays the search that
// found the violation (here an exact-vs-compact matrix at 3 caches and
// 20,000 states) rather than the harness defaults.
func TestReproReplaysCampaign(t *testing.T) {
	spec := pingSpec()
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Spec:    dist.Spec{Caches: 3, Dirs: 1, MaxStates: 20_000, Workers: 3},
		Engines: []dist.Engine{dist.EnginePipeline},
		Stores:  []mc.Store{mc.StoreExact, mc.StoreCompact},
	}
	v := &Violation{
		Index:  4,
		Case:   &Case{Spec: spec, Proto: p, Seed: 99, Origin: "synthesized"},
		Result: &CaseResult{Verdict: VerdictParityBug, Static: vnassign.Assign(p).Verdict(), Detail: "injected"},
	}
	dir := t.TempDir()
	path, err := WriteRepro(dir, 7, opts, v)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		ledger.Record
		Params struct {
			Options json.RawMessage `json:"options"`
		} `json:"params"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	const want = `{"addrs":1,"caches":3,"dirs":1,"engines":["pipeline"],"max_states":20000,"stores":["exact","compact"],"workers":3}`
	var got bytes.Buffer
	if err := json.Compact(&got, rec.Params.Options); err != nil || got.String() != want {
		t.Errorf("recorded options = %s (%v), want %s", got.String(), err, want)
	}
	if rec.Static == nil || rec.Static.Protocol != spec.Name || rec.Static.NumVNs != 2 || rec.Outcome != "parity-bug" {
		t.Errorf("record static %+v, outcome %q", rec.Static, rec.Outcome)
	}

	src, err := os.ReadFile(strings.TrimSuffix(path, ".json") + "_test.go.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parser.ParseFile(token.NewFileSet(), "repro_test.go", src, 0); err != nil {
		t.Fatalf("rendered test does not parse: %v\n%s", err, src)
	}
	for _, want := range []string{
		"dist.Spec{Caches: 3, Dirs: 1, Addrs: 1, MaxStates: 20000, Workers: 3}",
		"Engines: []dist.Engine{dist.EnginePipeline}",
		"Stores:  []mc.Store{mc.StoreExact, mc.StoreCompact}",
	} {
		if !bytes.Contains(src, []byte(want)) {
			t.Errorf("rendered test does not replay the campaign: missing %q in\n%s", want, src)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Errorf("repro dir holds %d files, want the record and the test", len(entries))
	}
}
