package vnassign_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"minvn/internal/analysis"
	"minvn/internal/protocol"
	"minvn/internal/protocol/xform"
	"minvn/internal/protocols"
	"minvn/internal/ptest"
	"minvn/internal/vnassign"
)

var update = flag.Bool("update", false, "rewrite testdata/static_sweep.golden")

// The static-sweep golden file is the reference output of the static
// path (analysis + vnassign): it was recorded with the map-based
// relations and graphs before they were replaced by the interned bit
// matrices, and pins every string the pipeline can emit. A digest
// mismatch means a verdict, a witness, an order or a rendering
// changed; -update is only legitimate when that is the intent.

// staticDigest hashes everything the static pipeline says about p.
func staticDigest(p *protocol.Protocol) string {
	h := sha256.New()
	put := func(label string, v any) { fmt.Fprintf(h, "%s=%v\n", label, v) }

	r := analysis.Analyze(p)
	put("causes", r.Causes.String())
	put("stalls", r.Stalls.String())
	put("waits", r.Waits.String())
	put("stallable", r.Stallable)
	for _, c := range p.Controllers() {
		for _, st := range c.StateNames() {
			if roots, ok := r.Roots[c.Kind][st]; ok {
				put("roots/"+c.Kind.String()+"/"+st, roots)
			}
		}
	}

	a := vnassign.AssignFromAnalysis(r)
	put("class", a.Class)
	put("numVNs", a.NumVNs)
	for _, m := range p.MessageNames() {
		if v, ok := a.VN[m]; ok {
			put("vn/"+m, v)
		}
	}
	put("waitsCycle", a.WaitsCycle)
	put("graph", a.Graph.String())
	put("fas", a.FAS)
	put("conflictPairs", a.ConflictPairs)
	put("exact", a.Exact)
	put("refinements", a.Refinements)

	ok, w := analysis.DeadlockFree(r, analysis.SingleVN(p))
	put("eq4/single", fmt.Sprint(ok, w))
	ok, w = analysis.DeadlockFree(r, analysis.UniqueVNs(p))
	put("eq4/unique", fmt.Sprint(ok, w))

	for i, e := range vnassign.EnumerateAssignments(r, 8) {
		put(fmt.Sprintf("enum/%d", i), vnassign.GroupsString(e))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestStaticSweepGolden: every protocol of the static sweep (the
// bench's set: built-ins, NonStalling variants, composites, 300
// generated protocols at each of two seeds) produces exactly the
// recorded output.
func TestStaticSweepGolden(t *testing.T) {
	path := filepath.Join("testdata", "static_sweep.golden")
	var got []string
	for i, p := range ptest.SweepSet([]int64{3, 11}, 300) {
		got = append(got, fmt.Sprintf("%03d %s %s", i, p.Name, staticDigest(p)))
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
		t.Fatalf("golden has %d protocols, test has %d (re-record with -update only if the set changed)", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("static output diverged\n got  %s\n want %s", got[i], want[i])
		}
	}
}

// TestStaticConcurrent: the static path keeps no state outside its
// arguments and results (vnserved analyzes concurrently), so eight
// goroutines working on the same *protocol.Protocol each produce the
// sequential output. Meant for -race.
func TestStaticConcurrent(t *testing.T) {
	for _, p := range []*protocol.Protocol{protocols.MustLoad("CHI"), composite(t, "MSI_nonblocking_cache", "MESIF_blocking_cache")} {
		want := staticDigest(p)
		got := make([]string, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					got[g] = staticDigest(p)
				}
			}()
		}
		wg.Wait()
		for g, d := range got {
			if d != want {
				t.Errorf("%s: goroutine %d produced %s, sequentially %s", p.Name, g, d, want)
			}
		}
	}
}

func composite(t *testing.T, inner, outer string) *protocol.Protocol {
	t.Helper()
	p, err := xform.Compose(protocols.MustLoad(inner), protocols.MustLoad(outer), xform.ComposeName(inner, outer))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStaticAllocations keeps the interned representation's gain from
// eroding: one Analyze + AssignFromAnalysis stays under a ceiling set
// at about 1.5 times what it allocated when the bit matrices replaced
// the string-keyed maps (CHI 165, MSI_under_MESIF 110; the maps took
// 1,402 and 1,501).
func TestStaticAllocations(t *testing.T) {
	for _, c := range []struct {
		p       *protocol.Protocol
		ceiling float64
	}{
		{protocols.MustLoad("CHI"), 250},
		{composite(t, "MSI_nonblocking_cache", "MESIF_blocking_cache"), 165},
	} {
		got := testing.AllocsPerRun(20, func() {
			vnassign.AssignFromAnalysis(analysis.Analyze(c.p))
		})
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocations per Analyze + AssignFromAnalysis, ceiling %.0f", c.p.Name, got, c.ceiling)
		}
	}
}
