package main

import (
	"fmt"
	"strings"
	"time"

	"minvn/internal/analysis"
	"minvn/internal/obs"
	"minvn/internal/protocol"
	"minvn/internal/protocol/xform"
	"minvn/internal/protocols"
	"minvn/internal/ptest"
	"minvn/internal/vnassign"
)

// sweepItem is one protocol of the static sweep with the answer its
// verdict is checked against.
type sweepItem struct {
	p *protocol.Protocol
	// wantClass/wantVNs are the known answer: from expected.json for a
	// built-in, and Class 3 with one VN for a NonStalling variant (its
	// stalls relation is empty by construction). Zero means no known
	// answer; the verdict is then checked for internal soundness only.
	wantClass vnassign.Class
	wantVNs   int
}

// seededMix shapes the seeded part of the sweep: 70 % mutations of
// built-ins, 30 % protocols synthesized from scratch, and none of the
// generator's own transform cases, because the sweep already holds
// every NonStalling variant and every composite. Composites cost ten
// times the median protocol, so leaving their number to the seed would
// make runs with different seeds do visibly different amounts of work;
// the 70/30 split keeps the median protocol inside the mutated group
// instead of on the boundary between the two.
var seededMix = ptest.GenConfig{MutateFrac: 0.7, XformFrac: -1}

// sweepSet builds the static_sweep input: every built-in, every
// NonStalling variant, every pair Compose accepts, and n protocols
// from the seeded generator.
func sweepSet(exp *expected, seed int64, n int) ([]sweepItem, error) {
	var items []sweepItem
	names := protocols.Names()
	for _, name := range names {
		ans, ok := exp.Builtins[name]
		if !ok {
			return nil, fmt.Errorf("expected.json has no answer for built-in %s", name)
		}
		items = append(items, sweepItem{p: protocols.MustLoad(name), wantClass: vnassign.Class(ans.Class), wantVNs: ans.MinVNs})
	}
	for _, name := range names {
		if ns, err := xform.NonStalling(protocols.MustLoad(name)); err == nil {
			items = append(items, sweepItem{p: ns, wantClass: vnassign.Class3, wantVNs: 1})
		}
	}
	for _, outer := range names {
		for _, inner := range names {
			c, err := xform.Compose(protocols.MustLoad(inner), protocols.MustLoad(outer), xform.ComposeName(inner, outer))
			if err == nil {
				items = append(items, sweepItem{p: c})
			}
		}
	}
	gen := ptest.NewGenerator(seededMix)
	for i := 0; i < n; i++ {
		items = append(items, sweepItem{p: gen.Generate(seed*1_000_003 + int64(i)).Proto})
	}
	return items, nil
}

// checkMinimize judges one verdict of the static pipeline.
func checkMinimize(it sweepItem, a *vnassign.Assignment) string {
	switch {
	case it.wantClass != 0 && a.Class != it.wantClass:
		return fmt.Sprintf("%s: %s, want %s", it.p.Name, a.Class, it.wantClass)
	case it.wantClass == vnassign.Class3 && a.NumVNs != it.wantVNs:
		return fmt.Sprintf("%s: %d VNs, want %d", it.p.Name, a.NumVNs, it.wantVNs)
	case a.Class == vnassign.Class3 && !vnassign.Eq4Holds(a):
		return fmt.Sprintf("%s: assignment with %d VNs violates Eq. 4", it.p.Name, a.NumVNs)
	case a.Class == vnassign.Class2 && len(a.WaitsCycle) == 0:
		return fmt.Sprintf("%s: Class 2 without a waits cycle", it.p.Name)
	case a.Class != vnassign.Class2 && a.Class != vnassign.Class3:
		return fmt.Sprintf("%s: static class %s", it.p.Name, a.Class)
	}
	return ""
}

func runStaticSweep(e *childEnv) error {
	items, err := sweepSet(e.exp, e.seed, e.sz.staticSeeded)
	if err != nil {
		return err
	}
	if err := e.begin(); err != nil {
		return err
	}

	// The traced repetition asks the pipeline for its own stage
	// timeline; the untraced ones call the plain entry points.
	var tl *obs.Timeline
	if e.tr != nil {
		tl = &obs.Timeline{}
	}
	// The first pass keeps its full assignments for checking; later
	// passes keep only the verdict, so the heap stays one pass big.
	type verdict struct {
		class vnassign.Class
		vns   int
	}
	n := len(items)
	first := make([]*vnassign.Assignment, n)
	verdicts := make([]verdict, 0, n*e.sz.staticPasses)
	opMs := make([]float64, 0, cap(verdicts))
	span := e.tr.span("verdict")
	for pass := 0; pass < e.sz.staticPasses; pass++ {
		sp := e.tr.span("static.pass")
		for i, it := range items {
			t0 := time.Now()
			var a *vnassign.Assignment
			minimize := func() {
				if tl != nil {
					a = vnassign.AssignFromAnalysisObserved(analysis.AnalyzeObserved(it.p, tl), tl)
				} else {
					a = vnassign.AssignFromAnalysis(analysis.Analyze(it.p))
				}
			}
			if e.tr != nil && i%16 == 0 {
				e.tr.call("static.minimize", minimize)
			} else {
				minimize()
			}
			opMs = append(opMs, float64(time.Since(t0))/1e6)
			if pass == 0 {
				first[i] = a
			}
			verdicts = append(verdicts, verdict{a.Class, a.NumVNs})
		}
		sp.End()
	}
	span.End()
	e.end(int64(len(verdicts)), opMs)

	for k, v := range verdicts {
		switch {
		case k < n:
			e.check(checkMinimize(items[k], first[k]))
		case v != verdicts[k%n]:
			e.check(fmt.Sprintf("%s: verdict changed between passes", items[k%n].p.Name))
		default:
			e.check("")
		}
	}
	e.res.Detail["protocols"] = n
	e.res.Detail["passes"] = e.sz.staticPasses
	for _, s := range tl.Summaries() {
		e.layer(strings.Replace(s.Name, "/", ".", 1)+"_ns", s.Seconds*1e9)
	}
	return nil
}
