// Command vnsweep runs the protocol-family campaign: every built-in in
// its stalling and mechanically derived non-stalling form, plus
// two-level composites, each pushed through the static min-VN analysis
// and bounded model checking on every engine × visited-store
// combination. It emits (or checks) FAMILY_mc.json, the table behind
// the add-vs-compose discussion in EXPERIMENTS.md: removing stalls by
// adding replay messages certifies one VN, while stacking protocols
// into a hierarchy is not statically certifiable at all.
//
// Cross-combination agreement is enforced: every row is cross-checked
// by ptest.CrossCheck, and all engines and stores must report the same
// outcome, state count and depth (mc.Agree). Disagreement is an engine
// bug and fails the run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"minvn/internal/cliflag"
	"minvn/internal/dist"
	"minvn/internal/mc"
	"minvn/internal/obs/ledger"
	"minvn/internal/protocol"
	"minvn/internal/protocols"
	"minvn/internal/ptest"
	"minvn/internal/vnassign"
)

// row is one protocol of the family table.
type row struct {
	Protocol string `json:"protocol"`
	Family   string `json:"family"`
	Variant  string `json:"variant"` // stalling | nonstalling | composite
	Inner    string `json:"inner,omitempty"`
	Outer    string `json:"outer,omitempty"`
	// AlreadyNonStalling marks nonstalling rows whose parent had no
	// message stalls — the transform was the identity.
	AlreadyNonStalling bool `json:"already_nonstalling,omitempty"`
	// Workload is "load-store" for the MO* families, whose
	// never-blocking directories overrun the single saved register
	// under eviction workloads (see DESIGN.md); empty means the full
	// core-event set.
	Workload string `json:"workload,omitempty"`
	Messages int    `json:"messages"`
	// Static is the analysis' verdict: the class, and the minimum VN
	// count and mapping (Class 3) or the waits cycle (Class 2).
	Static     vnassign.Verdict `json:"static"`
	VNMode     string           `json:"vn_mode"` // minimal | permsg
	NumVNsUsed int              `json:"num_vns_used"`
	Runs       []ptest.Cell     `json:"runs"`
	Agree      bool             `json:"agree"`
}

// compareRec is one composite of the add-vs-compose summary.
type compareRec struct {
	Protocol        string `json:"protocol"`
	Inner           string `json:"inner"`
	InnerClass      string `json:"inner_class"`
	InnerMinVNs     int    `json:"inner_min_vns"`
	Outer           string `json:"outer"`
	OuterClass      string `json:"outer_class"`
	CompositeClass  string `json:"composite_class"`
	CompositeMinVNs int    `json:"composite_min_vns"`
	MCOutcome       string `json:"mc_outcome"`
}

type familyFile struct {
	Tool    string `json:"tool"`
	Config  config `json:"config"`
	Engines string `json:"engines"`
	Stores  string `json:"stores"`
	Rows    []row  `json:"rows"`

	AddVsCompose struct {
		TransformMinVNs int          `json:"transform_min_vns"`
		Composites      []compareRec `json:"composites"`
		Verdict         string       `json:"verdict"`
	} `json:"add_vs_compose"`
}

type config struct {
	Caches    int `json:"caches"`
	Dirs      int `json:"dirs"`
	Addrs     int `json:"addrs"`
	L2s       int `json:"l2s"` // used for composite rows only
	MaxStates int `json:"max_states"`
}

const verdict = "add wins: every non-stalling variant certifies 1 VN statically " +
	"(empty stalls ⇒ empty waits ⇒ Eq. 4 holds trivially), while two-level " +
	"composition is never statically certifiable — the L2's non-revoking " +
	"outer-forward stalls close a waits cycle even when the inner protocol is " +
	"Class 3 — so the compose route needs per-message VNs and a model checker " +
	"to trust, where the add route needs one VN and a proof."

func main() {
	search := cliflag.Search{
		Spec:    dist.Spec{Caches: 2, Dirs: 1, Addrs: 1, MaxStates: 4_000_000, Workers: 1},
		Engines: "seq,pipeline", Stores: "exact,compact",
	}
	search.Register(flag.CommandLine, cliflag.SearchSystem|cliflag.SearchMatrix|cliflag.SearchWorkers)
	var (
		out   = flag.String("out", "", "write FAMILY_mc.json to this path")
		check = flag.String("check", "", "recompute and compare against this existing FAMILY_mc.json")
	)
	tel := cliflag.Register(flag.CommandLine, cliflag.FlagLedger)
	flag.Parse()
	if *out == "" && *check == "" {
		fmt.Fprintln(os.Stderr, "vnsweep: need -out or -check")
		os.Exit(2)
	}

	ff, err := sweep(search)
	if err != nil {
		os.Exit(cliflag.Fail(os.Stderr, "vnsweep", err))
	}

	disagree := 0
	for _, r := range ff.Rows {
		status := "ok"
		if !r.Agree {
			status = "DISAGREE"
			disagree++
		}
		fmt.Printf("%-42s %-12s %-8s minVN=%d %-9s %8d states  %s\n",
			r.Protocol, r.Variant, r.Static.Class, r.Static.NumVNs, r.Runs[0].Outcome, r.Runs[0].States, status)
	}

	if *out != "" {
		if err := writeJSON(*out, ff); err != nil {
			os.Exit(cliflag.Fail(os.Stderr, "vnsweep", err))
		}
		fmt.Printf("wrote %s (%d rows)\n", *out, len(ff.Rows))
	}
	if *check != "" {
		if err := checkAgainst(*check, ff); err != nil {
			fresh := *check + ".fresh"
			if werr := writeJSON(fresh, ff); werr == nil {
				fmt.Fprintf(os.Stderr, "vnsweep: fresh results left in %s\n", fresh)
			}
			fmt.Fprintln(os.Stderr, "vnsweep: check failed:", err)
			os.Exit(1)
		}
		fmt.Printf("%s agrees with recomputed family (%d rows)\n", *check, len(ff.Rows))
	}
	if err := tel.Record(sweepRecord(search, ff, disagree), os.Stdout); err != nil {
		os.Exit(cliflag.Fail(os.Stderr, "vnsweep", err))
	}
	if disagree > 0 {
		fmt.Fprintf(os.Stderr, "vnsweep: %d rows with engine/store disagreement\n", disagree)
		os.Exit(1)
	}
}

// familyRec is one row of the sweep's run record.
type familyRec struct {
	Protocol string `json:"protocol"`
	Variant  string `json:"variant"`
	Class    string `json:"class"`
	MinVNs   int    `json:"min_vns"`
	Agree    bool   `json:"agree"`
}

// sweepRecord summarizes the whole campaign as one ledger record:
// the sweep config, row count, and per-row class/minVN/agreement —
// enough for vnstats to track family drift across commits without
// replaying FAMILY_mc.json.
func sweepRecord(search cliflag.Search, ff *familyFile, disagree int) *ledger.Record {
	rec := ledger.New("vnsweep")
	rec.Params = search.Params()
	rec.Outcome = "ok"
	if disagree > 0 {
		rec.Outcome = "disagree"
	}
	rows := make([]familyRec, 0, len(ff.Rows))
	for _, r := range ff.Rows {
		rows = append(rows, familyRec{r.Protocol, r.Variant, r.Static.Class, r.Static.NumVNs, r.Agree})
	}
	rec.Extra = map[string]any{
		"metrics": map[string]any{"rows": len(ff.Rows), "disagree": disagree},
		"family":  rows,
	}
	return rec
}

// sweep computes the full family table.
func sweep(search cliflag.Search) (*familyFile, error) {
	engines, stores, err := search.Matrix()
	if err != nil {
		return nil, err
	}
	ff := &familyFile{
		Tool: "vnsweep",
		// L2s: composites get the resolver's default of one L2 home.
		Config:  config{search.Caches, search.Dirs, search.Addrs, 1, search.MaxStates},
		Engines: search.Engines, Stores: search.Stores,
	}

	// Each job is a protocol and its row's identity columns.
	type job struct {
		p *protocol.Protocol
		r row
	}
	fam, err := ptest.Family()
	if err != nil {
		return nil, err
	}
	var jobs []job
	for _, m := range fam {
		if m.Parent == nil {
			jobs = append(jobs, job{m.Proto, row{Family: m.Proto.Name, Variant: "composite", Inner: m.Inner, Outer: m.Outer}})
			continue
		}
		jobs = append(jobs, job{m.Parent, row{Family: m.Parent.Name, Variant: "stalling"}},
			job{m.Proto, row{Family: m.Parent.Name, Variant: "nonstalling",
				AlreadyNonStalling: len(m.Proto.Messages) == len(m.Parent.Messages)}})
	}
	for _, j := range jobs {
		a := vnassign.Assign(j.p)
		r := j.r
		r.Protocol, r.Messages, r.Static = j.p.Name, len(j.p.Messages), a.Verdict()
		// A Class 3 row is checked under its minimal assignment; a Class 2
		// row has none, so it runs under per-message VNs.
		spec := search.Spec
		spec.VN = dist.VNPerMessage
		if a.Class == vnassign.Class3 {
			spec.VN = dist.VNMinimal
		}
		if protocols.LoadStoreOnly(r.Family) {
			spec.NoReplacement = true
			r.Workload = "load-store"
		}
		job, err := spec.Resolve(j.p, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.p.Name, err)
		}
		r.VNMode, r.NumVNsUsed = job.Spec.VN, job.Config.NumVNs
		var disagree string
		r.Runs, _, disagree, err = ptest.CrossCheck(context.Background(), job, engines, stores)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.p.Name, err)
		}
		r.Agree = disagree == ""
		ff.Rows = append(ff.Rows, r)
	}

	ff.AddVsCompose.TransformMinVNs = 1
	ff.AddVsCompose.Verdict = verdict
	rowOf := func(name string) row {
		for _, r := range ff.Rows {
			if r.Protocol == name {
				return r
			}
		}
		panic("vnsweep: no row for " + name) // every built-in has a stalling row
	}
	for _, c := range ptest.Composites {
		in, out, comp := rowOf(c.Inner).Static, rowOf(c.Outer).Static, rowOf(c.Name)
		ff.AddVsCompose.Composites = append(ff.AddVsCompose.Composites, compareRec{
			Protocol: c.Name,
			Inner:    c.Inner, InnerClass: in.Class, InnerMinVNs: in.NumVNs,
			Outer: c.Outer, OuterClass: out.Class,
			CompositeClass: comp.Static.Class, CompositeMinVNs: comp.Static.NumVNs,
			MCOutcome: comp.Runs[0].Outcome,
		})
	}
	return ff, nil
}

func writeJSON(path string, ff *familyFile) error {
	data, err := json.MarshalIndent(ff, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkAgainst compares the stable columns of a recomputed family
// against a checked-in FAMILY_mc.json: rows in order, the whole static
// verdict, and per-run outcomes (plus states/depth for completed runs).
// Timing and frontier-dependent counts are not compared.
func checkAgainst(path string, fresh *familyFile) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old familyFile
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if old.Config != fresh.Config || old.Engines != fresh.Engines || old.Stores != fresh.Stores {
		return fmt.Errorf("configuration drift: checked-in %+v %q %q vs %+v %q %q — regenerate with -out",
			old.Config, old.Engines, old.Stores, fresh.Config, fresh.Engines, fresh.Stores)
	}
	if len(old.Rows) != len(fresh.Rows) {
		return fmt.Errorf("row count drift: %d checked in, %d recomputed", len(old.Rows), len(fresh.Rows))
	}
	for i, fr := range fresh.Rows {
		or := old.Rows[i]
		if or.Protocol != fr.Protocol {
			return fmt.Errorf("row %d: %s checked in, %s recomputed", i, or.Protocol, fr.Protocol)
		}
		// A Verdict always marshals: it holds only strings, ints, bools,
		// string-keyed maps and slices of them.
		oldStatic, _ := json.Marshal(or.Static)
		freshStatic, _ := json.Marshal(fr.Static)
		if !bytes.Equal(oldStatic, freshStatic) || or.Variant != fr.Variant ||
			or.Messages != fr.Messages || or.NumVNsUsed != fr.NumVNsUsed {
			return fmt.Errorf("row %s drifted: checked-in msgs=%d static %s, recomputed msgs=%d static %s",
				fr.Protocol, or.Messages, oldStatic, fr.Messages, freshStatic)
		}
		if len(or.Runs) != len(fr.Runs) {
			return fmt.Errorf("row %s: run matrix drift (%d vs %d)", fr.Protocol, len(or.Runs), len(fr.Runs))
		}
		for i, frun := range fr.Runs {
			orun := or.Runs[i]
			if orun.Engine != frun.Engine || orun.Store != frun.Store || orun.Outcome != frun.Outcome {
				return fmt.Errorf("row %s %s/%s: outcome %s checked in, %s recomputed",
					fr.Protocol, frun.Engine, frun.Store, orun.Outcome, frun.Outcome)
			}
			if frun.Outcome == mc.Complete.Tag() &&
				(orun.States != frun.States || orun.MaxDepth != frun.MaxDepth) {
				return fmt.Errorf("row %s %s/%s: states/depth drift (%d/%d vs %d/%d)",
					fr.Protocol, frun.Engine, frun.Store,
					orun.States, orun.MaxDepth, frun.States, frun.MaxDepth)
			}
		}
	}
	return nil
}
