// Command vnsweep runs the protocol-family campaign: every built-in in
// its stalling and mechanically derived non-stalling form, plus
// two-level composites, each pushed through the static min-VN analysis
// and bounded model checking on every engine × visited-store
// combination. It emits (or checks) FAMILY_mc.json, the table behind
// the add-vs-compose discussion in EXPERIMENTS.md: removing stalls by
// adding replay messages certifies one VN, while stacking protocols
// into a hierarchy is not statically certifiable at all.
//
// Cross-combination agreement is enforced: all engines and stores must
// report the same outcome, state count and depth (mc.Agree).
// Disagreement is an engine bug and fails the run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"minvn/internal/cliflag"
	"minvn/internal/dist"
	"minvn/internal/mc"
	"minvn/internal/obs/ledger"
	"minvn/internal/protocol"
	"minvn/internal/ptest"
	"minvn/internal/vnassign"
)

// runRec is one engine × store bounded-verification result.
type runRec struct {
	Engine  string `json:"engine"`
	Store   string `json:"store"`
	Outcome string `json:"outcome"`
	States  int    `json:"states"`
	Depth   int    `json:"depth"`
	Rules   int    `json:"rules"`
}

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
	Workload   string   `json:"workload,omitempty"`
	Messages   int      `json:"messages"`
	Class      string   `json:"class"`
	MinVNs     int      `json:"min_vns"` // 0: no finite per-name assignment
	WaitsCycle []string `json:"waits_cycle,omitempty"`
	VNMode     string   `json:"vn_mode"` // minimal | permsg
	NumVNsUsed int      `json:"num_vns_used"`
	Runs       []runRec `json:"runs"`
	Agree      bool     `json:"agree"`
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
			r.Protocol, r.Variant, r.Class, r.MinVNs, r.Runs[0].Outcome, r.Runs[0].States, status)
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

// sweepRecord summarizes the whole campaign as one ledger record:
// the sweep config, row count, and per-row class/minVN/outcome — enough
// for vnstats to track family drift across commits without replaying
// FAMILY_mc.json.
func sweepRecord(search cliflag.Search, ff *familyFile, disagree int) *ledger.Record {
	rec := ledger.New("vnsweep")
	rec.Params = search.Params()
	rec.Outcome = "ok"
	if disagree > 0 {
		rec.Outcome = "disagree"
	}
	rows := make([]map[string]any, 0, len(ff.Rows))
	for _, r := range ff.Rows {
		rows = append(rows, map[string]any{
			"protocol": r.Protocol, "variant": r.Variant,
			"class": r.Class, "min_vns": r.MinVNs, "agree": r.Agree,
		})
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
	classOf := map[string]*vnassign.Assignment{}
	for _, j := range jobs {
		a := vnassign.Assign(j.p)
		classOf[j.p.Name] = a
		r := j.r
		r.Protocol, r.Messages, r.Class = j.p.Name, len(j.p.Messages), a.Class.String()
		// A Class 3 row is checked under its minimal assignment; a Class 2
		// row has none, so it runs under per-message VNs.
		spec := search.Spec
		spec.VN = dist.VNPerMessage
		if a.Class == vnassign.Class3 {
			spec.VN = dist.VNMinimal
			r.MinVNs = a.NumVNs
		} else {
			r.WaitsCycle = a.WaitsCycle
		}
		if strings.HasPrefix(r.Family, "MO") {
			spec.NoReplacement = true
			r.Workload = "load-store"
		}
		job, err := spec.Resolve(j.p, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.p.Name, err)
		}
		r.VNMode, r.NumVNsUsed = job.Spec.VN, job.Config.NumVNs
		r.Agree = true
		var first mc.Result
		for _, eng := range engines {
			for _, st := range stores {
				job.Engine, job.Options.Store = eng, st
				res, err := dist.Run(context.Background(), job)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", j.p.Name, err)
				}
				if len(r.Runs) == 0 {
					first = res
				}
				r.Agree = r.Agree && mc.Agree(res, first)
				r.Runs = append(r.Runs, runRec{
					Engine: eng.String(), Store: st.String(),
					Outcome: res.Outcome.Tag(), States: res.States,
					Depth: res.MaxDepth, Rules: res.Rules,
				})
			}
		}
		ff.Rows = append(ff.Rows, r)
	}

	ff.AddVsCompose.TransformMinVNs = 1
	ff.AddVsCompose.Verdict = verdict
	for _, c := range ptest.Composites {
		// Every built-in has a stalling row, so its class is known.
		ia, oa, ca := classOf[c.Inner], classOf[c.Outer], classOf[c.Name]
		var outcome string
		for _, r := range ff.Rows {
			if r.Protocol == c.Name {
				outcome = r.Runs[0].Outcome
			}
		}
		ff.AddVsCompose.Composites = append(ff.AddVsCompose.Composites, compareRec{
			Protocol: c.Name,
			Inner:    c.Inner, InnerClass: ia.Class.String(), InnerMinVNs: ia.NumVNs,
			Outer: c.Outer, OuterClass: oa.Class.String(),
			CompositeClass: ca.Class.String(), CompositeMinVNs: ca.NumVNs,
			MCOutcome: outcome,
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
// against a checked-in FAMILY_mc.json: row set, class, min-VN, and
// per-run outcomes (plus states/depth for completed runs). Timing and
// frontier-dependent counts are not compared.
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
	oldRows := map[string]row{}
	for _, r := range old.Rows {
		oldRows[r.Protocol] = r
	}
	if len(old.Rows) != len(fresh.Rows) {
		return fmt.Errorf("row count drift: %d checked in, %d recomputed", len(old.Rows), len(fresh.Rows))
	}
	for _, fr := range fresh.Rows {
		or, ok := oldRows[fr.Protocol]
		if !ok {
			return fmt.Errorf("row %s missing from %s", fr.Protocol, path)
		}
		if or.Class != fr.Class || or.MinVNs != fr.MinVNs || or.Variant != fr.Variant ||
			or.Messages != fr.Messages || or.NumVNsUsed != fr.NumVNsUsed {
			return fmt.Errorf("row %s drifted: checked-in class=%s minVN=%d msgs=%d, recomputed class=%s minVN=%d msgs=%d",
				fr.Protocol, or.Class, or.MinVNs, or.Messages, fr.Class, fr.MinVNs, fr.Messages)
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
				(orun.States != frun.States || orun.Depth != frun.Depth) {
				return fmt.Errorf("row %s %s/%s: states/depth drift (%d/%d vs %d/%d)",
					fr.Protocol, frun.Engine, frun.Store,
					orun.States, orun.Depth, frun.States, frun.Depth)
			}
		}
	}
	return nil
}
