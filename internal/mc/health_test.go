package mc_test

// Contention-profile contract: every engine embeds a health.Report in
// its snapshots, and the per-stripe occupancy/dedup histograms are
// computed over a fixed fingerprint partition — so a deliberately
// unbalanced model must surface the identical skew no matter which
// engine ran. The pipeline-only fields (arena bytes, lock wait,
// reorder stalls) are pinned structurally on a protocol-sized run.

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/obs/health"
	"minvn/internal/obs/trace"
	"minvn/internal/protocols"
)

// chainModel is a linear chain over a fixed state list; every state
// also re-generates the first state, so each expansion produces one
// deduplicated probe in the first state's stripe.
type chainModel struct {
	states [][]byte
	index  map[string]int
}

func newChainModel(states [][]byte) *chainModel {
	m := &chainModel{states: states, index: make(map[string]int, len(states))}
	for i, s := range states {
		m.index[string(s)] = i
	}
	return m
}

func (c *chainModel) Initial() [][]byte { return [][]byte{c.states[0]} }

func (c *chainModel) Successors(s []byte) ([][]byte, error) {
	i := c.index[string(s)]
	if i+1 < len(c.states) {
		return [][]byte{c.states[i+1], c.states[0]}, nil
	}
	return [][]byte{c.states[0]}, nil
}

func (c *chainModel) Quiescent([]byte) bool    { return true }
func (c *chainModel) Describe(s []byte) string { return string(s) }

// stripeOf mirrors the engines' stripe attribution: FNV-1a 64 over the
// canonical bytes, mapped to its stripe.
func stripeOf(s []byte) int {
	h := fnv.New64a()
	h.Write(s)
	return mc.Stripe(h.Sum64())
}

// skewedStates builds a chain whose states land overwhelmingly in one
// stripe: hotN states in the hot stripe, coldN spread elsewhere.
func skewedStates(t *testing.T, hotN, coldN int) ([][]byte, int) {
	t.Helper()
	hot := stripeOf([]byte("skew-000000"))
	var states [][]byte
	for i := 0; len(states) < hotN+coldN && i < 1_000_000; i++ {
		s := []byte(fmt.Sprintf("skew-%06d", i))
		in := stripeOf(s) == hot
		if len(states) < hotN {
			if in {
				states = append(states, s)
			}
		} else if !in {
			states = append(states, s)
		}
	}
	if len(states) != hotN+coldN {
		t.Fatalf("could not construct %d skewed states", hotN+coldN)
	}
	return states, hot
}

// TestHealthSkewIdenticalAcrossEngines runs a deliberately unbalanced
// model through both engines and requires the stripe-occupancy and
// dedup histograms to (a) surface the imbalance and (b) agree exactly.
func TestHealthSkewIdenticalAcrossEngines(t *testing.T) {
	const hotN, coldN = 40, 8
	states, hot := skewedStates(t, hotN, coldN)
	sys := newChainModel(states)

	engines := []struct {
		name  string
		check func() mc.Result
	}{
		{"seq", func() mc.Result { return mc.Check(sys, mc.Options{}) }},
		{"pipeline", func() mc.Result { return mc.CheckPipelined(sys, mc.Options{}, 4, 0) }},
	}
	var ref *health.Report
	for _, eng := range engines {
		res := eng.check()
		if res.Outcome != mc.Complete || res.States != len(states) {
			t.Fatalf("%s: unexpected result %v", eng.name, res)
		}
		h := res.Stats.Health
		if h == nil {
			t.Fatalf("%s: final snapshot has no health report", eng.name)
		}
		if h.Stripes != health.Stripes || len(h.StripeOccupancy) != health.Stripes {
			t.Fatalf("%s: stripes = %d, len = %d", eng.name, h.Stripes, len(h.StripeOccupancy))
		}
		var sum int64
		for _, v := range h.StripeOccupancy {
			sum += v
		}
		if sum != int64(res.States) {
			t.Fatalf("%s: occupancy sums to %d, stored %d states", eng.name, sum, res.States)
		}
		if got := h.StripeOccupancy[hot]; got != hotN {
			t.Fatalf("%s: hot stripe holds %d states, want %d", eng.name, got, hotN)
		}
		// Every expansion regenerates the (hot) first state as a dup.
		if got := h.StripeDedupHits[hot]; got < int64(hotN) {
			t.Fatalf("%s: hot stripe dedup hits = %d, want >= %d", eng.name, got, hotN)
		}
		if h.OccMax <= h.OccMin || h.OccCV <= 0 {
			t.Fatalf("%s: skew not surfaced: min=%d max=%d cv=%g",
				eng.name, h.OccMin, h.OccMax, h.OccCV)
		}
		if ref == nil {
			ref = h
			continue
		}
		if !reflect.DeepEqual(ref.StripeOccupancy, h.StripeOccupancy) {
			t.Fatalf("%s: occupancy histogram diverges from seq:\nseq %v\ngot %v",
				eng.name, ref.StripeOccupancy, h.StripeOccupancy)
		}
		if !reflect.DeepEqual(ref.StripeDedupHits, h.StripeDedupHits) {
			t.Fatalf("%s: dedup histogram diverges from seq:\nseq %v\ngot %v",
				eng.name, ref.StripeDedupHits, h.StripeDedupHits)
		}
	}
}

// TestHealthWorkerAndContentionFields pins the structural shape of the
// per-engine worker profiles, the visited-set footprint fields both
// engines report through the one shared store, and the pipeline-only
// reorder fields, on a protocol-sized run.
func TestHealthWorkerAndContentionFields(t *testing.T) {
	p := protocols.MustLoad("MSI_nonblocking_cache")
	vn, n := machine.PerMessageVN(p)
	sys, err := machine.New(machine.Config{
		Protocol: p, Caches: 2, Dirs: 1, Addrs: 1, VN: vn, NumVNs: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := mc.Options{MaxStates: 1500}

	seq := mc.Check(sys, opts)
	h := seq.Stats.Health
	if h == nil || len(h.Workers) != 1 {
		t.Fatalf("seq health = %+v", h)
	}
	if h.Workers[0].Batches == 0 || h.Workers[0].ExpandNS <= 0 {
		t.Fatalf("seq worker profile empty: %+v", h.Workers[0])
	}
	if h.ReorderStalls != 0 || h.ReorderMax != 0 {
		t.Fatalf("seq must not report reorder-buffer fields: %+v", h)
	}
	seqArena, seqSet := h.ArenaBytes, h.SetBytes

	pip := mc.CheckPipelined(sys, opts, 4, 0)
	h = pip.Stats.Health
	if h == nil || len(h.Workers) != 4 {
		t.Fatalf("pipeline health = %+v", h)
	}
	// One store implementation, same stripe count, same storage order:
	// the footprint is the same number on both engines.
	if h.ArenaBytes <= 0 || h.ArenaBytes != seqArena || h.SetBytes != seqSet {
		t.Fatalf("arena/set bytes: pipeline %d/%d vs seq %d/%d",
			h.ArenaBytes, h.SetBytes, seqArena, seqSet)
	}
	var pipBatches int64
	for _, w := range h.Workers {
		pipBatches += w.Batches
	}
	if pipBatches == 0 || h.ExpandNS() <= 0 {
		t.Fatalf("pipeline worker profiles empty: %+v", h.Workers)
	}
}

// TestTraceContextPrefixesLanes runs each engine with a TraceContext in
// the context and requires the request/job identity to be recoverable
// from the exported trace's lane (thread) names.
func TestTraceContextPrefixesLanes(t *testing.T) {
	p := protocols.MustLoad("MSI_nonblocking_cache")
	vn, n := machine.PerMessageVN(p)
	sys, err := machine.New(machine.Config{
		Protocol: p, Caches: 2, Dirs: 1, Addrs: 1, VN: vn, NumVNs: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc := trace.NewTraceContext("req-9", "job-1")
	ctx := trace.WithTraceContext(context.Background(), tc)
	wantPrefix := tc.LanePrefix()
	if wantPrefix == "" {
		t.Fatal("trace context has no lane prefix")
	}

	engines := []struct {
		name  string
		lane  string // a lane the engine must emit, prefix included
		check func(o mc.Options) mc.Result
	}{
		{"seq", wantPrefix + "search (BFS)",
			func(o mc.Options) mc.Result { return mc.CheckCtx(ctx, sys, o) }},
		{"pipeline", wantPrefix + "worker 0",
			func(o mc.Options) mc.Result { return mc.CheckPipelinedCtx(ctx, sys, o, 3) }},
	}
	for _, eng := range engines {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			rec := trace.New(trace.Config{})
			res := eng.check(mc.Options{MaxStates: 400, Trace: rec})
			if res.Outcome != mc.Bounded {
				t.Fatalf("expected bounded run, got %v", res)
			}
			var buf bytes.Buffer
			if err := rec.Export(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), eng.lane) {
				t.Fatalf("export lacks lane %q", eng.lane)
			}
		})
	}
}
