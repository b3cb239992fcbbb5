package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"minvn/internal/analysis"
	"minvn/internal/icn"
	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/protocol"
	"minvn/internal/protocol/xform"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

// sink keeps the compiler from discarding measured calls.
var sink int

// firstErr remembers the first error of a replay loop, so the timed
// loops need no early exits.
type firstErr struct{ err error }

func (f *firstErr) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// replayRounds is how often each replay loop runs; the median round is
// reported, so one preempted round does not move a layer number.
const replayRounds = 3

// perOp runs loop, which performs ops operations, replayRounds times
// and returns the median round's time per operation with the mean
// allocations and bytes per operation.
func perOp(ops int, loop func()) (ns, allocs, bytes float64) {
	if ops == 0 {
		return 0, 0, 0
	}
	var rounds []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 0; r < replayRounds; r++ {
		t0 := time.Now()
		loop()
		rounds = append(rounds, float64(time.Since(t0)))
	}
	runtime.ReadMemStats(&ms1)
	total := float64(ops * replayRounds)
	return median(rounds) / float64(ops),
		float64(ms1.Mallocs-ms0.Mallocs) / total,
		float64(ms1.TotalAlloc-ms0.TotalAlloc) / total
}

// replayLayers measures every layer from outside by calling its
// exported functions on recorded or seeded inputs. Its numbers do not
// depend on the workload being traced; every traced run reports them.
func replayLayers(e *childEnv) error {
	spec := paperConfig("MSI_nonblocking_cache", e.sz.boundedStates)
	c3, err := recordCorpus(spec, e.seed, e.sz.corpusStates)
	if err != nil {
		return err
	}
	spec4 := spec
	spec4.caches, spec4.maxStates = 4, e.sz.corpus4cBound
	c4, err := recordCorpus(spec4, e.seed, e.sz.corpus4cStates)
	if err != nil {
		return err
	}
	for name, c := range map[string]*corpus{"3c": c3, "4c": c4} {
		if err := c.write(e.outDir, fmt.Sprintf("corpus-%s-seed%d.bin", name, e.seed)); err != nil {
			return fmt.Errorf("write corpus: %w", err)
		}
	}
	if err := replayMachine(e, c3, c4); err != nil {
		return err
	}
	replayICN(e)
	if err := replayVisited(e, c3); err != nil {
		return err
	}
	return replayStatic(e)
}

func replayMachine(e *childEnv, c3, c4 *corpus) error {
	sys, states := c3.b.sys, c3.states
	var failed firstErr
	fail := failed.note
	ns, allocs, bytes := perOp(len(states), func() {
		for _, s := range states {
			out, e2 := sys.Successors(s)
			fail(e2)
			sink += len(out)
		}
	})
	e.layer("machine.successors_ns_op", ns)
	e.layer("machine.successors_allocs_op", allocs)
	e.layer("machine.successors_bytes_op", bytes)
	ns, _, _ = perOp(len(states), func() {
		for _, s := range states {
			out, _, e2 := sys.SuccessorsNamed(s)
			fail(e2)
			sink += len(out)
		}
	})
	e.layer("machine.successors_named_ns_op", ns)

	// Listing the enabled rules (decode plus rule enumeration), then the
	// firing of each listed rule on its own (decode, clone/execute, ICN
	// insert, encode).
	some := states[:min(len(states), len(states)/4+1)]
	rules := make([][]machine.Rule, len(some))
	ns, _, _ = perOp(len(some), func() {
		for i, s := range some {
			rs, e2 := sys.EnabledRules(s)
			fail(e2)
			rules[i] = rs
		}
	})
	e.layer("machine.enabled_rules_ns_op", ns)
	fired := 0
	for _, rs := range rules {
		fired += len(rs)
	}
	ns, _, _ = perOp(fired, func() {
		for i, s := range some {
			for _, r := range rules[i] {
				out, e2 := sys.Apply(s, r)
				fail(e2)
				sink += len(out)
			}
		}
	})
	e.layer("machine.apply_ns_op", ns)

	canon := func(c *corpus) float64 {
		ns, _, _ := perOp(len(c.states), func() {
			for _, s := range c.states {
				sink += len(c.b.sys.Canonicalize(s))
			}
		})
		return ns
	}
	e.layer("machine.canonicalize_ns_op", canon(c3))
	e.layer("machine.canonicalize_4c_ns_op", canon(c4))
	ns, _, _ = perOp(len(states), func() {
		for _, s := range states {
			if sys.Quiescent(s) {
				sink++
			}
		}
	})
	e.layer("machine.quiescent_ns_op", ns)

	const builds = 20
	ns, _, _ = perOp(builds, func() {
		for i := 0; i < builds; i++ {
			_, e2 := machine.New(c3.b.cfg)
			fail(e2)
		}
	})
	e.layer("machine.new_ns", ns)
	return failed.err
}

// icnStates builds n seeded network states at the paper system's five
// endpoints and default capacities, each holding a handful of
// messages, as reachable states do.
func icnStates(r *rand.Rand, cfg icn.Config, n int) []*icn.State {
	out := make([]*icn.State, n)
	for i := range out {
		s := icn.NewState(cfg)
		for m := r.Intn(7); m > 0; m-- {
			vn, buf := r.Intn(cfg.NumVNs), r.Intn(2)
			if s.CanSend(cfg, vn, buf) {
				s.Send(vn, buf, icn.Message{Name: uint8(r.Intn(12)), Addr: uint8(r.Intn(2)),
					Src: uint8(r.Intn(cfg.Endpoints)), Dst: uint8(r.Intn(cfg.Endpoints))})
			}
			if r.Intn(2) == 0 && s.CanDeliver(cfg, vn, buf) {
				s.Deliver(vn, buf)
			}
		}
		out[i] = s
	}
	return out
}

func replayICN(e *childEnv) {
	const endpoints = 5
	for _, vns := range []int{2, 13} {
		cfg := icn.Config{NumVNs: vns, Endpoints: endpoints,
			GlobalCap: 2 * endpoints * (endpoints - 1), LocalCap: 2 * (endpoints - 1)}
		states := icnStates(rand.New(rand.NewSource(e.seed)), cfg, e.sz.corpus4cStates)
		suffix := fmt.Sprintf(".vn%d", vns)
		encoded := make([][]byte, len(states))
		var buf []byte
		ns, _, _ := perOp(len(states), func() {
			for i, s := range states {
				buf = s.Encode(buf[:0])
				encoded[i] = append(encoded[i][:0], buf...)
			}
		})
		e.layer("icn.encode_ns_op"+suffix, ns)
		scratch := icn.NewState(cfg)
		ns, _, _ = perOp(len(states), func() {
			for _, b := range encoded {
				rest, err := icn.DecodeInto(cfg, scratch, b)
				if err != nil || len(rest) != 0 {
					panic(fmt.Sprintf("icn round trip: %v, %d bytes left", err, len(rest)))
				}
			}
		})
		e.layer("icn.decode_into_ns_op"+suffix, ns)
		ns, _, _ = perOp(len(states), func() {
			for _, s := range states {
				sink += len(s.Clone().Global)
			}
		})
		e.layer("icn.clone_ns_op"+suffix, ns)
		// One send and one delivery per state, in place on private copies
		// made outside the timed loop; the few messages the rounds add
		// stay far below the buffer capacities.
		work := make([]*icn.State, len(states))
		for i, s := range states {
			work[i] = s.Clone()
		}
		ns, _, _ = perOp(len(work), func() {
			for i, c := range work {
				vn := i % vns
				if c.CanSend(cfg, vn, 0) {
					c.Send(vn, 0, icn.Message{Dst: uint8(i % endpoints)})
				}
				if c.CanDeliver(cfg, vn, 0) {
					c.Deliver(vn, 0)
				}
			}
		})
		e.layer("icn.send_deliver_ns_op"+suffix, ns)
	}
}

func replayVisited(e *childEnv, c *corpus) error {
	keys := make([][]byte, len(c.states))
	fps := make([]uint64, len(keys))
	for i, s := range c.states {
		keys[i] = c.b.sys.Canonicalize(s)
	}
	ns, _, _ := perOp(len(keys), func() {
		for i, k := range keys {
			fps[i] = mc.Fingerprint(k)
		}
	})
	e.layer("mc.fingerprint_ns_op", ns)
	for _, store := range []mc.Store{mc.StoreExact, mc.StoreCompact} {
		var fresh, dup []float64
		var perState float64
		for r := 0; r < replayRounds; r++ {
			vs := mc.NewVisitedStore(store, 0)
			pass := func(wantFresh bool) (float64, error) {
				t0 := time.Now()
				for i, k := range keys {
					_, isFresh, _, err := vs.Insert(fps[i], k, int32(i))
					if err != nil {
						return 0, err
					}
					if isFresh != wantFresh {
						return 0, fmt.Errorf("%s store: state %d fresh=%v, want %v", store, i, isFresh, wantFresh)
					}
				}
				return float64(time.Since(t0)) / float64(len(keys)), nil
			}
			f, err := pass(true)
			if err != nil {
				return err
			}
			d, err := pass(false)
			if err != nil {
				return err
			}
			fresh, dup = append(fresh, f), append(dup, d)
			entries, _, setBytes := vs.Stats()
			perState = float64(setBytes) / float64(entries)
		}
		e.layer("mc.visited_insert_fresh_ns_op."+store.String(), median(fresh))
		e.layer("mc.visited_insert_dup_ns_op."+store.String(), median(dup))
		e.layer("mc.visited_bytes_per_state."+store.String(), perState)
	}
	return nil
}

func replayStatic(e *childEnv) error {
	var ps []*protocol.Protocol
	for _, n := range protocols.Names() {
		ps = append(ps, protocols.MustLoad(n))
	}
	var failed firstErr
	fail := failed.note
	docs := make([][]byte, len(ps))
	ns, _, _ := perOp(len(ps), func() {
		for i, p := range ps {
			d, e2 := protocol.Encode(p)
			fail(e2)
			docs[i] = d
		}
	})
	e.layer("protocol.encode_ns_op", ns)
	ns, _, _ = perOp(len(ps), func() {
		for _, d := range docs {
			_, e2 := protocol.Decode(d)
			fail(e2)
		}
	})
	e.layer("protocol.decode_ns_op", ns)
	if failed.err != nil {
		return failed.err
	}

	// The transforms refuse some built-ins by design; only accepted
	// inputs are timed.
	var nsOK []*protocol.Protocol
	var pairs [][2]*protocol.Protocol
	for _, p := range ps {
		if _, e2 := xform.NonStalling(p); e2 == nil {
			nsOK = append(nsOK, p)
		}
		for _, q := range ps {
			if _, e2 := xform.Compose(q, p, "probe"); e2 == nil {
				pairs = append(pairs, [2]*protocol.Protocol{q, p})
			}
		}
	}
	ns, _, _ = perOp(len(nsOK), func() {
		for _, p := range nsOK {
			out, _ := xform.NonStalling(p)
			sink += len(out.Messages)
		}
	})
	e.layer("xform.nonstalling_ns_op", ns)
	ns, _, _ = perOp(len(pairs), func() {
		for _, pr := range pairs {
			out, _ := xform.Compose(pr[0], pr[1], "probe")
			sink += len(out.Messages)
		}
	})
	e.layer("xform.compose_ns_op", ns)

	results := make([]*analysis.Result, len(ps))
	ns, _, _ = perOp(len(ps), func() {
		for i, p := range ps {
			results[i] = analysis.Analyze(p)
		}
	})
	e.layer("analysis.analyze_ns_op", ns)
	ns, _, _ = perOp(len(ps), func() {
		for _, r := range results {
			sink += vnassign.AssignFromAnalysis(r).NumVNs
		}
	})
	e.layer("vnassign.assign_ns_op", ns)
	return nil
}
