// Command vnbench measures model-checker throughput at the paper's
// experiment configuration (3 caches, 2 directories, 2 addresses,
// §VII): for each benchmark protocol it runs the same bounded search
// under the computed minimal VN assignment once per selected engine
// and reports states/sec, peak stored states, dedup hit rate, depth
// reached, and heap footprint side by side, writing the whole run as a
// JSON artifact (default BENCH_mc.json) so performance can be tracked
// across commits. Every run also profiles per-VN queue occupancy; the
// engines must agree on outcome, state count, depth, AND the full
// occupancy aggregate — a disagreement is a checker bug and fails the
// run.
//
// With -compare baseline.json candidate.json, vnbench instead diffs
// two of its own artifacts as a perf-regression gate (see compare.go):
// exit 1 on a states/s or heap regression beyond noise-aware
// thresholds, exit 2 when the artifacts are not comparable.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"minvn/internal/cliflag"
	"minvn/internal/dist"
	"minvn/internal/icn"
	"minvn/internal/mc"
	"minvn/internal/obs"
	"minvn/internal/protocols"
)

// occMeans computes the observation-weighted mean global-buffer and
// endpoint-FIFO depths across all VNs.
func occMeans(st *icn.OccupancyStats) (global, local float64) {
	var gn, gsum, ln, lsum int64
	for _, v := range st.PerVN {
		for d, c := range v.GlobalHist {
			gn += c
			gsum += int64(d) * c
		}
		for d, c := range v.LocalHist {
			ln += c
			lsum += int64(d) * c
		}
	}
	if gn > 0 {
		global = float64(gsum) / float64(gn)
	}
	if ln > 0 {
		local = float64(lsum) / float64(ln)
	}
	return global, local
}

func main() {
	// The bench matrix runs every protocol under its minimal assignment.
	// -engines accepts dist, which applies -max-states at level
	// granularity: compare it with -max-states 0.
	search := cliflag.Search{
		Spec:    dist.Spec{Caches: 3, Dirs: 2, Addrs: 2, MaxStates: 300_000},
		Engines: "seq,pipeline", Stores: "exact,compact",
	}
	search.Register(flag.CommandLine, cliflag.SearchSystem|cliflag.SearchMatrix|cliflag.SearchWorkers|cliflag.SearchShards)
	var (
		out       = flag.String("out", "BENCH_mc.json", "write the benchmark artifact to this file")
		seed      = flag.Int64("seed", 1, "base seed for the random-walk smoke pass (-walks)")
		walks     = flag.Int("walks", 0, "seeded random-workload walks per protocol before the engine comparison")
		walkSteps = flag.Int("walk-steps", 2000, "steps per random walk")

		serveMode      = flag.Bool("serve", false, "load-test the serving layer instead of benchmarking engines")
		serveAddr      = flag.String("serve-addr", "", "existing vnserved base URL (empty = spin up in-process)")
		serveWorkers   = flag.Int("serve-workers", 8, "in-process serving pool size")
		serveBurst     = flag.Int("serve-burst", 0, "distinct verify jobs in the backpressure burst (0 = 3x pool+queue capacity)")
		serveMaxStates = flag.Int("serve-max-states", 4000, "base per-job state bound for load-gen requests")
		serveStats     = flag.String("serve-stats", "", "write the server's final /v1/stats document to this file")
		serveProto     = flag.String("serve-protocol", "MSI_nonblocking_cache", "protocol the load-gen requests verify")

		compareMode   = flag.Bool("compare", false, "diff two benchmark artifacts (baseline.json candidate.json) as a perf-regression gate instead of benchmarking")
		cmpThreshold  = flag.Float64("threshold", 0.20, "-compare: fractional states/s drop that fails the gate")
		cmpHeapThresh = flag.Float64("heap-threshold", 0.50, "-compare: fractional heap growth that fails the gate")
		cmpNoiseFloor = flag.Float64("noise-floor", 0.05, "-compare: seconds below which a row is too noisy to gate on throughput")
		cmpDiffOut    = flag.String("diff-out", "BENCH_diff.json", "-compare: write the diff artifact to this file (empty disables)")
	)
	tel := cliflag.Register(flag.CommandLine,
		cliflag.FlagStatsJSON|cliflag.FlagPprof|cliflag.FlagTrace|cliflag.FlagLedger|cliflag.FlagDist)
	flag.Parse()

	if *compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "vnbench: -compare needs exactly two artifact paths: baseline.json candidate.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), compareOptions{
			Threshold:      *cmpThreshold,
			HeapThreshold:  *cmpHeapThresh,
			NoiseFloorSecs: *cmpNoiseFloor,
			HeapFloorBytes: 32 << 20,
			DiffOut:        *cmpDiffOut,
		}, os.Stdout, os.Stderr))
	}

	if err := tel.StartPprof(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vnbench: pprof:", err)
		os.Exit(1)
	}

	if *serveMode {
		burst := *serveBurst
		if burst <= 0 {
			burst = 3 * (*serveWorkers + 2**serveWorkers) // 3x pool + queue capacity
		}
		art := obs.NewArtifact("vnbench-serve")
		art.Params["serve_addr"] = *serveAddr
		art.Params["serve_workers"] = *serveWorkers
		art.Params["serve_burst"] = burst
		art.Params["serve_max_states"] = *serveMaxStates
		art.Params["serve_protocol"] = *serveProto
		os.Exit(runServe(serveBenchConfig{
			addr:      *serveAddr,
			workers:   *serveWorkers,
			burst:     burst,
			maxStates: *serveMaxStates,
			statsOut:  *serveStats,
			protocol:  *serveProto,
		}, art, *out))
	}

	engList, storeList, err := search.Matrix(true)
	if err != nil {
		os.Exit(cliflag.Fail(os.Stderr, "vnbench", err))
	}
	search.Peers = tel.Peers()

	benchProtos := []string{
		"MSI_nonblocking_cache",
		"MESI_nonblocking_cache",
		"MOESI_nonblocking_cache",
	}
	if flag.NArg() > 0 {
		benchProtos = flag.Args()
	}

	art := obs.NewArtifact("vnbench")
	art.Params = search.Params()
	art.Params["seed"] = *seed
	art.Params["walks"] = *walks
	art.Params["walk_steps"] = *walkSteps

	exitCode := 0
	var runs []map[string]any
	for _, name := range benchProtos {
		p, err := protocols.Load(name)
		if err != nil {
			os.Exit(cliflag.Fail(os.Stderr, "vnbench", err))
		}
		job, err := search.Resolve(p, nil)
		if err != nil {
			os.Exit(cliflag.Fail(os.Stderr, "vnbench", err))
		}
		job.Options.Trace = tel.Recorder()
		job.Occupancy = true
		sys := job.System
		// Seeded random-walk smoke pass: cheap wedge detection before
		// the exhaustive engine comparison. The base seed is recorded
		// in the artifact so any wedged walk replays exactly.
		for wk := 0; wk < *walks; wk++ {
			ws := *seed + int64(wk)
			res := sys.Walk(ws, *walkSteps)
			if res.Deadlocked || res.Violation != nil {
				fmt.Fprintf(os.Stderr, "vnbench: %s: walk seed %d wedged: %v\n", p.Name, ws, res)
				exitCode = 1
				runs = append(runs, map[string]any{
					"protocol": p.Name, "walk_seed": ws, "walk": res.String(),
				})
			}
		}

		// The first store's first engine is the protocol's reference
		// row: speedups are relative to it, and every other cell must
		// reproduce its search (mc.Agree) and its occupancy aggregate.
		// That one comparison covers engines within a store — they run
		// the identical search — and exact against compact, where at
		// bench scale a fingerprint conflation is a ~n²/2⁶⁵ event, so a
		// mismatch is a dedup bug, not bad luck.
		var ref *mc.Result
		var refOcc *icn.OccupancyStats
		for _, store := range storeList {
			job.Options.Store = store
			for _, eng := range engList {
				// Start every engine from a collected heap so HeapBytes
				// reflects this run's live set, not the previous engine's
				// garbage.
				runtime.GC()
				job.Engine = eng
				res, err := dist.Run(context.Background(), job)
				if err != nil {
					os.Exit(cliflag.Fail(os.Stderr, "vnbench", err))
				}
				// Every engine lands its occupancy profile in
				// Stats.Occupancy, so they all compare the same way.
				occ, _ := res.Stats.Occupancy.(*icn.OccupancyStats)

				speedup := 1.0
				if ref == nil {
					ref, refOcc = &res, occ
				} else {
					if !mc.Agree(res, *ref) {
						fmt.Fprintf(os.Stderr, "vnbench: %s: %v/%v disagrees with %v/%v: %v vs %v\n",
							p.Name, eng, store, engList[0], storeList[0], res, *ref)
						exitCode = 1
					}
					if !occ.Equal(refOcc) {
						fmt.Fprintf(os.Stderr, "vnbench: %s: %v/%v occupancy aggregate disagrees with %v/%v\n",
							p.Name, eng, store, engList[0], storeList[0])
						exitCode = 1
					}
					if ref.Stats.StatesPerSec > 0 {
						speedup = res.Stats.StatesPerSec / ref.Stats.StatesPerSec
					}
				}
				gMean, lMean := occMeans(occ)
				skewCV := 0.0
				if res.Stats.Health != nil {
					skewCV = res.Stats.Health.OccCV
				}
				fmt.Printf("%-26s %-9s %-8s %-10s %9d states  depth %3d  %8.0f states/s  %5.2fx  dedup %.1f%%  heap %4dMB  occ g%d/l%d  skew %.2f  %v\n",
					p.Name, eng, store, res.Outcome.Tag(), res.States, res.MaxDepth,
					res.Stats.StatesPerSec, speedup, 100*res.Stats.DedupHitRate,
					res.Stats.HeapBytes>>20, occ.GlobalHighWater, occ.LocalHighWater,
					skewCV, res.Duration.Round(1e6))
				run := map[string]any{
					"protocol":        p.Name,
					"engine":          eng.String(),
					"store":           store.String(),
					"workers":         search.Workers,
					"shards":          search.Shards,
					"num_vns":         job.Config.NumVNs,
					"outcome":         res.Outcome.Tag(),
					"states":          res.States,
					"peak_states":     res.States,
					"max_depth":       res.MaxDepth,
					"states_per_sec":  res.Stats.StatesPerSec,
					"speedup":         speedup,
					"dedup_hit_rate":  res.Stats.DedupHitRate,
					"heap_bytes":      res.Stats.HeapBytes,
					"seconds":         res.Duration.Seconds(),
					"occ_global_hwm":  occ.GlobalHighWater,
					"occ_local_hwm":   occ.LocalHighWater,
					"occ_global_mean": gMean,
					"occ_local_mean":  lMean,
				}
				// Contention-profile columns: visited-set stripe skew,
				// per-worker expand vs. wait split, visited-set footprint
				// (set_bytes) and unverified (conflated) dedup hits, and
				// (pipeline) shard lock-wait, arena footprint, and
				// reorder-buffer stalls.
				if h := res.Stats.Health; h != nil {
					run["occ_skew_cv"] = h.OccCV
					run["expand_ns"] = h.ExpandNS()
					run["queue_wait_ns"] = h.QueueWaitNS()
					run["lock_wait_ns"] = h.LockWaitNS
					run["lock_wait_samples"] = h.LockWaitSamples
					run["arena_bytes"] = h.ArenaBytes
					run["set_bytes"] = h.SetBytes
					run["unverified_hits"] = h.UnverifiedHits
					run["reorder_stalls"] = h.ReorderStalls
					run["reorder_max"] = h.ReorderMax
				}
				// The full per-VN histograms and the complete health report
				// ride along once per protocol and store, on the baseline
				// engine's row (the parity check guarantees the other
				// engines' occupancy aggregates are identical).
				if eng == engList[0] {
					run["occupancy"] = occ
					run["health"] = res.Stats.Health
					run["rule_firings"] = res.Stats.RuleFirings
				}
				runs = append(runs, run)
			}
		}
	}
	art.Outcome = "ok"
	if exitCode != 0 {
		art.Outcome = "engine-mismatch"
	}
	art.Metrics = map[string]any{"runs": runs}
	if err := tel.WriteTrace(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vnbench: trace-out:", err)
		os.Exit(1)
	}
	if err := art.WriteFile(*out); err != nil {
		os.Exit(cliflag.Fail(os.Stderr, "vnbench", err))
	}
	fmt.Printf("wrote %s\n", *out)
	// -stats-json writes a second copy of the artifact, so pipelines
	// that collect stats-json from every tool need not special-case the
	// benchmark's -out; -ledger records the whole matrix as one run.
	if tel.StatsJSON == *out {
		tel.StatsJSON = ""
	}
	if err := tel.Finish(art, nil, os.Stdout); err != nil {
		os.Exit(cliflag.Fail(os.Stderr, "vnbench", err))
	}
	os.Exit(exitCode)
}
