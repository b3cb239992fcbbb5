package mc_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"minvn/internal/machine"
	"minvn/internal/mc"
)

var update = flag.Bool("update", false, "rewrite testdata/search.golden")

// hashingObserver digests the observer's call sequence: every stored
// state's bytes, length-prefixed, in the order Observe saw them.
type hashingObserver struct{ h hash.Hash }

func (o hashingObserver) Observe(state []byte) {
	fmt.Fprintf(o.h, "%d:", len(state))
	o.h.Write(state)
}

// searchDigest is one SHA-256 over everything a search hands out that
// the parity contract calls deterministic.
func searchDigest(res mc.Result, obs hashingObserver) string {
	h := sha256.New()
	fmt.Fprintf(h, "outcome=%s states=%d rules=%d depth=%d message=%q\n",
		res.Outcome.Tag(), res.States, res.Rules, res.MaxDepth, res.Message)
	for _, st := range res.Trace {
		fmt.Fprintf(h, "trace %d:", len(st))
		h.Write(st)
	}
	fmt.Fprintf(h, "\nhist=%v\n", res.Stats.DepthHistogram)
	names := make([]string, 0, len(res.Stats.RuleFirings))
	for name := range res.Stats.RuleFirings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "rule %q=%d\n", name, res.Stats.RuleFirings[name])
	}
	fmt.Fprintf(h, "unverified=%d\nobserved=%x\n", res.Stats.Health.UnverifiedHits, obs.h.Sum(nil))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSearchGolden pins the search core itself. Seq and pipeline share
// it, so the parity suites cannot see a bug in it, and bench/expected.json
// pins only states and depth. One digest per cell of {system} x {BFS,
// DFS} x {traces on, off} x {exact, compact} x {seq, pipeline with 2 and
// 3 workers}, recorded with the node-table search core (PR 21). Run with
// -update to re-record, which is only legitimate when search semantics
// are meant to change.
func TestSearchGolden(t *testing.T) {
	owned := paritySystem(t, "MSI_blocking_cache", "permsg", 3, 1, 2)
	seed, err := machine.OwnedSeed(owned)
	if err != nil {
		t.Fatal(err)
	}
	systems := []struct {
		name string
		m    mc.Model
		// bfs and dfs bound the stored states per strategy (0 = run to
		// the end: complete, or the deadlock).
		bfs, dfs int
		// big systems leave two things to the small one. DFS x pipeline:
		// the search loop runs DFS on one worker, without a pipeline,
		// so the cell would re-run the seq cell to pin that fallback. And
		// the race detector, under which they take minutes (TestLentBytes
		// is the race test).
		big bool
	}{
		{"MSI_nonblocking_cache-3c2d2a", paritySystem(t, "MSI_nonblocking_cache", "minimal", 3, 2, 2), 60_000, 60_000, true},
		{"CXL_cache-3c1d1a", paritySystem(t, "CXL_cache", "minimal", 3, 1, 1), 0, 0, true},
		{"MSI_blocking_cache-permsg-owned-3c1d2a", &machine.Seeded{System: owned, Seeds: [][]byte{seed}}, 20_000, 0, true},
		{"MSI_class1-2c1d1a", paritySystem(t, "MSI_class1", "uniform", 2, 1, 1), 0, 0, false},
	}
	var got []string
	for _, sys := range systems {
		if raceEnabled && sys.big {
			continue
		}
		for _, strategy := range []mc.Strategy{mc.BFS, mc.DFS} {
			bound := sys.bfs
			if strategy == mc.DFS {
				bound = sys.dfs
			}
			for _, traces := range []bool{true, false} {
				for _, store := range []mc.Store{mc.StoreExact, mc.StoreCompact} {
					for _, workers := range []int{1, 2, 3} {
						if strategy == mc.DFS && workers > 1 && sys.big {
							continue
						}
						obs := hashingObserver{sha256.New()}
						opts := mc.Options{Strategy: strategy, MaxStates: bound, DisableTraces: !traces, Store: store, Observer: obs}
						var res mc.Result
						if workers == 1 {
							res = mc.Check(sys.m, opts)
						} else {
							res = mc.CheckPipelined(sys.m, opts, workers, 0)
						}
						engine := "seq"
						if workers > 1 {
							engine = fmt.Sprintf("pipeline%d", workers)
						}
						tr := "traces"
						if !traces {
							tr = "notraces"
						}
						got = append(got, fmt.Sprintf("%s/%s/%s/%s/%s %s outcome=%s states=%d depth=%d",
							sys.name, strategy, tr, store, engine, searchDigest(res, obs), res.Outcome.Tag(), res.States, res.MaxDepth))
					}
				}
			}
		}
	}
	path := filepath.Join("testdata", "search.golden")
	if *update {
		if raceEnabled {
			t.Fatal("record without -race: it skips the big systems")
		}
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
	want := make(map[string]string)
	for sc := bufio.NewScanner(f); sc.Scan(); {
		cell, _, _ := strings.Cut(sc.Text(), " ")
		want[cell] = sc.Text()
	}
	for _, line := range got {
		cell, _, _ := strings.Cut(line, " ")
		if line != want[cell] {
			t.Errorf("search digest diverged\n got  %s\n want %s", line, want[cell])
		}
	}
}
