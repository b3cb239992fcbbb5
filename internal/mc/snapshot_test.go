package mc

import (
	"strings"
	"testing"
	"time"
)

// namedCounter wraps counter with rule-name attribution: the +1
// successor is rule "inc1", the +2 successor "inc2".
type namedCounter struct {
	counter
}

func (c *namedCounter) SuccessorsNamed(state []byte) ([][]byte, []string, error) {
	succs, err := c.Successors(state)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(succs))
	for i, s := range succs {
		if c.dec(s) == c.dec(state)+1 {
			names[i] = "inc1"
		} else {
			names[i] = "inc2"
		}
	}
	return succs, names, nil
}

func TestOptionsNegativeBoundsUnbounded(t *testing.T) {
	m := &counter{n: 50, quiet: 49, bad: -1, errAt: -1}
	res := Check(m, Options{MaxStates: -5, MaxDepth: -1})
	if res.Outcome != Complete || res.States != 50 {
		t.Fatalf("negative bounds must mean unbounded, got %v", res)
	}
}

// TestMaxStatesExact pins the satellite fix: Result.States reflects
// states actually stored — never more than MaxStates — for both
// strategies, even when the bound trips mid-expansion.
func TestMaxStatesExact(t *testing.T) {
	for _, strat := range []Strategy{BFS, DFS} {
		m := &counter{n: 1000, branch: true, quiet: -1, bad: -1, errAt: -1}
		res := Check(m, Options{Strategy: strat, MaxStates: 100})
		if res.Outcome != Bounded {
			t.Fatalf("%v: outcome = %v", strat, res.Outcome)
		}
		if res.States != 100 {
			t.Fatalf("%v: states = %d, want exactly 100", strat, res.States)
		}
	}
}

func TestMaxStatesTripsOnInitialStates(t *testing.T) {
	res := Check(multiInit{}, Options{MaxStates: 2})
	if res.Outcome != Bounded || res.States != 2 {
		t.Fatalf("initial-state overflow: %v", res)
	}
}

// TestMaxStatesAtReachableCount: when the bound equals the reachable
// state count, the last state is stored but never expanded, so the
// honest outcome is Bounded; one more state of headroom lets the
// queue drain and the run complete.
func TestMaxStatesAtReachableCount(t *testing.T) {
	m := &counter{n: 50, quiet: 49, bad: -1, errAt: -1}
	res := Check(m, Options{MaxStates: 50})
	if res.Outcome != Bounded || res.States != 50 {
		t.Fatalf("bound == reachable leaves the last state unexpanded: %v", res)
	}
	res = Check(m, Options{MaxStates: 51})
	if res.Outcome != Complete || res.States != 50 {
		t.Fatalf("bound > reachable must complete: %v", res)
	}
}

// TestMaxDepthBoundary pins the `>= MaxDepth` semantics: states AT the
// depth bound are stored but not expanded, so nothing beyond it exists.
func TestMaxDepthBoundary(t *testing.T) {
	for _, strat := range []Strategy{BFS, DFS} {
		m := &counter{n: 1000, quiet: -1, bad: 999, errAt: -1}
		res := Check(m, Options{Strategy: strat, MaxDepth: 20})
		if res.Outcome != Bounded {
			t.Fatalf("%v: outcome = %v", strat, res.Outcome)
		}
		if res.MaxDepth != 20 {
			t.Fatalf("%v: max depth = %d, want exactly 20 (stored, not expanded)",
				strat, res.MaxDepth)
		}
		// The linear chain stores exactly depths 0..20.
		if res.States != 21 {
			t.Fatalf("%v: states = %d, want 21", strat, res.States)
		}
	}
}

func TestProgressCountBased(t *testing.T) {
	m := &counter{n: 100, quiet: 99, bad: -1, errAt: -1}
	var snaps []Snapshot
	res := Check(m, Options{
		Progress:      func(s Snapshot) { snaps = append(snaps, s) },
		ProgressEvery: 10,
	})
	if res.Outcome != Complete {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if len(snaps) < 10 {
		t.Fatalf("expected ~10 count-based snapshots, got %d", len(snaps))
	}
	for _, s := range snaps[:len(snaps)-1] {
		if s.Final {
			t.Fatal("non-terminal snapshot marked Final")
		}
	}
	last := snaps[len(snaps)-1]
	if !last.Final {
		t.Fatal("last snapshot must be Final")
	}
	if !res.Stats.Final || res.Stats.States != res.States {
		t.Fatalf("Result.Stats mismatch: %+v vs States=%d", res.Stats, res.States)
	}
	if last.States != res.Stats.States || last.Expansions != res.Stats.Expansions {
		t.Fatalf("final callback snapshot differs from Result.Stats")
	}
}

func TestProgressIntervalBased(t *testing.T) {
	m := &counter{n: 200, quiet: 199, bad: -1, errAt: -1}
	fired := 0
	res := Check(m, Options{
		Progress:         func(Snapshot) { fired++ },
		ProgressInterval: time.Nanosecond,
	})
	if res.Outcome != Complete {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// A nanosecond interval has elapsed at every expansion check.
	if fired < 100 {
		t.Fatalf("interval snapshots = %d, want one per expansion", fired)
	}
}

// TestProgressDefaultEvery: a Progress callback with no thresholds
// still receives the final snapshot (DefaultProgressEvery applies).
func TestProgressDefaultEvery(t *testing.T) {
	m := &counter{n: 50, quiet: 49, bad: -1, errAt: -1}
	var snaps []Snapshot
	Check(m, Options{Progress: func(s Snapshot) { snaps = append(snaps, s) }})
	if len(snaps) != 1 || !snaps[0].Final {
		t.Fatalf("want exactly the final snapshot, got %d", len(snaps))
	}
}

func TestSnapshotMetrics(t *testing.T) {
	m := &counter{n: 400, branch: true, quiet: -1, bad: 399, errAt: -1}
	res := Check(m, Options{})
	s := res.Stats

	var histSum int64
	for _, n := range s.DepthHistogram {
		histSum += n
	}
	if histSum != int64(res.States) {
		t.Fatalf("depth histogram sums to %d, want States=%d", histSum, res.States)
	}
	if s.DedupHits == 0 || s.DedupHitRate <= 0 || s.DedupHitRate >= 1 {
		t.Fatalf("branching model must dedup: hits=%d rate=%v", s.DedupHits, s.DedupHitRate)
	}
	if s.Generated == 0 || s.Expansions != int64(res.Rules) {
		t.Fatalf("generated=%d expansions=%d rules=%d", s.Generated, s.Expansions, res.Rules)
	}
	if s.StatesPerSec <= 0 || s.ElapsedSeconds <= 0 {
		t.Fatalf("rate metrics missing: %+v", s)
	}
	if s.RuleFirings != nil {
		t.Fatal("plain Model must not report rule firings")
	}
	if !strings.Contains(s.String(), "states") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestNamedModelRuleFirings(t *testing.T) {
	m := &namedCounter{counter{n: 100, branch: true, quiet: -1, bad: 99, errAt: -1}}
	res := Check(m, Options{})
	rf := res.Stats.RuleFirings
	if rf == nil {
		t.Fatal("NamedModel must yield rule firings")
	}
	if rf["inc1"] == 0 || rf["inc2"] == 0 {
		t.Fatalf("rule firings = %v", rf)
	}
	if rf["inc1"]+rf["inc2"] != res.Stats.Generated {
		t.Fatalf("firings %v do not sum to generated %d", rf, res.Stats.Generated)
	}
}

func TestNamedModelParallelRuleFirings(t *testing.T) {
	seqM := &namedCounter{counter{n: 500, branch: true, quiet: 499, bad: -1, errAt: -1}}
	parM := &namedCounter{counter{n: 500, branch: true, quiet: 499, bad: -1, errAt: -1}}
	seq := Check(seqM, Options{})
	par := CheckPipelined(parM, Options{}, 4, 0)
	if seq.Outcome != par.Outcome || seq.States != par.States {
		t.Fatalf("seq %v vs par %v", seq, par)
	}
	for _, r := range []string{"inc1", "inc2"} {
		if seq.Stats.RuleFirings[r] != par.Stats.RuleFirings[r] {
			t.Fatalf("rule %s: seq %d vs par %d", r,
				seq.Stats.RuleFirings[r], par.Stats.RuleFirings[r])
		}
	}
}
