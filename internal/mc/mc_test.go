package mc

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// counter is a toy model: states 0..N-1, successor i+1 (and i+2 when
// branch is set); state Bad has no successors; quiescent at Quiet.
type counter struct {
	n      int
	branch bool
	bad    int // deadlock state (-1 = none)
	quiet  int // quiescent terminal (-1 = none)
	errAt  int // invariant violation (-1 = none)
}

func (c *counter) enc(i int) []byte { return []byte(fmt.Sprintf("%06d", i)) }
func (c *counter) dec(s []byte) int {
	var i int
	fmt.Sscanf(string(s), "%06d", &i)
	return i
}

func (c *counter) Initial() [][]byte { return [][]byte{c.enc(0)} }

func (c *counter) Successors(state []byte) ([][]byte, error) {
	i := c.dec(state)
	if i == c.errAt {
		return nil, errors.New("boom at " + string(state))
	}
	if i == c.bad || i == c.quiet {
		return nil, nil
	}
	var out [][]byte
	if i+1 < c.n {
		out = append(out, c.enc(i+1))
	}
	if c.branch && i+2 < c.n {
		out = append(out, c.enc(i+2))
	}
	return out, nil
}

func (c *counter) Quiescent(state []byte) bool  { return c.dec(state) == c.quiet }
func (c *counter) Describe(state []byte) string { return string(state) }

func TestCompleteNoDeadlock(t *testing.T) {
	m := &counter{n: 50, quiet: 49, bad: -1, errAt: -1}
	res := Check(m, Options{})
	if res.Outcome != Complete {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.States != 50 {
		t.Fatalf("states = %d, want 50", res.States)
	}
	if res.MaxDepth != 49 {
		t.Fatalf("depth = %d, want 49", res.MaxDepth)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := &counter{n: 30, quiet: -1, bad: 29, errAt: -1}
	for _, strat := range []Strategy{BFS, DFS} {
		res := Check(m, Options{Strategy: strat})
		if res.Outcome != Deadlock {
			t.Fatalf("%v: outcome = %v", strat, res.Outcome)
		}
		if len(res.Trace) != 30 {
			t.Fatalf("%v: trace length %d, want 30", strat, len(res.Trace))
		}
		if string(res.Trace[len(res.Trace)-1]) != string(m.enc(29)) {
			t.Fatalf("%v: trace does not end in the deadlock state", strat)
		}
		// Trace steps must be genuine transitions.
		for i := 0; i+1 < len(res.Trace); i++ {
			succs, _ := m.Successors(res.Trace[i])
			ok := false
			for _, s := range succs {
				if string(s) == string(res.Trace[i+1]) {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("%v: bogus trace step %d", strat, i)
			}
		}
	}
}

func TestViolationDetected(t *testing.T) {
	m := &counter{n: 30, quiet: -1, bad: -1, errAt: 10}
	res := Check(m, Options{})
	if res.Outcome != Violation {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.Message == "" || len(res.Trace) != 11 {
		t.Fatalf("message %q trace %d", res.Message, len(res.Trace))
	}
}

func TestBoundedByStates(t *testing.T) {
	m := &counter{n: 1000, quiet: -1, bad: 999, errAt: -1}
	res := Check(m, Options{MaxStates: 100})
	if res.Outcome != Bounded {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.States > 101 {
		t.Fatalf("states = %d exceeds bound", res.States)
	}
}

func TestBoundedByDepth(t *testing.T) {
	m := &counter{n: 1000, quiet: -1, bad: 999, errAt: -1}
	res := Check(m, Options{MaxDepth: 20})
	if res.Outcome != Bounded {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.MaxDepth > 20 {
		t.Fatalf("explored beyond depth bound: %d", res.MaxDepth)
	}
}

func TestBFSFindsMinimalDepth(t *testing.T) {
	// With branching, BFS reaches the deadlock at its true minimal
	// depth.
	m := &counter{n: 40, branch: true, quiet: -1, bad: 39, errAt: -1}
	res := Check(m, Options{Strategy: BFS})
	if res.Outcome != Deadlock {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// Minimal path 0→2→4…→38→39: 20 steps.
	if got := len(res.Trace) - 1; got != 20 {
		t.Fatalf("BFS counterexample depth %d, want 20", got)
	}
}

func TestDisableTraces(t *testing.T) {
	m := &counter{n: 30, quiet: -1, bad: 29, errAt: -1}
	res := Check(m, Options{DisableTraces: true})
	if res.Outcome != Deadlock {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if len(res.Trace) != 1 {
		t.Fatalf("trace should hold only the bad state, got %d", len(res.Trace))
	}
}

// canonCounter collapses states mod k via canonicalization.
type canonCounter struct {
	counter
	k int
}

func (c *canonCounter) Canonicalize(state []byte) []byte {
	return c.enc(c.dec(state) % c.k)
}

func TestSymmetryReduction(t *testing.T) {
	m := &canonCounter{counter{n: 1000, quiet: -1, bad: -1, errAt: -1}, 10}
	res := Check(m, Options{})
	if res.Outcome != Complete {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.States != 10 {
		t.Fatalf("states = %d, want 10 canonical classes", res.States)
	}
}

func TestMultipleInitialStates(t *testing.T) {
	m := &multiInit{}
	res := Check(m, Options{})
	if res.Outcome != Complete || res.States != 3 {
		t.Fatalf("res = %v", res)
	}
}

type multiInit struct{}

func (multiInit) Initial() [][]byte                     { return [][]byte{{1}, {2}, {2}, {3}} }
func (multiInit) Successors(s []byte) ([][]byte, error) { return nil, nil }
func (multiInit) Quiescent(s []byte) bool               { return true }
func (multiInit) Describe(s []byte) string              { return fmt.Sprint(s) }

// TestAgree pins the matrix tools' agreement predicate: outcome, stored
// states and depth must all match, for every outcome — a bounded or
// deadlocked run whose counts differ is a disagreement, not an
// engine-dependent frontier (seq and pipeline are one search core).
func TestAgree(t *testing.T) {
	base := Result{Outcome: Complete, States: 100, MaxDepth: 10}
	for _, tc := range []struct {
		name string
		a, b Result
		want bool
	}{
		{"identical", base, base, true},
		{"timing and rule counts are not compared", base,
			Result{Outcome: Complete, States: 100, MaxDepth: 10, Rules: 7, Duration: time.Second}, true},
		{"outcome drift", base, Result{Outcome: Deadlock, States: 100, MaxDepth: 10}, false},
		{"states drift, complete", base, Result{Outcome: Complete, States: 99, MaxDepth: 10}, false},
		{"depth drift, complete", base, Result{Outcome: Complete, States: 100, MaxDepth: 11}, false},
		{"states drift, bounded",
			Result{Outcome: Bounded, States: 100, MaxDepth: 10},
			Result{Outcome: Bounded, States: 73, MaxDepth: 10}, false},
		{"depth drift, deadlock",
			Result{Outcome: Deadlock, States: 50, MaxDepth: 9},
			Result{Outcome: Deadlock, States: 50, MaxDepth: 12}, false},
	} {
		if got := Agree(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: Agree = %v, want %v", tc.name, got, tc.want)
		}
	}
}
