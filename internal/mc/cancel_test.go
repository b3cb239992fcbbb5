package mc

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// slowCounter wraps counter with a per-expansion delay so a
// cancellation lands mid-search deterministically.
type slowCounter struct {
	counter
	delay time.Duration
}

func (s *slowCounter) Successors(state []byte) ([][]byte, error) {
	time.Sleep(s.delay)
	return s.counter.Successors(state)
}

// engineRuns enumerates the engines as ctx-taking closures.
func engineRuns(m Model, opts Options) []struct {
	name string
	run  func(context.Context) Result
} {
	return []struct {
		name string
		run  func(context.Context) Result
	}{
		{"seq", func(ctx context.Context) Result { return CheckCtx(ctx, m, opts) }},
		{"pipeline", func(ctx context.Context) Result { return CheckPipelinedCtx(ctx, m, opts, 4) }},
	}
}

// TestBackgroundContextIdentical pins that threading a background
// context through any engine changes nothing: Outcome, States, Rules,
// and MaxDepth equal the plain (context-free) call's.
func TestBackgroundContextIdentical(t *testing.T) {
	m := &counter{n: 4000, branch: true, bad: -1, quiet: 3999, errAt: -1}
	opts := Options{DisableTraces: true}
	plain := Check(m, opts)
	if plain.Outcome != Complete {
		t.Fatalf("baseline outcome = %v", plain.Outcome)
	}
	for _, eng := range engineRuns(m, opts) {
		got := eng.run(context.Background())
		if got.Outcome != plain.Outcome || got.States != plain.States ||
			got.Rules != plain.Rules || got.MaxDepth != plain.MaxDepth {
			t.Errorf("%s with background ctx: %v, want %v", eng.name, got, plain)
		}
	}
	// A nil context is treated as background.
	if got := CheckCtx(nil, m, opts); got.States != plain.States {
		t.Errorf("nil ctx: states %d, want %d", got.States, plain.States)
	}
}

// TestPreCanceledContext pins that an already-canceled context stops
// every engine almost immediately with Outcome Canceled and a Message
// carrying the context error.
func TestPreCanceledContext(t *testing.T) {
	m := &counter{n: 1_000_000, branch: true, bad: -1, quiet: 999_999, errAt: -1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range engineRuns(m, Options{DisableTraces: true}) {
		res := eng.run(ctx)
		if res.Outcome != Canceled {
			t.Fatalf("%s: outcome = %v, want Canceled", eng.name, res.Outcome)
		}
		if res.Message != context.Canceled.Error() {
			t.Errorf("%s: message = %q", eng.name, res.Message)
		}
		// The initial state may be stored before the first poll, but
		// the search must not have gone meaningfully further.
		if res.States > 8 {
			t.Errorf("%s: stored %d states after pre-cancel", eng.name, res.States)
		}
		if !res.Stats.Final {
			t.Errorf("%s: final snapshot not marked Final", eng.name)
		}
	}
}

// TestCancelStopsPromptly cancels mid-search and requires every
// engine to return Canceled well before the state space (which would
// take minutes with the per-expansion delay) is exhausted.
func TestCancelStopsPromptly(t *testing.T) {
	m := &slowCounter{
		counter: counter{n: 1_000_000, branch: true, bad: -1, quiet: 999_999, errAt: -1},
		delay:   200 * time.Microsecond,
	}
	for _, eng := range engineRuns(m, Options{DisableTraces: true}) {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan Result, 1)
		go func() { done <- eng.run(ctx) }()
		time.Sleep(20 * time.Millisecond)
		cancel()
		select {
		case res := <-done:
			if res.Outcome != Canceled {
				t.Fatalf("%s: outcome = %v, want Canceled", eng.name, res.Outcome)
			}
			if res.States == 0 || res.States >= m.n {
				t.Errorf("%s: states = %d, want partial progress", eng.name, res.States)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: did not stop within 10s of cancel", eng.name)
		}
	}
}

// TestDeadlineExpiry pins that a context deadline (the serving
// layer's per-job deadline) surfaces as Canceled too.
func TestDeadlineExpiry(t *testing.T) {
	m := &slowCounter{
		counter: counter{n: 1_000_000, branch: true, bad: -1, quiet: 999_999, errAt: -1},
		delay:   100 * time.Microsecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	res := CheckCtx(ctx, m, Options{DisableTraces: true})
	if res.Outcome != Canceled {
		t.Fatalf("outcome = %v, want Canceled", res.Outcome)
	}
	if res.Message != context.DeadlineExceeded.Error() {
		t.Errorf("message = %q", res.Message)
	}
}

// TestCanceledTag pins the artifact tag of the new outcome.
func TestCanceledTag(t *testing.T) {
	if got := Canceled.Tag(); got != "canceled" {
		t.Fatalf("Canceled.Tag() = %q", got)
	}
}

// TestPipelineWorkersExit pins that no pipeline worker outlives its
// search, however the search ends: complete, bounded, at a violation, or
// canceled (here from the loop's own progress callback, mid-search).
func TestPipelineWorkersExit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stopAt := func(s Snapshot) {
		if s.States >= 200 {
			cancel()
		}
	}
	for _, tc := range []struct {
		name string
		ctx  context.Context
		m    Model
		opts Options
		want Outcome
	}{
		{"complete", context.Background(), &counter{n: 3000, branch: true, bad: -1, quiet: 2999, errAt: -1}, Options{}, Complete},
		{"bounded", context.Background(), &counter{n: 3000, branch: true, bad: -1, quiet: 2999, errAt: -1}, Options{MaxStates: 1000}, Bounded},
		{"violation", context.Background(), &counter{n: 3000, branch: true, bad: -1, quiet: 2999, errAt: 1500}, Options{}, Violation},
		{"canceled", ctx, &counter{n: 3000, branch: true, bad: -1, quiet: 2999, errAt: -1},
			Options{Progress: stopAt, ProgressEvery: 50}, Canceled},
	} {
		before := runtime.NumGoroutine()
		if res := CheckPipelinedCtx(tc.ctx, tc.m, tc.opts, 4); res.Outcome != tc.want {
			t.Fatalf("%s: %v, want %v", tc.name, res, tc.want)
		}
		// A worker is counted until it has returned, a moment after the
		// search's wait on it ends.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the search, %d before", tc.name, runtime.NumGoroutine(), before)
			}
		}
	}
}
