package serve

import (
	"context"
	"testing"
)

// park returns a BeforeRun hook that signals parked, then holds the job
// until gate closes. The signal never blocks: a full parked already
// holds every signal a test awaits, so sizing it for those is enough.
func park(parked chan<- struct{}, gate <-chan struct{}) func(context.Context) {
	return func(context.Context) {
		select {
		case parked <- struct{}{}:
		default:
		}
		<-gate
	}
}

// awaitParked returns once n jobs have signalled parked: each of them
// is running and inside BeforeRun, holding its pool slot.
func awaitParked(parked <-chan struct{}, n int) {
	for i := 0; i < n; i++ {
		<-parked
	}
}

// Park and AwaitParked are park and awaitParked for the external tests.
var Park, AwaitParked = park, awaitParked

// TestHitAndJoinUnresolved: a verify request that an in-flight job or
// the cache answers is never resolved — no assignment computed, no
// system built — while the request that ran was, and its counters read
// as they did when every request was resolved first.
func TestHitAndJoinUnresolved(t *testing.T) {
	gate := make(chan struct{})
	parked := make(chan struct{}, 1)
	srv := New(Config{Workers: 1, BeforeRun: park(parked, gate), Logf: func(string, ...any) {}})
	defer srv.Close()
	prepare := func() *task {
		t.Helper()
		tk, err := prepareVerify(VerifyRequest{Protocol: "MSI_nonblocking_cache",
			Options: VerifyOptions{Caches: 2, Dirs: 1, Addrs: 1, MaxStates: 3000}}, srv.cfg.MaxStates, 0)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	unresolved := func(name string, tk *task) {
		t.Helper()
		if tk.search != nil || tk.run != nil {
			t.Errorf("%s was resolved", name)
		}
	}

	cold := prepare()
	first, _, err := srv.Submit(cold)
	if err != nil {
		t.Fatal(err)
	}
	awaitParked(parked, 1)
	if cold.search == nil {
		t.Error("the admitted request was not resolved")
	}

	join := prepare()
	joined, view, err := srv.Submit(join)
	if err != nil || joined != first || view.Cached {
		t.Fatalf("join: job %v (want %v), view %+v, err %v", joined, first, view, err)
	}
	unresolved("the join", join)

	close(gate)
	srv.mu.Lock()
	for !first.terminal() {
		ch := first.events.updated
		srv.mu.Unlock()
		<-ch
		srv.mu.Lock()
	}
	srv.mu.Unlock()

	hit := prepare()
	_, view, err = srv.Submit(hit)
	if err != nil || !view.Cached || view.Status != StatusDone {
		t.Fatalf("hit: view %+v, err %v", view, err)
	}
	unresolved("the hit", hit)

	counters := srv.Stats().Counters
	for name, want := range map[string]int64{
		"serve.requests": 3, "serve.cache_hits": 1, "serve.cache_misses": 2,
		"serve.singleflight_hits": 1, "serve.jobs_done": 1,
	} {
		if counters[name] != want {
			t.Errorf("%s = %d, want %d", name, counters[name], want)
		}
	}
}
