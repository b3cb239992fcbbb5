package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// TestTerminalJobRetention: the id map keeps a fixed number of finished
// jobs. After more than maxTerminalJobs completions the oldest job is
// gone from every by-id surface (404, SSE "no such job"), the newest is
// served, and a job that was running all along — with a ?wait=1 client
// blocked on it — is untouched and completes normally, and then no
// longer holds its search.
func TestTerminalJobRetention(t *testing.T) {
	var hold atomic.Bool
	gate, parked := make(chan struct{}), make(chan struct{}, 1)
	srv := New(Config{Workers: 1, BeforeRun: func(ctx context.Context) {
		if hold.Load() {
			park(parked, gate)(ctx)
		}
	}})
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()
	// post returns a zero view on any failure; every caller checks what
	// it got back (the waiter runs off the test goroutine).
	post := func(path, body string) (v JobView) {
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return v
		}
		defer resp.Body.Close()
		json.NewDecoder(resp.Body).Decode(&v)
		return v
	}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	const analyze = `{"protocol":"MSI_nonblocking_cache"}`
	oldest := post("/v1/analyze?wait=1", analyze)
	if oldest.Status != StatusDone {
		t.Fatalf("seed job: %+v", oldest)
	}

	// One job held running, with a waiter blocked on it.
	hold.Store(true)
	waited := make(chan JobView, 1)
	go func() {
		waited <- post("/v1/verify?wait=1", `{"protocol":"MSI_nonblocking_cache","options":{"max_states":2000}}`)
	}()
	awaitParked(parked, 1)

	// Every further analyze is a cache hit: an immediately terminal job
	// that needs no worker.
	var newest JobView
	for i := 0; i < maxTerminalJobs+10; i++ {
		newest = post("/v1/analyze", analyze)
		if !newest.Cached {
			t.Fatalf("flood request %d missed the cache: %+v", i, newest)
		}
	}

	if code, body := get("/v1/jobs/" + oldest.ID); code != http.StatusNotFound || !strings.Contains(body, "no such job") {
		t.Errorf("oldest job after eviction: HTTP %d %s", code, body)
	}
	if _, body := get("/v1/jobs/" + oldest.ID + "/events"); !strings.Contains(body, "no such job") {
		t.Errorf("oldest job's SSE stream after eviction: %s", body)
	}
	if code, _ := get("/v1/jobs/" + newest.ID); code != http.StatusOK {
		t.Errorf("newest job: HTTP %d", code)
	}
	srv.mu.Lock()
	held, retained := len(srv.jobs), len(srv.finished)
	srv.mu.Unlock()
	if retained != maxTerminalJobs || held != maxTerminalJobs+1 {
		t.Errorf("retaining %d terminal ids and %d jobs, want %d and %d (the running one on top)",
			retained, held, maxTerminalJobs, maxTerminalJobs+1)
	}

	close(gate)
	v := <-waited
	if v.Status != StatusDone || len(v.Result) == 0 {
		t.Fatalf("waiter on the running job: %+v", v)
	}
	// A finished job stays addressable, but nothing reads its search or
	// run again: the compiled system goes with them.
	srv.mu.Lock()
	done := srv.jobs[v.ID]
	released := done != nil && done.task.search == nil && done.task.run == nil
	srv.mu.Unlock()
	if !released {
		t.Errorf("finished verify job %s still holds its search or run", v.ID)
	}
}
