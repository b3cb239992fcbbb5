package dist_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"minvn/internal/dist"
	"minvn/internal/mc"
)

// TestDistAllocsPerState is the ceiling on what a distributed search
// allocates per stored state — coordinator, transport and both workers,
// all in this process — so the workers' copy-only-what-is-stored path
// cannot silently erode. Counts read off the allocator, so they hold on
// a loaded box. Over HTTP the mallocs ceiling is 1.2x what the code made
// when it was set (1.45 mallocs per state, nearly all of them the
// per-level control calls and per-batch requests), against 6.46 when
// every generated successor was an exact-size copy of its own; in
// process, with no JSON and no requests, it is 1.2x the 0.20 measured
// when the in-process fleet replaced the one served over HTTP on
// 127.0.0.1. The bytes ceilings are 1.15x what the code allocated once
// a batch was framed in place in a recycled buffer, read into one and
// decoded into reused slices (182 B in process, 308 B over HTTP, each
// with two 256 KiB raw caches in it), against 270 and 531 B when every
// batch was copied into a new frame, read into a new body and split
// into new slice headers.
func TestDistAllocsPerState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	for _, tc := range []struct {
		transport string
		ceiling   float64 // mallocs per stored state
		bytes     float64 // bytes allocated per stored state
	}{{"in-process", 0.24, 210}, {"http", 1.75, 355}} {
		t.Run(tc.transport, func(t *testing.T) {
			job := dist.Job{Config: minimalConfig(t, "CXL_cache", 3, 1, 1), Options: mc.Options{DisableTraces: true}}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := onFleet(t, tc.transport, job, 2)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome != mc.Complete || res.States != 44_719 {
				t.Fatalf("unexpected run: %v", res)
			}
			mallocs := float64(after.Mallocs-before.Mallocs) / float64(res.States)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.States)
			t.Logf("%.3f mallocs, %.0f B allocated per stored state", mallocs, bytes)
			if mallocs > tc.ceiling {
				t.Errorf("%.3f mallocs per stored state, ceiling %.3f", mallocs, tc.ceiling)
			}
			if bytes > tc.bytes {
				t.Errorf("%.0f B allocated per stored state, ceiling %.0f", bytes, tc.bytes)
			}
		})
	}
}

// TestDistFrontierBytes pins what a worker counts beside its visited set
// (Health.FrontierBytes: its state-log chunks, raw cache and frontier
// frames)
// and that the coordinator's merged report is the workers' sum, read off
// each worker's last settle response on the wire.
func TestDistFrontierBytes(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	reported := make([]int64, 2)
	var peers []string
	for i := range reported {
		i, h := i, dist.NewWorker().Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/dist/v1/settle" {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var out struct {
				Stats struct {
					Health struct {
						FrontierBytes int64 `json:"frontier_bytes"`
					} `json:"health"`
				} `json:"stats"`
			}
			if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &out) == nil {
				mu.Lock()
				reported[i] = out.Stats.Health.FrontierBytes
				mu.Unlock()
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		}))
		t.Cleanup(srv.Close)
		peers = append(peers, srv.URL)
	}
	res, err := dist.Check(context.Background(), dist.Job{
		Config:  minimalConfig(t, "CXL_cache", 3, 1, 1),
		Options: mc.Options{MaxDepth: 20, DisableTraces: true},
		Peers:   peers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != mc.Bounded || res.Stats.Frontier == 0 {
		t.Fatalf("unexpected run: %v, frontier %d", res, res.Stats.Frontier)
	}
	merged := res.Stats.Health.FrontierBytes
	t.Logf("frontier bytes %v, merged %d, %d states in the frontier", reported, merged, res.Stats.Frontier)
	for i, b := range reported {
		if b <= 0 {
			t.Errorf("worker %d reported %d frontier bytes", i, b)
		}
	}
	if merged != reported[0]+reported[1] {
		t.Errorf("merged frontier bytes %d, workers reported %v", merged, reported)
	}
}
