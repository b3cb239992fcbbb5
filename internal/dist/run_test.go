package dist_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"minvn/internal/dist"
	"minvn/internal/machine"
	"minvn/internal/mc"
)

// TestRunDispatch pins the one engine switch: in-process engines never
// touch a worker, EngineDist always does (it is never answered by an
// in-process substitute), every engine — auto at one worker and at
// several too — reports the same search, with the same rule count and
// the same occupancy profile in the same place, and what dist cannot do
// is a typed error rather than a fallback.
func TestRunDispatch(t *testing.T) {
	var hits atomic.Int64
	worker := dist.NewWorker().Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		worker.ServeHTTP(w, r)
	}))
	defer hs.Close()

	cfg := minimalConfig(t, "MSI_nonblocking_cache", 2, 1, 1)
	job := dist.Job{
		Config:  cfg,
		Options: mc.Options{DisableTraces: true},
		Workers: 2, Peers: []string{hs.URL},
		Occupancy: true,
	}
	ctx := context.Background()

	var ref mc.Result
	for _, tc := range []struct {
		engine   dist.Engine
		workers  int
		wantDist bool
	}{
		{dist.EngineSeq, 2, false}, {dist.EngineAuto, 2, false}, {dist.EngineAuto, 1, false},
		{dist.EnginePipeline, 2, false}, {dist.EngineDist, 2, true},
	} {
		hits.Store(0)
		job.Engine, job.Workers = tc.engine, tc.workers
		res, err := dist.Run(ctx, job)
		if err != nil {
			t.Fatalf("%v: %v", tc.engine, err)
		}
		if got := hits.Load() > 0; got != tc.wantDist {
			t.Fatalf("%v: worker requests = %d, want distributed = %v", tc.engine, hits.Load(), tc.wantDist)
		}
		if occ := res.Stats.Occupancy; occ == nil || occ.StatesObserved != int64(res.States) {
			t.Fatalf("%v: Stats.Occupancy = %+v, want the profile of all %d states", tc.engine, occ, res.States)
		}
		if tc.engine == dist.EngineSeq {
			ref = res
			if ref.Outcome != mc.Complete {
				t.Fatalf("reference run: %v", ref)
			}
			continue
		}
		if res.Outcome != ref.Outcome || res.States != ref.States || res.MaxDepth != ref.MaxDepth {
			t.Fatalf("%v: %v vs seq %v", tc.engine, res, ref)
		}
		if !tc.wantDist && res.Rules != ref.Rules {
			t.Fatalf("%v at %d workers: %d rules vs seq %d", tc.engine, tc.workers, res.Rules, ref.Rules)
		}
		if !res.Stats.Occupancy.Equal(ref.Stats.Occupancy) {
			t.Fatalf("%v: occupancy %+v vs seq %+v", tc.engine, res.Stats.Occupancy, ref.Stats.Occupancy)
		}
	}

	// Seeds: honored in-process, a typed refusal on dist.
	sys, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sys.Successors(sys.Initial()[0])
	if err != nil || len(first) == 0 {
		t.Fatalf("no successor to seed from: %v", err)
	}
	seededJob := job
	seededJob.Seeds = [][]byte{first[0]}
	seededJob.Engine = dist.EngineSeq
	seeded, err := dist.Run(ctx, seededJob)
	if err != nil || seeded.Stats.DepthHistogram[0] != 1 || seeded.States > ref.States {
		t.Fatalf("seeded seq run: %v, %v", seeded, err)
	}
	seededJob.Engine = dist.EngineDist
	dfs := job
	dfs.Options.Strategy = mc.DFS
	dfs.Engine = dist.EngineDist
	for name, refused := range map[string]dist.Job{"seeds": seededJob, "dfs": dfs} {
		hits.Store(0)
		_, err := dist.Run(ctx, refused)
		var re *dist.RequestError
		if !errors.As(err, &re) {
			t.Errorf("%s on dist: err = %v, want *RequestError", name, err)
		}
		if hits.Load() != 0 {
			t.Errorf("%s on dist: refused request still reached a worker", name)
		}
	}
	// DFS in-process is fine on any engine (it runs sequentially).
	dfs.Engine = dist.EnginePipeline
	if res, err := dist.Run(ctx, dfs); err != nil || res.States != ref.States {
		t.Errorf("in-process DFS: %v, %v", res, err)
	}
}

func TestParseEngine(t *testing.T) {
	for s, want := range map[string]dist.Engine{
		"": dist.EngineAuto, "auto": dist.EngineAuto, "seq": dist.EngineSeq, "sequential": dist.EngineSeq,
		"pipeline": dist.EnginePipeline, "pipelined": dist.EnginePipeline,
		"dist": dist.EngineDist, "distributed": dist.EngineDist,
	} {
		got, err := dist.ParseEngine(s)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v", s, got, err)
		}
	}
	// The removed level-barrier engine's names are errors like any other
	// unknown name, and the error lists what remains.
	for _, s := range []string{"bogus", "levels", "parallel"} {
		_, err := dist.ParseEngine(s)
		if err == nil {
			t.Errorf("ParseEngine accepted %q", s)
			continue
		}
		for _, want := range []string{"auto", "seq", "pipeline", "dist"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("ParseEngine(%q) error %q does not name %q", s, err, want)
			}
		}
	}
}
