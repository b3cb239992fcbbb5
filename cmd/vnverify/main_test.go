package main

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"minvn/internal/cliflag"
	"minvn/internal/dist"
	"minvn/internal/mc"
	"minvn/internal/protocols"
)

// TestDefaults: with no flags given, vnverify asks what it always has —
// the paper's 3c/2d/2a system under the minimal assignment, BFS without
// traces from the reset state, 2M states, one worker on the sequential
// engine, exact store.
func TestDefaults(t *testing.T) {
	search := defaults
	fs := flag.NewFlagSet("vnverify", flag.ContinueOnError)
	search.Register(fs, cliflag.SearchSystem|cliflag.SearchVN|cliflag.SearchNet|
		cliflag.SearchEngine|cliflag.SearchWorkers)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	fs.SetOutput(io.Discard)
	if err := fs.Parse([]string{"-shards", "8"}); err == nil {
		t.Error("-shards parsed; the visited set has no shard knob")
	}
	job, err := search.Resolve(protocols.MustLoad("MSI_nonblocking_cache"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := dist.Spec{VN: "minimal", Caches: 3, Dirs: 2, Addrs: 2, Strategy: "bfs",
		MaxStates: 2_000_000, Engine: "auto", Store: "exact", Workers: 1}
	if !reflect.DeepEqual(job.Spec, want) {
		t.Errorf("spec = %+v\nwant   %+v", job.Spec, want)
	}
	if job.Engine != mc.EngineAuto || job.Workers != 1 || len(job.Seeds) != 0 ||
		!job.Options.DisableTraces || job.Options.Strategy != mc.BFS || job.Options.MaxStates != 2_000_000 {
		t.Errorf("job: engine %v workers %d seeds %d options %+v", job.Engine, job.Workers, len(job.Seeds), job.Options)
	}
}
