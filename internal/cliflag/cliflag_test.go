package cliflag

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"minvn/internal/dist"
	"minvn/internal/icn"
	"minvn/internal/mc"
	"minvn/internal/obs"
	"minvn/internal/obs/health"
	"minvn/internal/obs/ledger"
	"minvn/internal/obs/trace/tracetest"
	"minvn/internal/protocol"
)

// TestRegisterSubsets: each Flags bit defines exactly its own flags,
// so a command that opts out of (say) occupancy never exposes the
// flag.
func TestRegisterSubsets(t *testing.T) {
	cases := []struct {
		which   Flags
		defined []string
		absent  []string
	}{
		{FlagProgress, []string{"progress", "progress-every", "progress-interval"}, []string{"stats-json", "pprof", "trace-out", "occupancy"}},
		{FlagStatsJSON, []string{"stats-json"}, []string{"progress", "trace-out"}},
		{FlagPprof, []string{"pprof"}, []string{"stats-json"}},
		{FlagTrace, []string{"trace-out", "trace-lane-cap", "trace-sample"}, []string{"occupancy"}},
		{FlagOccupancy, []string{"occupancy"}, []string{"trace-out"}},
		{FlagLedger, []string{"ledger"}, []string{"stats-json"}},
		{FlagAll, []string{"progress", "progress-every", "progress-interval", "stats-json", "pprof", "trace-out", "trace-lane-cap", "trace-sample", "occupancy", "ledger"}, nil},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		Register(fs, tc.which)
		for _, name := range tc.defined {
			if fs.Lookup(name) == nil {
				t.Errorf("Register(%b) missing -%s", tc.which, name)
			}
		}
		for _, name := range tc.absent {
			if fs.Lookup(name) != nil {
				t.Errorf("Register(%b) unexpectedly defines -%s", tc.which, name)
			}
		}
	}
}

func TestParseDefaultsAndValues(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tel := Register(fs, FlagAll)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if tel.Progress || tel.ProgressEvery != 50_000 || tel.ProgressInterval != 5*time.Second {
		t.Errorf("progress defaults: %+v", tel)
	}
	if tel.StatsJSON != "" || tel.PprofAddr != "" || tel.TraceOut != "" || tel.Occupancy {
		t.Errorf("output defaults: %+v", tel)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	tel = Register(fs, FlagAll)
	err := fs.Parse([]string{"-progress", "-progress-every", "10", "-progress-interval", "1s",
		"-stats-json", "s.json", "-trace-out", "t.json", "-trace-lane-cap", "32",
		"-trace-sample", "4", "-occupancy"})
	if err != nil {
		t.Fatal(err)
	}
	if !tel.Progress || tel.ProgressEvery != 10 || tel.ProgressInterval != time.Second ||
		tel.StatsJSON != "s.json" || tel.TraceOut != "t.json" ||
		tel.TraceLaneCap != 32 || tel.TraceSample != 4 || !tel.Occupancy {
		t.Errorf("parsed values: %+v", tel)
	}
}

// TestConfigure: progress wiring only happens when asked for, and the
// recorder is only built when -trace-out was given.
func TestConfigure(t *testing.T) {
	tel := &Telemetry{}
	var opts mc.Options
	tel.Configure(&opts, io.Discard)
	if opts.Progress != nil || opts.Trace != nil {
		t.Errorf("idle telemetry configured something: %+v", opts)
	}
	if tel.Recorder() != nil {
		t.Error("Recorder without -trace-out should be nil")
	}
	if err := tel.WriteTrace(io.Discard); err != nil {
		t.Errorf("WriteTrace without recorder: %v", err)
	}

	var buf bytes.Buffer
	tel = &Telemetry{Progress: true, ProgressEvery: 7, ProgressInterval: time.Minute,
		TraceOut: filepath.Join(t.TempDir(), "trace.json")}
	opts = mc.Options{}
	tel.Configure(&opts, &buf)
	if opts.Progress == nil || opts.ProgressEvery != 7 || opts.ProgressInterval != time.Minute {
		t.Errorf("progress not wired: %+v", opts)
	}
	opts.Progress(mc.Snapshot{States: 5})
	if buf.Len() == 0 {
		t.Error("progress callback wrote nothing")
	}
	if opts.Trace == nil || opts.Trace != tel.Recorder() {
		t.Error("recorder not wired into options")
	}
	// A caller-supplied recorder wins over the flag-built one.
	pre := mc.Options{Trace: opts.Trace}
	tel.Configure(&pre, io.Discard)
	if pre.Trace != opts.Trace {
		t.Error("Configure replaced a caller-supplied recorder")
	}
}

// TestWriteTrace runs a real checked search through the flag-built
// recorder and validates the exported file as Chrome trace JSON.
func TestWriteTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	tel := &Telemetry{TraceOut: path}
	lane := tel.Recorder().Lane("test-lane")
	sp := lane.Start("work")
	sp.End()
	lane.Instant("done")

	var out bytes.Buffer
	if err := tel.WriteTrace(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), path) {
		t.Errorf("WriteTrace did not announce the path: %q", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events := tracetest.Validate(t, data)
	if len(tracetest.Named(events, "work")) == 0 {
		t.Errorf("exported trace misses the recorded span")
	}
}

// TestRecordSinks: a run has one document. Both sinks write the same
// ledger.Record — the -stats-json file decodes to a record whose
// canonical encoding is the -ledger line byte for byte (so both carry
// one content address), nothing typed is lost on the way (the health
// report above all: vnstats compare reasons over it), a re-recorded
// identical run dedups, and unset sinks are no-ops.
func TestRecordSinks(t *testing.T) {
	snap := mc.Snapshot{
		Strategy: "pipeline", Store: "compact",
		ElapsedSeconds: 1.25, States: 20000, Frontier: 12, MaxDepth: 7,
		Expansions: 41000, Generated: 120000, DedupHits: 79000,
		DedupHitRate: 0.65, StatesPerSec: 16000,
		DepthHistogram: []int64{1, 8, 64, 512},
		RuleFirings:    map[string]int64{"core/load": 9000, "deliver/vn0": 15000},
		HeapBytes:      64 << 20,
		Health: &health.Report{
			Stripes:         4,
			StripeOccupancy: []int64{5000, 5001, 4999, 5000},
			StripeDedupHits: []int64{100, 90, 110, 95},
			OccMin:          4999, OccMax: 5001, OccMean: 5000, OccCV: 0.00014,
			ArenaBytes: 1 << 20, SetBytes: 2 << 20, UnverifiedHits: 3,
			ReorderStalls: 2, ReorderMax: 9,
			Workers: []health.WorkerStats{
				{Worker: 0, Batches: 10, States: 10000, ExpandNS: 600_000_000, QueueWaitNS: 50_000_000, SendWaitNS: 1_000_000},
				{Worker: 1, Batches: 11, States: 10000, ExpandNS: 610_000_000, QueueWaitNS: 40_000_000, SendWaitNS: 2_000_000},
			},
		},
		Occupancy: &icn.OccupancyStats{
			StatesObserved: 20000, GlobalCap: 2, LocalCap: 2, GlobalHighWater: 2, LocalHighWater: 1,
		},
		Final: true,
	}
	tl := &obs.Timeline{}
	tl.Time("mc/check", func() {})
	tl.Time("mc/check", func() {})

	cases := []struct {
		name  string
		build func() *ledger.Record
	}{
		{"typed snapshot", func() *ledger.Record {
			rec := ledger.New("vnverify")
			rec.Params["protocol"] = "MSI"
			rec.Outcome = "bounded"
			rec.Snapshot = &snap
			rec.Stages = tl.Summaries()
			rec.Extra = map[string]any{"message": "bound reached"}
			return rec
		}},
		{"extra metrics only", func() *ledger.Record {
			rec := ledger.New("vnsweep")
			rec.Outcome = "ok"
			rec.Extra = map[string]any{"metrics": map[string]any{"rows": 30, "disagree": 0}}
			return rec
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tel := &Telemetry{StatsJSON: filepath.Join(dir, "stats.json"), Ledger: filepath.Join(dir, "ledger.jsonl")}
			rec := tc.build()
			if rec.Created == "" || rec.Provenance.GoVersion == "" {
				t.Fatalf("ledger.New left the record unstamped: %+v", rec)
			}
			var out bytes.Buffer
			if err := tel.Record(rec, &out); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"wrote " + tel.StatsJSON, "ledger: recorded"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output lacks %q: %q", want, out.String())
				}
			}

			raw, err := os.ReadFile(tel.StatsJSON)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(raw, []byte("\n  \"tool\": ")) {
				t.Errorf("stats-json is not indented:\n%.200s", raw)
			}
			var back ledger.Record
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			canon, err := back.Encode()
			if err != nil {
				t.Fatal(err)
			}
			line, err := os.ReadFile(tel.Ledger)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(canon, '\n'), line) {
				t.Fatalf("stats-json re-encoded differs from the ledger line:\n%s\n%s", canon, line)
			}

			l, err := ledger.Open(tel.Ledger)
			if err != nil {
				t.Fatal(err)
			}
			entries := l.Entries()
			l.Close()
			if len(entries) != 1 || entries[0].ID != ledger.IDOf(canon) {
				t.Fatalf("ledger entries = %+v, want one with the file's content address", entries)
			}
			if got := entries[0].Record; got.Tool != rec.Tool || got.Outcome != rec.Outcome || !reflect.DeepEqual(got.Stages, rec.Stages) {
				t.Fatalf("record = %+v", got)
			}
			if rec.Snapshot == nil {
				if back.Snapshot != nil {
					t.Fatal("extra metrics mistaken for a snapshot")
				}
				if m, _ := back.Extra["metrics"].(map[string]any); m["rows"] != float64(30) {
					t.Fatalf("extra metrics dropped: %+v", back.Extra)
				}
			} else {
				// Occupancy is declared `any` and comes back generic;
				// everything else must survive bit-exactly.
				occ, _ := back.Snapshot.Occupancy.(map[string]any)
				if occ["states_observed"] != float64(20000) {
					t.Fatalf("occupancy did not round-trip: %+v", back.Snapshot.Occupancy)
				}
				want := snap
				want.Occupancy, back.Snapshot.Occupancy = nil, nil
				if !reflect.DeepEqual(*back.Snapshot, want) {
					t.Fatalf("snapshot did not round-trip:\ngot  %+v\nwant %+v", *back.Snapshot, want)
				}
				if sum := back.Stages; len(sum) != 1 || sum[0].Name != "mc/check" || sum[0].Count != 2 {
					t.Fatalf("stages = %+v, want one mc/check summary of 2 runs", sum)
				}
			}

			// Recording the identical record again dedups; Created is
			// part of the record, so reuse it verbatim.
			out.Reset()
			if err := tel.Record(rec, &out); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), "already recorded") {
				t.Fatalf("dedup not announced: %q", out.String())
			}
			if again, _ := os.ReadFile(tel.Ledger); !bytes.Equal(again, line) {
				t.Fatal("ledger grew on a duplicate append")
			}

			// Unset sinks are no-ops, so commands record unconditionally.
			out.Reset()
			if err := (&Telemetry{}).Record(rec, &out); err != nil || out.Len() != 0 {
				t.Fatalf("no-op Record: err=%v output=%q", err, out.String())
			}
		})
	}
}

// TestSearchRegisterSubsets: each SearchFlags bit defines exactly its
// own flags, with the command's defaults as the flag defaults.
func TestSearchRegisterSubsets(t *testing.T) {
	all := map[SearchFlags][]string{
		SearchSystem:  {"caches", "dirs", "addrs", "max-states"},
		SearchVN:      {"file", "vn", "strategy", "no-repl", "seed-owned"},
		SearchL2s:     {"l2s"},
		SearchNet:     {"max-depth", "gcap", "lcap", "p2p", "no-symmetry", "invariants", "trace"},
		SearchEngine:  {"engine", "store"},
		SearchMatrix:  {"engines", "stores"},
		SearchWorkers: {"workers"},
	}
	for which, defined := range all {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		s := Search{Spec: dist.Spec{Caches: 3, MaxStates: 77, VN: "permsg", SeedOwned: true, Workers: 2},
			Engines: "seq", Stores: "exact"}
		s.Register(fs, which)
		n := 0
		fs.VisitAll(func(*flag.Flag) { n++ })
		if n != len(defined) {
			t.Errorf("Register(%b) defines %d flags, want %d", which, n, len(defined))
		}
		for _, name := range defined {
			if fs.Lookup(name) == nil {
				t.Errorf("Register(%b) missing -%s", which, name)
			}
		}
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := Search{Spec: dist.Spec{Caches: 3, MaxStates: 77, VN: "permsg", SeedOwned: true}, Engines: "seq,pipeline"}
	s.Register(fs, SearchSystem|SearchVN|SearchNet|SearchMatrix)
	for name, def := range map[string]string{
		"caches": "3", "max-states": "77", "vn": "permsg", "seed-owned": "true",
		"p2p": "-1", "engines": "seq,pipeline", "dirs": "0",
	} {
		if got := fs.Lookup(name).DefValue; got != def {
			t.Errorf("-%s default = %q, want %q", name, got, def)
		}
	}
}

// TestSearchParse: parsed values land in the spec; -p2p maps its
// "negative = unordered" convention onto the spec's optional variant.
func TestSearchParse(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := Search{Spec: dist.Spec{VN: "minimal", MaxStates: 100}}
	s.Register(fs, SearchSystem|SearchVN|SearchL2s|SearchNet|SearchEngine|SearchWorkers)
	err := fs.Parse([]string{"-caches", "4", "-vn", "uniform", "-strategy", "dfs", "-no-repl",
		"-seed-owned", "-file", "-l2s", "2", "-max-depth", "9", "-gcap", "5", "-lcap", "6", "-p2p", "2",
		"-no-symmetry", "-invariants", "-trace", "-engine", "pipeline", "-store", "compact",
		"-workers", "3"})
	if err != nil {
		t.Fatal(err)
	}
	two := 2
	want := dist.Spec{VN: "uniform", Caches: 4, Strategy: "dfs", MaxStates: 100, MaxDepth: 9,
		GlobalCap: 5, LocalCap: 6, P2P: &two, NoReplacement: true, NoSymmetry: true, Invariants: true,
		Engine: "pipeline", Store: "compact", Workers: 3, L2s: 2, SeedOwned: true, Traces: true}
	if !reflect.DeepEqual(s.Spec, want) || !s.File {
		t.Errorf("parsed spec = %+v (file %v)\nwant          %+v", s.Spec, s.File, want)
	}
	if err := fs.Parse([]string{"-p2p", "-1"}); err != nil || s.P2P != nil {
		t.Errorf("-p2p -1: P2P = %v, err %v; want unordered", s.P2P, err)
	}
	if err := fs.Parse([]string{"-p2p", "x"}); err == nil {
		t.Error("-p2p x parsed")
	}
}

// TestSearchMatrix: the one -engines/-stores parser. Every fault is a
// request error, so every matrix tool exits 2 on it.
func TestSearchMatrix(t *testing.T) {
	s := Search{Engines: " seq, pipeline,, ", Stores: "exact,compact,"}
	engs, sts, err := s.Matrix()
	if err != nil || !reflect.DeepEqual(engs, []mc.Engine{mc.EngineSeq, mc.EnginePipeline}) ||
		!reflect.DeepEqual(sts, []mc.Store{mc.StoreExact, mc.StoreCompact}) {
		t.Errorf("Matrix = %v, %v, %v", engs, sts, err)
	}
	for name, s := range map[string]Search{
		"dist, whose bounded runs stop at a level boundary": {Engines: "seq,dist", Stores: "exact"},
		"unknown engine": {Engines: "levels", Stores: "exact"},
		"unknown store":  {Engines: "seq", Stores: "bogus"},
		"no engines":     {Engines: " , ", Stores: "exact"},
		"no stores":      {Engines: "seq"},
	} {
		_, _, err := s.Matrix()
		if err == nil || Fail(io.Discard, "test", err) != 2 {
			t.Errorf("%s: err = %v, want a request error (exit 2)", name, err)
		}
	}
	var stderr bytes.Buffer
	if Fail(&stderr, "vnx", io.ErrUnexpectedEOF) != 1 || stderr.String() != "vnx: unexpected EOF\n" {
		t.Errorf("a failure while answering must exit 1 and be reported; stderr %q", stderr.String())
	}
}

// TestSearchParams: a matrix tool's artifact records exactly the flags
// it registered (here vnfuzz's set), under dist.Job.Params' key names.
func TestSearchParams(t *testing.T) {
	s := Search{Spec: dist.Spec{Caches: 3, Dirs: 2, Addrs: 2, MaxStates: 20000, Workers: 4},
		Engines: "seq,pipeline", Stores: "exact,compact"}
	s.Register(flag.NewFlagSet("vnfuzz", flag.ContinueOnError), SearchSystem|SearchMatrix|SearchWorkers)
	want := map[string]any{"caches": 3, "dirs": 2, "addrs": 2, "max_states": 20000,
		"workers": 4, "engines": "seq,pipeline", "stores": "exact,compact"}
	if got := s.Params(); !reflect.DeepEqual(got, want) {
		t.Errorf("Params = %v, want %v", got, want)
	}
	e := Search{Spec: dist.Spec{Engine: "auto", Store: "exact"}}
	e.Register(flag.NewFlagSet("vntable", flag.ContinueOnError), SearchEngine)
	if got := e.Params(); !reflect.DeepEqual(got, map[string]any{"engine": "auto", "store": "exact"}) {
		t.Errorf("Params = %v", got)
	}
}

func TestLoadProtocol(t *testing.T) {
	p, err := LoadProtocol("MSI_nonblocking_cache", false)
	if err != nil {
		t.Fatal(err)
	}
	data, err := protocol.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if q, err := LoadProtocol(path, true); err != nil || q.Name != p.Name {
		t.Errorf("from file: %v, %v", q, err)
	}
	if _, err := LoadProtocol(path, false); err == nil {
		t.Error("a path loaded as a built-in name")
	}
	if _, err := LoadProtocol(filepath.Join(t.TempDir(), "missing.json"), true); !os.IsNotExist(err) {
		t.Errorf("missing file: err = %v", err)
	}
}
