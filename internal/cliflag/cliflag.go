// Package cliflag registers the flags the repo's CLIs share, each
// exactly once, so a flag means the same thing in every tool.
//
// Search (search.go) is the verification half: the flags that describe
// a model-checking run parse straight into a dist.Spec, the one
// description dist.Spec.Resolve turns into a search. A command states
// its defaults, registers the subset it offers, and resolves; it never
// parses an engine name, switches on a VN mode or fills in a
// machine.Config itself. The -engines/-stores list parser, the -file
// loader, and the exit-status rule (Fail) live here too.
//
// Telemetry (this file) is the observation half: live progress, the
// run record's two sinks (-stats-json file, -ledger history; see
// Record), pprof, the flight recorder, per-VN occupancy profiling, and
// the -peers worker fleet. Each command registers the subset it
// supports and gets one Telemetry value with the helpers that turn the
// parsed knobs into mc.Options wiring.
package cliflag

import (
	"flag"
	"fmt"
	"io"
	"time"

	"minvn/internal/mc"
	"minvn/internal/obs"
	"minvn/internal/obs/ledger"
	"minvn/internal/obs/trace"
)

// Flags selects which telemetry flags Register defines.
type Flags uint

const (
	// FlagProgress defines -progress, -progress-every, and
	// -progress-interval.
	FlagProgress Flags = 1 << iota
	// FlagStatsJSON defines -stats-json.
	FlagStatsJSON
	// FlagPprof defines -pprof.
	FlagPprof
	// FlagTrace defines -trace-out, -trace-lane-cap, and -trace-sample.
	FlagTrace
	// FlagOccupancy defines -occupancy.
	FlagOccupancy
	// FlagLedger defines -ledger.
	FlagLedger
	// FlagDist defines -peers, the worker fleet for -engine dist.
	FlagDist

	// FlagAll registers the whole set.
	FlagAll = FlagProgress | FlagStatsJSON | FlagPprof | FlagTrace | FlagOccupancy | FlagLedger | FlagDist
)

// Telemetry carries the parsed telemetry knobs for one command.
type Telemetry struct {
	Progress         bool
	ProgressEvery    int
	ProgressInterval time.Duration

	StatsJSON string
	Ledger    string
	PprofAddr string

	TraceOut     string
	TraceLaneCap int
	TraceSample  int

	Occupancy bool

	// PeerList is the raw -peers value (comma-separated base URLs of
	// vnworkerd daemons); see Peers.
	PeerList string

	rec *trace.Recorder
}

// Register defines the selected telemetry flags on fs and returns the
// Telemetry they parse into.
func Register(fs *flag.FlagSet, which Flags) *Telemetry {
	t := &Telemetry{}
	if which&FlagProgress != 0 {
		fs.BoolVar(&t.Progress, "progress", false, "print live search progress to stderr")
		fs.IntVar(&t.ProgressEvery, "progress-every", 50_000, "progress snapshot every N stored states")
		fs.DurationVar(&t.ProgressInterval, "progress-interval", 5*time.Second, "progress snapshot every wall-clock interval (0 = count-only)")
	}
	if which&FlagStatsJSON != 0 {
		fs.StringVar(&t.StatsJSON, "stats-json", "", "write this run's record (the document -ledger appends) to this file as indented JSON")
	}
	if which&FlagPprof != 0 {
		fs.StringVar(&t.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	}
	if which&FlagTrace != 0 {
		fs.StringVar(&t.TraceOut, "trace-out", "", "record a flight-recorder trace of the run and write Chrome trace JSON (Perfetto-loadable) to this file")
		fs.IntVar(&t.TraceLaneCap, "trace-lane-cap", 0, "events retained per trace lane (0 = default)")
		fs.IntVar(&t.TraceSample, "trace-sample", 0, "record only every Nth span per lane (0 or 1 = all)")
	}
	if which&FlagOccupancy != 0 {
		fs.BoolVar(&t.Occupancy, "occupancy", false, "aggregate per-VN queue-depth histograms across stored states")
	}
	if which&FlagLedger != 0 {
		fs.StringVar(&t.Ledger, "ledger", "", "append this run's record to the content-addressed run ledger at this path")
	}
	if which&FlagDist != 0 {
		fs.StringVar(&t.PeerList, "peers", "", "comma-separated worker URLs for -engine dist (e.g. http://h1:9410,http://h2:9410); empty runs -workers in-process workers")
	}
	return t
}

// Peers splits -peers into worker base URLs, dropping empty elements
// so trailing commas are harmless. Nil when the flag is unset, which
// tells the distributed coordinator to run in-process workers.
func (t *Telemetry) Peers() []string { return splitList(t.PeerList) }

// Record sends the run's one document to both sinks: the -stats-json
// file (indented) and the -ledger history (one canonical line). An
// unset sink is a no-op, so commands call this unconditionally. Ledger
// dedup is announced rather than hidden: re-recording an identical run
// is normal across replicas.
func (t *Telemetry) Record(rec *ledger.Record, stdout io.Writer) error {
	if t.StatsJSON != "" {
		if err := rec.WriteFile(t.StatsJSON); err != nil {
			return fmt.Errorf("stats-json: %w", err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", t.StatsJSON)
	}
	if t.Ledger == "" {
		return nil
	}
	l, err := ledger.Open(t.Ledger)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	defer l.Close()
	id, dup, err := l.Append(rec)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if dup {
		fmt.Fprintf(stdout, "ledger: %s already recorded (%s)\n", id[:12], t.Ledger)
	} else {
		fmt.Fprintf(stdout, "ledger: recorded %s (%s)\n", id[:12], t.Ledger)
	}
	return nil
}

// StartPprof serves net/http/pprof when -pprof was given, announcing
// the URL on stderr. A no-op otherwise.
func (t *Telemetry) StartPprof(stderr io.Writer) error {
	if t.PprofAddr == "" {
		return nil
	}
	addr, err := obs.ServePprof(t.PprofAddr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "pprof: http://%s/debug/pprof/\n", addr)
	return nil
}

// Configure wires progress reporting and the flight recorder into a
// search's options. Occupancy observers depend on the model and stay
// with the caller (see machine.System.NewOccupancyProfiler).
func (t *Telemetry) Configure(opts *mc.Options, stderr io.Writer) {
	if t.Progress {
		opts.Progress = func(s mc.Snapshot) { fmt.Fprintln(stderr, s) }
		opts.ProgressEvery = t.ProgressEvery
		opts.ProgressInterval = t.ProgressInterval
	}
	if opts.Trace == nil {
		opts.Trace = t.Recorder()
	}
}

// Recorder lazily builds the flight recorder; nil unless -trace-out
// was given, so it can be assigned into mc.Options unconditionally.
func (t *Telemetry) Recorder() *trace.Recorder {
	if t.TraceOut == "" {
		return nil
	}
	if t.rec == nil {
		t.rec = trace.New(trace.Config{
			LaneCapacity: t.TraceLaneCap,
			SampleEvery:  t.TraceSample,
		})
	}
	return t.rec
}

// WriteTrace exports the recorded trace to -trace-out, announcing the
// path on stdout. A no-op when tracing was never turned on.
func (t *Telemetry) WriteTrace(stdout io.Writer) error {
	if t.rec == nil {
		return nil
	}
	if err := t.rec.WriteFile(t.TraceOut); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", t.TraceOut)
	return nil
}
