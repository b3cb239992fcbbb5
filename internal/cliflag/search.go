package cliflag

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"minvn/internal/dist"
	"minvn/internal/mc"
	"minvn/internal/protocol"
	"minvn/internal/protocols"
)

// SearchFlags selects which verification flags Search.Register defines.
type SearchFlags uint

const (
	// SearchSystem defines -caches, -dirs, -addrs, and -max-states.
	SearchSystem SearchFlags = 1 << iota
	// SearchVN defines -file, -vn, -strategy, -no-repl, and -seed-owned.
	SearchVN
	// SearchL2s defines -l2s.
	SearchL2s
	// SearchNet defines -max-depth, -gcap, -lcap, -p2p, -no-symmetry,
	// -invariants, and -trace.
	SearchNet
	// SearchEngine defines -engine and -store.
	SearchEngine
	// SearchMatrix defines -engines and -stores.
	SearchMatrix
	// SearchWorkers defines -workers.
	SearchWorkers
)

// Search is the one registration of the verification flags: a command
// fills in its defaults, registers the subset it supports, and after
// parsing holds the dist.Spec its user asked for. Like the flag
// package's XxxVar functions, the value carries the defaults in and
// the parsed values out.
type Search struct {
	dist.Spec
	// File is -file: the protocol argument names a JSON protocol file
	// (see LoadProtocol).
	File bool
	// Engines and Stores are the raw -engines / -stores lists of the
	// matrix tools (see Matrix).
	Engines, Stores string

	which SearchFlags
}

// p2pFlag parses -p2p into Spec.P2P: a variant selects ordered mode, a
// negative value (the default, shown as -1) the unordered one.
type p2pFlag struct{ dst **int }

func (f p2pFlag) String() string {
	switch {
	case f.dst == nil:
		return ""
	case *f.dst == nil:
		return "-1"
	}
	return strconv.Itoa(**f.dst)
}

func (f p2pFlag) Set(s string) error {
	v, err := strconv.Atoi(s)
	if err != nil {
		return err
	}
	*f.dst = nil
	if v >= 0 {
		*f.dst = &v
	}
	return nil
}

// Register defines the selected flags on fs, defaulting to s's current
// values, and parses them into s.
func (s *Search) Register(fs *flag.FlagSet, which SearchFlags) {
	s.which = which
	if which&SearchSystem != 0 {
		fs.IntVar(&s.Caches, "caches", s.Caches, "number of caches (paper: 3)")
		fs.IntVar(&s.Dirs, "dirs", s.Dirs, "number of directories (paper: 2)")
		fs.IntVar(&s.Addrs, "addrs", s.Addrs, "number of addresses (paper: 2)")
		fs.IntVar(&s.MaxStates, "max-states", s.MaxStates, "bounded model checking: state limit per run (0 = none)")
	}
	if which&SearchVN != 0 {
		fs.BoolVar(&s.File, "file", s.File, "treat the argument as a JSON protocol file")
		fs.StringVar(&s.VN, "vn", s.VN, "VN assignment: minimal | permsg | uniform | type")
		fs.StringVar(&s.Strategy, "strategy", s.Strategy, "search order: bfs | dfs (dfs finds deep deadlocks cheaply)")
		fs.BoolVar(&s.NoReplacement, "no-repl", s.NoReplacement, "restrict the workload to loads and stores")
		fs.BoolVar(&s.SeedOwned, "seed-owned", s.SeedOwned, "seed the search with the Fig. 3 ownership prefix (caches 0 and 1 owning addresses 0 and 1)")
	}
	if which&SearchL2s != 0 {
		fs.IntVar(&s.L2s, "l2s", s.L2s, "L2 clusters for two-level protocols (0 = 1 when the protocol is two-level)")
	}
	if which&SearchNet != 0 {
		fs.IntVar(&s.MaxDepth, "max-depth", s.MaxDepth, "bounded model checking: depth limit (0 = none)")
		fs.IntVar(&s.GlobalCap, "gcap", s.GlobalCap, "global buffer capacity (0 = paper default: never blocks sends)")
		fs.IntVar(&s.LocalCap, "lcap", s.LocalCap, "endpoint input FIFO capacity (0 = paper default)")
		fs.Var(p2pFlag{&s.P2P}, "p2p", "point-to-point ordered mode with mapping variant 0-3 (-1 = unordered)")
		fs.BoolVar(&s.NoSymmetry, "no-symmetry", s.NoSymmetry, "disable cache symmetry reduction")
		fs.BoolVar(&s.Invariants, "invariants", s.Invariants, "check SWMR/bookkeeping invariants on every state")
		fs.BoolVar(&s.Traces, "trace", s.Traces, "print the counterexample trace on deadlock/violation")
	}
	if which&SearchEngine != 0 {
		fs.StringVar(&s.Engine, "engine", s.Engine, "search engine: auto | seq | pipeline | dist (parallel/distributed are BFS only)")
		fs.StringVar(&s.Store, "store", s.Store, "visited-set mode: exact | compact (hash-compacted)")
	}
	if which&SearchMatrix != 0 {
		fs.StringVar(&s.Engines, "engines", s.Engines, "comma-separated engines to cross-check (seq, pipeline)")
		fs.StringVar(&s.Stores, "stores", s.Stores, "comma-separated visited-set modes to cross-check (exact, compact)")
	}
	if which&SearchWorkers != 0 {
		fs.IntVar(&s.Workers, "workers", s.Workers, "workers for the parallel engines (0 = GOMAXPROCS; BFS only)")
	}
}

// Params records the registered flags' values under the run-record key
// names dist.Job.Params uses — the tool-level parameters of a matrix
// tool, whose record covers many resolved jobs.
func (s *Search) Params() map[string]any {
	p := map[string]any{}
	if s.which&SearchSystem != 0 {
		p["caches"], p["dirs"], p["addrs"], p["max_states"] = s.Caches, s.Dirs, s.Addrs, s.MaxStates
	}
	if s.which&SearchEngine != 0 {
		p["engine"], p["store"] = s.Engine, s.Store
	}
	if s.which&SearchMatrix != 0 {
		p["engines"], p["stores"] = s.Engines, s.Stores
	}
	if s.which&SearchWorkers != 0 {
		p["workers"] = s.Workers
	}
	return p
}

// Matrix parses -engines and -stores into the engine × store matrix a
// tool cross-checks. The distributed engine is refused: the agreement
// contract covers state-bounded runs, which it cuts at a level
// boundary. Errors are *dist.RequestError.
func (s *Search) Matrix() ([]mc.Engine, []mc.Store, error) {
	engines, err := parseList(s.Engines, mc.ParseEngine)
	if err != nil {
		return nil, nil, err
	}
	stores, err := parseList(s.Stores, mc.ParseStore)
	if err != nil {
		return nil, nil, err
	}
	if len(engines) == 0 || len(stores) == 0 {
		return nil, nil, dist.RequestErrorf("empty matrix: engines %q, stores %q", s.Engines, s.Stores)
	}
	if slices.Contains(engines, mc.EngineDist) {
		return nil, nil, dist.RequestErrorf("engine dist is not cross-checked here: it applies -max-states at level granularity, so its bounded runs differ from the in-process engines' by design")
	}
	return engines, stores, nil
}

// parseList parses a comma-separated flag value element by element.
func parseList[T any](list string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, name := range splitList(list) {
		v, err := parse(name)
		if err != nil {
			return nil, dist.RequestErrorf("%v", err)
		}
		out = append(out, v)
	}
	return out, nil
}

// splitList splits a comma-separated flag value, dropping empty
// elements so trailing commas are harmless.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// LoadProtocol loads a command's protocol argument: a built-in name,
// or — under -file — a JSON protocol file.
func LoadProtocol(arg string, fromFile bool) (*protocol.Protocol, error) {
	if !fromFile {
		return protocols.Load(arg)
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return nil, err
	}
	return protocol.Decode(data)
}

// Fail reports err on stderr under the tool's name and returns the
// command's exit status for it: 2 (usage) when the request itself was
// at fault (*dist.RequestError), 1 when answering it failed.
func Fail(stderr io.Writer, tool string, err error) int {
	fmt.Fprintf(stderr, "%s: %v\n", tool, err)
	var re *dist.RequestError
	if errors.As(err, &re) {
		return 2
	}
	return 1
}
