package serve

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func key(b byte) cacheKey {
	var k cacheKey
	k[0] = b
	return k
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	c.add(key(1), []byte("one"), "job-1")
	c.add(key(2), []byte("two"), "job-2")
	// Touch 1 so 2 becomes the eviction victim.
	if _, ok := c.get(key(1)); !ok {
		t.Fatal("key 1 missing")
	}
	c.add(key(3), []byte("three"), "job-3")
	if _, ok := c.get(key(2)); ok {
		t.Error("key 2 survived past capacity despite being LRU")
	}
	if _, ok := c.get(key(1)); !ok {
		t.Error("recently used key 1 was evicted")
	}
	if _, ok := c.get(key(3)); !ok {
		t.Error("newest key 3 missing")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

// TestLRUCacheFirstRunCanonical pins that re-adding a key keeps the
// original bytes: the first completed run's result is canonical.
func TestLRUCacheFirstRunCanonical(t *testing.T) {
	c := newLRUCache(4)
	c.add(key(1), []byte("first"), "job-1")
	c.add(key(1), []byte("second"), "job-9")
	ent, ok := c.get(key(1))
	if !ok || string(ent.result) != "first" || ent.jobID != "job-1" {
		t.Fatalf("entry = %+v, want the first run's bytes", ent)
	}
	if c.len() != 1 {
		t.Errorf("len = %d, want 1", c.len())
	}
}

func TestLRUCacheDisabled(t *testing.T) {
	c := newLRUCache(-1)
	c.add(key(1), []byte("x"), "job-1")
	if _, ok := c.get(key(1)); ok {
		t.Error("disabled cache stored an entry")
	}
}

// TestVerifyKeyIgnoresPerfKnobs pins the cache-key contract: the
// in-process engine, workers, and the deadline never affect the
// key, while every result-affecting option does — which for engine
// "dist" includes the effective fleet size, because its stored-state
// set under symmetry reduction depends on how many workers partition
// the frontier (44,662 / 44,719 / 44,763 states for CXL_cache at
// 3c/1d/1a on 1 / 2 / 3 workers).
func TestVerifyKeyIgnoresPerfKnobs(t *testing.T) {
	const cap = 1_000_000
	base := VerifyRequest{Protocol: "MSI_nonblocking_cache",
		Options: VerifyOptions{MaxStates: 5000}}
	keyOf := func(t *testing.T, req VerifyRequest) cacheKey {
		t.Helper()
		task, err := prepareVerify(req, cap, 0)
		if err != nil {
			t.Fatalf("prepareVerify: %v", err)
		}
		return task.key
	}
	k0 := keyOf(t, base)

	same := base
	same.Options.Engine = "pipeline"
	same.Options.Workers = 7
	same.DeadlineMillis = 12345
	if keyOf(t, same) != k0 {
		t.Error("perf knobs or deadline changed the cache key")
	}

	for name, mutate := range map[string]func(*VerifyRequest){
		"max_states": func(r *VerifyRequest) { r.Options.MaxStates = 6000 },
		"caches":     func(r *VerifyRequest) { r.Options.Caches = 4 },
		"vn mode":    func(r *VerifyRequest) { r.Options.VN = "permsg" },
		"strategy":   func(r *VerifyRequest) { r.Options.Strategy = "dfs" },
		"invariants": func(r *VerifyRequest) { r.Options.Invariants = true },
		"p2p":        func(r *VerifyRequest) { v := 1; r.Options.P2P = &v },
		// Store is deliberately NOT a perf knob: compact can change the
		// outcome class, so exact and compact results must never share a
		// cache entry.
		"store": func(r *VerifyRequest) { r.Options.Store = "compact" },
	} {
		req := base
		mutate(&req)
		if keyOf(t, req) == k0 {
			t.Errorf("%s did not change the cache key", name)
		}
	}

	distKey := func(workers int) cacheKey {
		req := base
		req.Options.Engine, req.Options.Workers = "dist", workers
		return keyOf(t, req)
	}
	if distKey(2) == k0 {
		t.Error("dist shares the in-process engines' cache key")
	}
	if distKey(2) == distKey(3) {
		t.Error("dist fleets of 2 and 3 workers share a cache key")
	}
	// Below one worker the fleet is the host's GOMAXPROCS: the same
	// fleet, asked for two ways, is one cache entry.
	if distKey(0) != distKey(runtime.GOMAXPROCS(0)) {
		t.Error("dist workers=0 is keyed apart from the GOMAXPROCS fleet it runs")
	}

	// The pool's CPU share is a perf knob as well, given when a job
	// starts, after its key (TestPoolShare runs it): the keys are the
	// digests recorded before the share existed, and a dist job's key
	// names its fleet as asked.
	dist2 := base
	dist2.Options.Engine, dist2.Options.Workers = "dist", 2
	dist0 := base
	dist0.Options.Engine = "dist"
	for _, tc := range []struct {
		name   string
		req    VerifyRequest
		digest string
		fleet  int
	}{
		{"in-process", base, "14456a818efc5b6eebab6db2ff3f5506ced3c3902f88191884b31624b35c4e68", 0},
		{"dist/2", dist2, "6f3195bed55fd005a1142eac416d5b48824b9a16b1a7aac5fd0eb3d2770bcf6a", 2},
		{"dist", dist0, "", runtime.GOMAXPROCS(0)},
	} {
		task, err := prepareVerify(tc.req, cap, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tc.digest != "" && fmt.Sprintf("%x", task.key) != tc.digest {
			t.Errorf("%s: cache key %x, want %s", tc.name, task.key, tc.digest)
		}
		if tc.fleet > 0 && !strings.HasSuffix(task.search.Key(), fmt.Sprintf(" engine=dist/%d", tc.fleet)) {
			t.Errorf("%s: Job.Key %q does not name a fleet of %d", tc.name, task.search.Key(), tc.fleet)
		}
	}
	if an, err := prepareAnalyze(AnalyzeRequest{Protocol: "MSI"}); err != nil ||
		fmt.Sprintf("%x", an.key) != "4298326a845d2d9b771819dab267318636c6d89e34a5f7a9b6aa2bca8d20c967" {
		t.Errorf("analyze MSI: cache key moved from its recorded digest (err %v)", err)
	}
}

// TestVerifyKeyClampsMaxStates pins that an unbounded request and an
// explicit request at the server cap share one cache entry.
func TestVerifyKeyClampsMaxStates(t *testing.T) {
	const cap = 10_000
	unbounded, err := prepareVerify(VerifyRequest{Protocol: "MSI_nonblocking_cache"}, cap, 0)
	if err != nil {
		t.Fatal(err)
	}
	atCap, err := prepareVerify(VerifyRequest{Protocol: "MSI_nonblocking_cache",
		Options: VerifyOptions{MaxStates: cap}}, cap, 0)
	if err != nil {
		t.Fatal(err)
	}
	overCap, err := prepareVerify(VerifyRequest{Protocol: "MSI_nonblocking_cache",
		Options: VerifyOptions{MaxStates: cap * 10}}, cap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.key != atCap.key || overCap.key != atCap.key {
		t.Error("clamped max_states requests do not share a cache key")
	}
	// The zero options under the server's defaults: the paper's
	// experiment at the server's bound.
	want := VerifyOptions{VN: "minimal", Caches: 3, Dirs: 2, Addrs: 2, Strategy: "bfs",
		MaxStates: cap, Engine: "auto", Store: "exact"}
	if got := unbounded.search.Spec; !reflect.DeepEqual(got, want) {
		t.Errorf("zero options resolve to %+v, want %+v", got, want)
	}
}

// TestVerifyKeyNormalizesStore pins that the default and an explicit
// "exact" share one cache entry, and that an unknown store is a 400.
func TestVerifyKeyNormalizesStore(t *testing.T) {
	const cap = 10_000
	def, err := prepareVerify(VerifyRequest{Protocol: "MSI_nonblocking_cache"}, cap, 0)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := prepareVerify(VerifyRequest{Protocol: "MSI_nonblocking_cache",
		Options: VerifyOptions{Store: "exact"}}, cap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if def.key != exact.key {
		t.Error("default and explicit exact store do not share a cache key")
	}
	_, err = prepareVerify(VerifyRequest{Protocol: "MSI_nonblocking_cache",
		Options: VerifyOptions{Store: "bogus"}}, cap, 0)
	var re *RequestError
	if !errors.As(err, &re) {
		t.Errorf("bogus store: err = %v, want *RequestError", err)
	}
}

func TestEffectiveDeadline(t *testing.T) {
	const def, max time.Duration = 100, 1000
	cases := []struct{ req, want time.Duration }{
		{0, def},    // unset -> default
		{50, 50},    // shorter than default is honored
		{500, 500},  // between default and max is honored
		{5000, max}, // beyond max is clamped
	}
	for _, tc := range cases {
		if got := effectiveDeadline(tc.req, def, max); got != tc.want {
			t.Errorf("effectiveDeadline(%d) = %d, want %d", tc.req, got, tc.want)
		}
	}
}

func TestRequestErrors(t *testing.T) {
	cases := []AnalyzeRequest{
		{},
		{Protocol: "nope"},
		{Protocol: "MSI", ProtocolSpec: []byte("{}")},
		{ProtocolSpec: []byte("not json")},
	}
	for i, req := range cases {
		_, err := prepareAnalyze(req)
		var re *RequestError
		if !asRequestError(err, &re) {
			t.Errorf("case %d: err = %v, want *RequestError", i, err)
		}
	}
}

func asRequestError(err error, re **RequestError) bool { return errors.As(err, re) }

func init() {
	// Guard against cacheKey accidentally shrinking: the whole design
	// assumes a collision-resistant address.
	if len(cacheKey{}) != 32 {
		panic(fmt.Sprintf("cacheKey is %d bytes", len(cacheKey{})))
	}
}
