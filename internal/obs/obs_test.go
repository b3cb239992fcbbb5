package obs

import (
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				c.Add(2)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8*1000*3 {
		t.Fatalf("counter = %d, want %d", got, 8*1000*3)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(42)
	if g.Load() != 42 {
		t.Fatalf("gauge = %d", g.Load())
	}
	g.Set(-7)
	if g.Load() != -7 {
		t.Fatalf("gauge = %d", g.Load())
	}
}

func TestTimelineStages(t *testing.T) {
	tl := &Timeline{}
	tl.Time("a", func() { time.Sleep(time.Millisecond) })
	stop := tl.Start("b")
	stop()
	stages := tl.Stages()
	if len(stages) != 2 || stages[0].Name != "a" || stages[1].Name != "b" {
		t.Fatalf("stages = %+v", stages)
	}
	if stages[0].Seconds <= 0 {
		t.Fatalf("stage a has no duration: %+v", stages[0])
	}
}

func TestNilTimelineIsSafe(t *testing.T) {
	var tl *Timeline
	tl.Start("x")()
	tl.Time("y", func() {})
	if tl.Stages() != nil {
		t.Fatal("nil timeline recorded something")
	}
	if tl.Summaries() != nil {
		t.Fatal("nil timeline has summaries")
	}
}

func TestTimelineSummaries(t *testing.T) {
	tl := &Timeline{}
	tl.Time("b", func() {})
	tl.Time("a", func() { time.Sleep(2 * time.Millisecond) })
	tl.Time("a", func() { time.Sleep(time.Millisecond) })

	sums := tl.Summaries()
	if len(sums) != 2 || sums[0].Name != "a" || sums[1].Name != "b" {
		t.Fatalf("summaries = %+v", sums)
	}
	a := sums[0]
	if a.Count != 2 {
		t.Fatalf("stage a ran %d times, want 2", a.Count)
	}
	if a.Max <= 0 || a.Max > a.Seconds {
		t.Fatalf("stage a max %g outside (0, sum %g]", a.Max, a.Seconds)
	}
	// Max is the slowest single run, not the latest: the 2ms run must
	// dominate the 1ms one.
	if a.Seconds-a.Max > a.Max {
		t.Fatalf("stage a max %g is not the slowest run (sum %g)", a.Max, a.Seconds)
	}
	if sums[1].Count != 1 || sums[1].Max != sums[1].Seconds {
		t.Fatalf("single-run stage b = %+v", sums[1])
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("states").Add(10)
	r.Counter("states").Inc() // same handle by name
	r.Gauge("frontier").Set(3)
	r.StartStage("stage")()
	r.StartStage("stage")()

	s := r.Snapshot()
	if s.Counters["states"] != 11 {
		t.Fatalf("states = %d", s.Counters["states"])
	}
	if s.Gauges["frontier"] != 3 {
		t.Fatalf("frontier = %d", s.Gauges["frontier"])
	}
	// Stage runs fold into one running summary per name: a snapshot
	// costs O(names), however many runs were timed.
	if len(s.StageSummaries) != 1 || s.StageSummaries[0].Name != "stage" || s.StageSummaries[0].Count != 2 {
		t.Fatalf("stage summaries = %+v", s.StageSummaries)
	}
	if sum := s.StageSummaries[0]; sum.Max <= 0 || sum.Max > sum.Seconds {
		t.Fatalf("stage max %g outside (0, sum %g]", sum.Max, sum.Seconds)
	}

	// The snapshot must be serializable and round-trip.
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["states"] != 11 || back.Gauges["frontier"] != 3 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestServePprof(t *testing.T) {
	addr, err := ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[uint64]string{
		0:               "0 B",
		512:             "512 B",
		1023:            "1023 B",
		1024:            "1.0 KiB",
		1536:            "1.5 KiB",
		2048:            "2.0 KiB",
		1024*1024 - 1:   "1024.0 KiB",
		1024 * 1024:     "1.0 MiB",
		3 * 1024 * 1024: "3.0 MiB",
		1 << 30:         "1.0 GiB",
		1 << 40:         "1.0 TiB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestSortedNames(t *testing.T) {
	m := map[string]int64{"b": 1, "a": 2, "c": 3}
	got := SortedNames(m)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("got = %v", got)
	}
}

// TestTimelineConcurrent overlaps Start/Time/Stages from several
// goroutines; run under -race, this pins the Timeline's locking.
func TestTimelineConcurrent(t *testing.T) {
	tl := &Timeline{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if w%2 == 0 {
					stop := tl.Start("start")
					stop()
				} else {
					tl.Time("time", func() {})
				}
				_ = tl.Stages()
			}
		}(w)
	}
	wg.Wait()
	if got := len(tl.Stages()); got != 8*100 {
		t.Fatalf("stages = %d, want %d", got, 8*100)
	}
}

// TestRegistrySnapshotConcurrent hammers one registry with writers on
// shared counter/gauge names while readers snapshot it; run under
// -race, this pins the registry's synchronization. The final snapshot
// must see every write.
func TestRegistrySnapshotConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("states").Inc()
				r.Gauge("frontier").Set(int64(i))
				r.StartStage("job")()
				if i%50 == 0 {
					s := r.Snapshot()
					if s.Counters["states"] <= 0 {
						t.Errorf("snapshot lost counter: %+v", s.Counters)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	final := r.Snapshot()
	if got := final.Counters["states"]; got != 8*500 {
		t.Fatalf("states = %d, want %d", got, 8*500)
	}
	if len(final.StageSummaries) != 1 || final.StageSummaries[0].Count != 8*500 {
		t.Fatalf("stage summaries = %+v, want one with count %d", final.StageSummaries, 8*500)
	}
}

// TestCollectProvenance checks the host facts every run record embeds.
// Git fields may legitimately be empty (test binaries are built
// without VCS stamping), but the runtime facts always exist. The
// build/host half is read once per process; GOMAXPROCS stays live.
func TestCollectProvenance(t *testing.T) {
	p := CollectProvenance()
	if p.GoVersion == "" {
		t.Error("GoVersion empty")
	}
	if p.GOOS == "" || p.GOARCH == "" {
		t.Errorf("GOOS/GOARCH empty: %q/%q", p.GOOS, p.GOARCH)
	}
	if p.GOMAXPROCS <= 0 || p.NumCPU <= 0 {
		t.Errorf("GOMAXPROCS=%d NumCPU=%d", p.GOMAXPROCS, p.NumCPU)
	}

	prev := runtime.GOMAXPROCS(p.GOMAXPROCS + 1)
	defer runtime.GOMAXPROCS(prev)
	q := CollectProvenance()
	if q.GOMAXPROCS != p.GOMAXPROCS+1 {
		t.Errorf("GOMAXPROCS = %d after raising it to %d: cached, not live", q.GOMAXPROCS, p.GOMAXPROCS+1)
	}
	q.GOMAXPROCS = p.GOMAXPROCS
	if q != p {
		t.Errorf("host facts changed between calls:\n%+v\n%+v", p, q)
	}
}
