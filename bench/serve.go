package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"minvn/internal/analysis"
	"minvn/internal/mc"
	"minvn/internal/protocol"
	"minvn/internal/protocols"
	"minvn/internal/ptest"
	"minvn/internal/serve"
	"minvn/internal/vnassign"
)

// Request classes of the serve_mixed traffic mix.
const (
	classAnalyze = iota
	classCold
	classHot
)

// serveReq is one planned request and, once sent, what came back.
type serveReq struct {
	class int
	path  string
	body  []byte
	// proto is the protocol an analyze request names or carries;
	// coldOf is, for a hot request, the index of the cold request it
	// re-issues; maxStates is a verify request's bound.
	proto     *protocol.Protocol
	coldOf    int
	maxStates int

	ms     float64
	status int
	resp   []byte
	err    error
}

const (
	serveClients = 2
	// serveColdProtocol at 2c/1d/1a has 8,665 reachable states, so every
	// cold bound used here cuts the search short at exactly the bound.
	serveColdProtocol = "MSI_nonblocking_cache"
	serveSampleChecks = 8
	// serveHotWindow keeps hot re-issues inside the server's default
	// 256-entry LRU result cache: a hot request picks among this many of
	// the most recent cold ones, so its answer is still cached and must
	// come back byte-identical.
	serveHotWindow = 64
)

// servePlan draws the request sequence from the seed. The mix is exact
// whatever the seed, so that runs with different seeds do the same
// amount of work: 40 % analyze (half by name, cycling through the
// built-ins; half carrying the spec of a seeded protocol), 30 % cold
// verify (the k-th cold request asks for a max_states no other request
// uses), 30 % hot verify (a seeded re-issue of a recent cold request).
// The seed shuffles the order and picks the seeded protocols and which
// cold request each hot one repeats.
func servePlan(seed int64, sz sizes) ([]*serveReq, error) {
	r := rand.New(rand.NewSource(seed))
	gen := ptest.NewGenerator(seededMix)
	names := protocols.Names()
	classes := make([]int, sz.serveRequests)
	for i := range classes {
		switch {
		case i%10 < 4:
			classes[i] = classAnalyze
		case i%10 < 7:
			classes[i] = classCold
		default:
			classes[i] = classHot
		}
	}
	r.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })

	var plan []*serveReq
	var colds []int
	analyzed := 0
	for i, class := range classes {
		q := &serveReq{class: class}
		if class == classHot && len(colds) == 0 {
			q.class = classCold // nothing to re-issue yet
		}
		switch q.class {
		case classAnalyze:
			q.path = "/v1/analyze?wait=1"
			if analyzed%2 == 0 {
				q.proto = protocols.MustLoad(names[analyzed/2%len(names)])
				q.body, _ = json.Marshal(serve.AnalyzeRequest{Protocol: q.proto.Name})
			} else {
				q.proto = gen.Generate(seed*1_000_003 + int64(r.Intn(64))).Proto
				spec, err := protocol.Encode(q.proto)
				if err != nil {
					return nil, err
				}
				q.body, _ = json.Marshal(serve.AnalyzeRequest{ProtocolSpec: spec})
			}
			analyzed++
		case classCold:
			q.maxStates = sz.serveColdStates + len(colds)
			colds = append(colds, i)
		case classHot:
			recent := colds[max(0, len(colds)-serveHotWindow):]
			q.coldOf = recent[r.Intn(len(recent))]
			q.maxStates = plan[q.coldOf].maxStates
		}
		if q.class != classAnalyze {
			q.path = "/v1/verify?wait=1"
			q.body, _ = json.Marshal(serve.VerifyRequest{
				Protocol: serveColdProtocol,
				Options:  serve.VerifyOptions{Caches: 2, Dirs: 1, Addrs: 1, MaxStates: q.maxStates},
			})
		}
		plan = append(plan, q)
	}
	return plan, nil
}

func runServeMixed(e *childEnv) error {
	plan, err := servePlan(e.seed, e.sz)
	if err != nil {
		return err
	}
	srv := serve.New(serve.Config{Workers: 2, QueueDepth: 8, Logf: func(string, ...any) {}})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := hs.Client()
	if err := e.begin(); err != nil {
		return err
	}

	// Closed loop: each client sends its next request only when the
	// previous one has returned in full.
	var next atomic.Int64
	var wg sync.WaitGroup
	verdict := e.tr.span("verdict")
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan) {
					return
				}
				q := plan[i]
				e.tr.call("serve.request", func() {
					t0 := time.Now()
					resp, err := client.Post(hs.URL+q.path, "application/json", bytes.NewReader(q.body))
					if err == nil {
						q.status = resp.StatusCode
						q.resp, err = io.ReadAll(resp.Body)
						resp.Body.Close()
					}
					q.err = err
					q.ms = float64(time.Since(t0)) / 1e6
				})
			}
		}()
	}
	wg.Wait()
	verdict.End()
	opMs := make([]float64, len(plan))
	for i, q := range plan {
		opMs[i] = q.ms
	}
	e.end(int64(len(plan)), opMs)

	checkServe(e, plan)
	if e.tr != nil {
		serveLayers(e, plan, srv.Stats())
	}
	return nil
}

// checkServe judges every response: transport and admission first,
// then the verdict itself against the library or a known answer.
func checkServe(e *childEnv, plan []*serveReq) {
	views := make([]*serve.JobView, len(plan))
	basic := func(i int, q *serveReq) string {
		switch {
		case q.err != nil:
			return q.err.Error()
		case q.status != http.StatusOK:
			return fmt.Sprintf("HTTP %d: %.120s", q.status, q.resp)
		}
		var v serve.JobView
		if err := json.Unmarshal(q.resp, &v); err != nil {
			return err.Error()
		}
		if v.Status != serve.StatusDone || len(v.Result) == 0 {
			return fmt.Sprintf("job %s: %s", v.Status, v.Error)
		}
		views[i] = &v
		return ""
	}
	// Every verify verdict is checked against the answer known without
	// running anything (bounded at exactly max_states); a seeded sample
	// of requests has its verdict recomputed in full through the library.
	sample := map[int]bool{}
	r := rand.New(rand.NewSource(e.seed))
	for len(sample) < serveSampleChecks && len(sample) < len(plan) {
		sample[r.Intn(len(plan))] = true
	}
	for i, q := range plan {
		problem := basic(i, q)
		if problem == "" {
			switch q.class {
			case classAnalyze:
				problem = checkAnalyzeBody(q.proto, views[i].Result)
			default:
				problem = checkVerifyBody(q, views[i].Result, sample[i])
			}
		}
		if problem == "" && q.class == classHot {
			cold := views[q.coldOf]
			if cold == nil || !bytes.Equal(cold.Result, views[i].Result) {
				problem = "hot result differs from its cold result"
			}
		}
		if problem != "" {
			problem = fmt.Sprintf("request %d: %s", i, problem)
		}
		e.check(problem)
	}
}

func checkAnalyzeBody(p *protocol.Protocol, raw json.RawMessage) string {
	var got serve.AnalyzeResult
	if err := json.Unmarshal(raw, &got); err != nil {
		return err.Error()
	}
	want := vnassign.AssignFromAnalysis(analysis.Analyze(p))
	if got.Class != want.Class.String() || got.NumVNs != want.NumVNs {
		return fmt.Sprintf("analyze %s: served %s/%d VNs, library says %s/%d", p.Name, got.Class, got.NumVNs, want.Class, want.NumVNs)
	}
	return ""
}

func checkVerifyBody(q *serveReq, raw json.RawMessage, recompute bool) string {
	var got serve.VerifyResult
	if err := json.Unmarshal(raw, &got); err != nil {
		return err.Error()
	}
	if got.Outcome != mc.Bounded.Tag() || got.States != q.maxStates {
		return fmt.Sprintf("verify max_states %d: served %s/%d states", q.maxStates, got.Outcome, got.States)
	}
	if !recompute {
		return ""
	}
	b, err := searchSpec{protocol: serveColdProtocol, caches: 2, dirs: 1, addrs: 1, maxStates: q.maxStates}.build()
	if err != nil {
		return err.Error()
	}
	want := mc.Check(b.sys, b.opts)
	if got.Outcome != want.Outcome.Tag() || got.States != want.States || got.Rules != want.Rules || got.MaxDepth != want.MaxDepth {
		return fmt.Sprintf("verify max_states %d: served %s/%d/%d/depth %d, library says %s/%d/%d/depth %d", q.maxStates,
			got.Outcome, got.States, got.Rules, got.MaxDepth, want.Outcome.Tag(), want.States, want.Rules, want.MaxDepth)
	}
	return ""
}

// serveLayers splits the traced repetition's latencies by request
// class and adds the server's own counters.
func serveLayers(e *childEnv, plan []*serveReq, st serve.Stats) {
	byClass := map[int][]float64{}
	var respBytes int
	var overhead []float64
	for _, q := range plan {
		byClass[q.class] = append(byClass[q.class], q.ms)
		respBytes += len(q.resp)
		if q.class != classCold {
			continue
		}
		var v serve.JobView
		var res serve.VerifyResult
		if json.Unmarshal(q.resp, &v) == nil && json.Unmarshal(v.Result, &res) == nil {
			overhead = append(overhead, q.ms-res.DurationSeconds*1e3)
		}
	}
	e.layer("serve.analyze_ms_p50", median(byClass[classAnalyze]))
	e.layer("serve.verify_cold_ms_p50", median(byClass[classCold]))
	e.layer("serve.verify_hot_ms_p50", median(byClass[classHot]))
	e.layer("serve.overhead_ms", median(overhead))
	e.layer("serve.resp_bytes_mean", float64(respBytes)/float64(len(plan)))
	hits, misses := st.Counters["serve.cache_hits"], st.Counters["serve.cache_misses"]
	if hits+misses > 0 {
		e.layer("serve.cache_hit_share", float64(hits)/float64(hits+misses))
	}
	e.layer("serve.rejected_busy", float64(st.Counters["serve.rejected_busy"]))
	e.layer("serve.jobs_done", float64(st.Counters["serve.jobs_done"]))
}
