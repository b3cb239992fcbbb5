package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"minvn/internal/analysis"
	"minvn/internal/dist"
	"minvn/internal/protocol"
	"minvn/internal/protocol/xform"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

// TestSharedBuiltinsUnmodified sends analyze and verify requests from
// two goroutines per protocol through one server, naming every built-in
// (and the alias MSI, which shares MSI_blocking_cache's memo entry) and
// carrying the two-level MSI_under_MESI inline. Under -race a job that
// wrote to a shared protocol is a reported race; afterwards every
// memoized protocol must still encode to its memoized bytes, and every
// served answer must equal one computed from a freshly built protocol:
// an analysis decodes to that protocol's static verdict.
func TestSharedBuiltinsUnmodified(t *testing.T) {
	names := append(protocols.Names(), "MSI", "MSI_under_MESI")
	fresh := func(name string) *protocol.Protocol {
		if name != "MSI_under_MESI" {
			return protocols.MustLoad(name)
		}
		comp, err := xform.Compose(protocols.MustLoad("MSI_blocking_cache"),
			protocols.MustLoad("MESI_blocking_cache"), name)
		if err != nil {
			t.Fatal(err)
		}
		return comp
	}
	spec, err := protocol.Encode(fresh("MSI_under_MESI"))
	if err != nil {
		t.Fatal(err)
	}
	options := func(g int) VerifyOptions {
		return VerifyOptions{VN: dist.VNPerMessage, Caches: 2, Dirs: 1, Addrs: 1, MaxStates: 1000 + 250*(g%3)}
	}

	goroutines := 2 * len(names)
	srv := New(Config{Workers: 4, QueueDepth: goroutines, Logf: func(string, ...any) {}})
	defer srv.Close()
	post := func(path string, body any) (JobView, error) {
		raw, _ := json.Marshal(body)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
		var v JobView
		if rec.Code != http.StatusOK {
			return v, fmt.Errorf("%s: HTTP %d: %s", path, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			return v, err
		}
		if v.Status != StatusDone {
			return v, fmt.Errorf("%s: job %s: %s", path, v.Status, v.Error)
		}
		return v, nil
	}

	analyzed := make([]json.RawMessage, goroutines)
	verified := make([]json.RawMessage, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := names[g%len(names)]
			areq, vreq := AnalyzeRequest{Protocol: name}, VerifyRequest{Protocol: name, Options: options(g)}
			if name == "MSI_under_MESI" {
				areq, vreq = AnalyzeRequest{ProtocolSpec: spec}, VerifyRequest{ProtocolSpec: spec, Options: options(g)}
			}
			var v JobView
			if v, errs[g] = post("/v1/analyze?wait=1", areq); errs[g] != nil {
				return
			}
			analyzed[g] = v.Result
			if v, errs[g] = post("/v1/verify?wait=1", vreq); errs[g] != nil {
				return
			}
			verified[g] = v.Result
		}()
	}
	wg.Wait()

	memoized := 0
	builtins.Range(func(name, r any) bool {
		memoized++
		canon, err := protocol.Encode(r.(*resolved).p)
		if err != nil || !bytes.Equal(canon, r.(*resolved).canon) {
			t.Errorf("memoized %s no longer encodes to its memoized bytes (err %v)", name, err)
		}
		return true
	})
	if memoized == 0 {
		t.Fatal("no built-in was memoized")
	}

	for g := 0; g < goroutines; g++ {
		name := names[g%len(names)]
		if errs[g] != nil {
			t.Errorf("goroutine %d (%s): %v", g, name, errs[g])
			continue
		}
		p := fresh(name)
		a := vnassign.AssignFromAnalysis(analysis.Analyze(p))
		want, err := json.Marshal(analyzeResult(a))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compact(t, analyzed[g]), want) {
			t.Errorf("%s: served analysis differs from a fresh protocol's:\n%s\nvs\n%s", name, analyzed[g], want)
		}
		var served AnalyzeResult
		if err := json.Unmarshal(analyzed[g], &served); err != nil {
			t.Fatal(err)
		}
		if v := a.Verdict(); !reflect.DeepEqual(served.Verdict, v) {
			t.Errorf("%s: served verdict %+v, library verdict %+v", name, served.Verdict, v)
		}

		job, err := options(g).Resolve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		job.Occupancy = true
		res, err := dist.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		wantOcc, _ := json.Marshal(res.Stats.Occupancy)
		var got struct {
			VerifyResult
			Stats struct {
				Occupancy json.RawMessage `json:"occupancy"`
			} `json:"stats"`
		}
		if err := json.Unmarshal(verified[g], &got); err != nil {
			t.Fatal(err)
		}
		if got.Outcome != res.Outcome.Tag() || got.States != res.States || got.Rules != res.Rules ||
			got.MaxDepth != res.MaxDepth {
			t.Errorf("%s: served %s/%d states/%d rules/depth %d, fresh protocol gives %s/%d/%d/%d", name,
				got.Outcome, got.States, got.Rules, got.MaxDepth, res.Outcome.Tag(), res.States, res.Rules, res.MaxDepth)
		}
		if !bytes.Equal(compact(t, got.Stats.Occupancy), wantOcc) {
			t.Errorf("%s: served occupancy differs from a fresh protocol's", name)
		}
	}
}

// compact strips the indentation a served document picks up inside the
// job view.
func compact(t *testing.T, raw []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
