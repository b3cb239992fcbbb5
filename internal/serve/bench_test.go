package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"minvn/internal/serve"
)

// BenchmarkServeHit is one cache hit through the HTTP handler, with no
// socket: decode, key, cache lookup, the done job and its JSON. verify
// is serve_mixed's hot request (keyed, never resolved); analyze asks
// for a built-in by name.
func BenchmarkServeHit(b *testing.B) {
	for _, bc := range []struct {
		name, path string
		req        any
	}{
		{"verify", "/v1/verify?wait=1", serve.VerifyRequest{Protocol: "MSI_nonblocking_cache",
			Options: serve.VerifyOptions{Caches: 2, Dirs: 1, Addrs: 1, MaxStates: 3000}}},
		{"analyze", "/v1/analyze?wait=1", serve.AnalyzeRequest{Protocol: "MSI_nonblocking_cache"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv := serve.New(serve.Config{Logf: func(string, ...any) {}})
			defer srv.Close()
			h := srv.Handler()
			body, err := json.Marshal(bc.req)
			if err != nil {
				b.Fatal(err)
			}
			post := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, bc.path, bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
				}
				return rec
			}
			post() // the cold run the hits replay
			var v serve.JobView
			if err := json.Unmarshal(post().Body.Bytes(), &v); err != nil || !v.Cached {
				b.Fatalf("second request missed the cache: %+v (err %v)", v, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
		})
	}
}
