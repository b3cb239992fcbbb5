package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"minvn/internal/dist"
	"minvn/internal/icn"
	"minvn/internal/machine"
	"minvn/internal/mc"
	"minvn/internal/protocol"
	"minvn/internal/protocol/xform"
	"minvn/internal/protocols"
)

func composite(t testing.TB) *protocol.Protocol {
	t.Helper()
	p, err := xform.Compose(protocols.MustLoad("MSI_blocking_cache"),
		protocols.MustLoad("MESI_blocking_cache"), "MSI_under_MESI")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestResolveDefaults: the zero spec is the paper's experiment, and
// every default lands in the normalized spec the job carries.
func TestResolveDefaults(t *testing.T) {
	job, err := dist.Spec{}.Resolve(protocols.MustLoad("MSI_nonblocking_cache"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := dist.Spec{VN: dist.VNMinimal, Caches: 3, Dirs: 2, Addrs: 2,
		Strategy: "bfs", Engine: "auto", Store: "exact"}
	if !reflect.DeepEqual(job.Spec, want) {
		t.Errorf("normalized zero spec = %+v, want %+v", job.Spec, want)
	}
	if job.Engine != mc.EngineAuto || job.Options.Store != mc.StoreExact ||
		job.Options.Strategy != mc.BFS || !job.Options.DisableTraces ||
		job.Options.MaxStates != 0 || len(job.Seeds) != 0 || job.System == nil {
		t.Errorf("resolved zero spec: engine %v options %+v seeds %d", job.Engine, job.Options, len(job.Seeds))
	}
	if job.Config.NumVNs != 2 || job.Config.L2s != 0 || job.Config.CoreEvents != nil {
		t.Errorf("config = %+v", job.Config)
	}
}

// TestResolveRefusals: every invalid value is the one typed request
// error (CLIs exit 2, vnserved answers 400), never a silent default.
func TestResolveRefusals(t *testing.T) {
	seven := 7
	msi := protocols.MustLoad("MSI_nonblocking_cache")
	for _, tc := range []struct {
		name  string
		proto *protocol.Protocol
		spec  dist.Spec
		want  string
	}{
		{"vn", msi, dist.Spec{VN: "bogus"}, "unknown vn mode"},
		{"vn given without an assignment", msi, dist.Spec{VN: "given"}, "unknown vn mode"},
		{"strategy", msi, dist.Spec{Strategy: "sideways"}, "unknown strategy"},
		{"p2p", msi, dist.Spec{P2P: &seven}, "out of range 0-3"},
		{"engine", msi, dist.Spec{Engine: "levels"}, "engine"},
		{"store", msi, dist.Spec{Store: "bogus"}, "unknown store"},
		{"workers", msi, dist.Spec{Workers: 100_000_000}, "workers 100000000 exceeds the maximum of 1024"},
		{"workers on dist", msi, dist.Spec{Engine: "dist", Workers: 1025}, "exceeds the maximum"},
		{"dfs on dist", msi, dist.Spec{Engine: "dist", Strategy: "dfs"}, "not supported by the distributed engine"},
		{"seeds on dist", msi, dist.Spec{Engine: "dist", SeedOwned: true, VN: dist.VNPerMessage}, "not supported by the distributed engine"},
		{"class 2 under minimal", protocols.MustLoad("MSI_blocking_cache"), dist.Spec{}, "use vn=permsg"},
		{"machine rejects", msi, dist.Spec{Caches: 9}, "caches must be in 1..8"},
	} {
		_, err := tc.spec.Resolve(tc.proto, nil)
		var re *dist.RequestError
		if !errors.As(err, &re) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want *RequestError mentioning %q", tc.name, err, tc.want)
		}
	}
	if _, err := (dist.Spec{Workers: 1024}).Resolve(msi, nil); err != nil {
		t.Errorf("1024 workers, the ceiling itself: %v", err)
	}
}

// TestResolveTwoLevel: a two-level protocol gets one L2 home unless
// the spec says otherwise, so the composite every entry point used to
// treat differently resolves — as `vnverify -file … -vn permsg -caches
// 2 -dirs 1 -addrs 1` would — and runs.
func TestResolveTwoLevel(t *testing.T) {
	comp := composite(t)
	spec := dist.Spec{VN: dist.VNPerMessage, Caches: 2, Dirs: 1, Addrs: 1, MaxStates: 2000}
	job, err := spec.Resolve(comp, nil)
	if err != nil {
		t.Fatalf("composite does not resolve: %v", err)
	}
	if job.Config.L2s != 1 || job.Spec.L2s != 1 {
		t.Errorf("defaulted L2s = %d (spec %d), want 1", job.Config.L2s, job.Spec.L2s)
	}
	job.Occupancy = true // vnserved always profiles; the l2 section must not confuse it
	res, err := dist.Run(context.Background(), job)
	occ, _ := res.Stats.Occupancy.(*icn.OccupancyStats)
	if err != nil || res.States == 0 || occ == nil || occ.StatesObserved != int64(res.States) {
		t.Errorf("composite run: %v, %v, occupancy %+v", res, err, occ)
	}

	spec.L2s, spec.Addrs = 2, 2
	job, err = spec.Resolve(comp, nil)
	if err != nil || job.Config.L2s != 2 {
		t.Errorf("explicit L2s: config %d, err %v; want 2 left alone", job.Config.L2s, err)
	}
	if _, err := (dist.Spec{L2s: 1}).Resolve(protocols.MustLoad("MSI_nonblocking_cache"), nil); err == nil {
		t.Error("L2s on a flat protocol resolved")
	}
}

// TestJobParams pins the artifact/ledger key set to exactly what
// vnverify's run artifact has always carried, so checked-in baselines
// and ledger queries stay valid.
func TestJobParams(t *testing.T) {
	one := 1
	job, err := dist.Spec{MaxStates: 5000, P2P: &one, Workers: 4, Store: "compact"}.
		Resolve(protocols.MustLoad("MSI_nonblocking_cache"), nil)
	if err != nil {
		t.Fatal(err)
	}
	params := job.Params()
	var keys []string
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"addrs", "caches", "dirs", "engine", "global_cap", "invariants", "local_cap",
		"max_depth", "max_states", "num_vns", "point_to_point", "protocol", "store",
		"strategy", "symmetry", "vn", "vn_mode", "workers"}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("param keys = %v\nwant         %v", keys, want)
	}
	for k, v := range map[string]any{
		"protocol": "MSI_nonblocking_cache", "vn_mode": "minimal", "num_vns": 2,
		"caches": 3, "strategy": "BFS", "store": "compact", "engine": "auto",
		"max_states": 5000, "workers": 4, "point_to_point": true, "symmetry": true,
	} {
		if !reflect.DeepEqual(params[k], v) {
			t.Errorf("params[%q] = %v, want %v", k, params[k], v)
		}
	}
}

// TestJobKey: the key is the result-affecting part of the spec. The
// in-process engine, workers, traces and peers never reach it;
// everything that can change a result does — including, for the
// distributed engine, the fleet size (the stored-state set under
// symmetry reduction depends on it).
func TestJobKey(t *testing.T) {
	p := protocols.MustLoad("MSI_nonblocking_cache")
	keyOf := func(s dist.Spec) string {
		t.Helper()
		job, err := s.Resolve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		return job.Key()
	}
	base := dist.Spec{MaxStates: 5000}
	k0 := keyOf(base)
	for name, same := range map[string]dist.Spec{
		"defaults spelled out": {MaxStates: 5000, VN: "minimal", Caches: 3, Dirs: 2, Addrs: 2, Strategy: "BFS", Store: "exact", Engine: "auto"},
		"in-process knobs":     {MaxStates: 5000, Engine: "pipeline", Workers: 7, Traces: true},
	} {
		if keyOf(same) != k0 {
			t.Errorf("%s changed the key", name)
		}
	}
	one := 1
	uniform, nUniform := machine.UniformVN(p)
	for name, other := range map[string]dist.Spec{
		"max_states": {MaxStates: 6000},
		"max_depth":  {MaxStates: 5000, MaxDepth: 3},
		"addrs":      {MaxStates: 5000, Addrs: 3},
		"vn":         {MaxStates: 5000, VN: dist.VNUniform},
		"given":      {MaxStates: 5000, Assignment: uniform, NumVNs: nUniform},
		"p2p":        {MaxStates: 5000, P2P: &one},
		"no-repl":    {MaxStates: 5000, NoReplacement: true},
		"symmetry":   {MaxStates: 5000, NoSymmetry: true},
		"seed":       {MaxStates: 5000, SeedOwned: true},
		"store":      {MaxStates: 5000, Store: "compact"},
		"dist":       {MaxStates: 5000, Engine: "dist", Workers: 2},
	} {
		if keyOf(other) == k0 {
			t.Errorf("%s did not change the key", name)
		}
	}
	d2 := keyOf(dist.Spec{Engine: "dist", Workers: 2})
	if keyOf(dist.Spec{Engine: "dist", Workers: 3}) == d2 {
		t.Error("dist fleets of 2 and 3 workers share a key")
	}
	if keyOf(dist.Spec{Engine: "dist", Peers: []string{"http://a", "http://b"}, Workers: 9}) != d2 {
		t.Error("two peers and two in-process workers are the same fleet size but differ in key")
	}
}

// fullConfig sets every machine.Config field to a non-zero value.
func fullConfig(t testing.TB) machine.Config {
	comp := composite(t)
	vn, n := machine.PerMessageVN(comp)
	return machine.Config{
		Protocol: comp, Caches: 2, Dirs: 1, Addrs: 2, L2s: 2,
		VN: vn, NumVNs: n, GlobalCap: 40, LocalCap: 9,
		PointToPoint: true, P2PVariant: 3, NoSymmetry: true,
		CoreEvents:  []protocol.CoreEvent{protocol.Load, protocol.Store},
		Invariants:  true,
		Permissions: map[string]machine.Permission{"M": machine.PermWrite, "S": machine.PermRead},
	}
}

// TestConfigWireRoundTrip: a machine.Config with every field set
// survives the init request's JSON form, the protocol as its canonical
// encoding; and the worker still refuses an oversized or malformed
// protocol inside it with the protocol codec's own typed error.
func TestConfigWireRoundTrip(t *testing.T) {
	cfg := fullConfig(t)
	wire, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back machine.Config
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}
	wantProto, _ := protocol.Encode(cfg.Protocol)
	gotProto, err := protocol.Encode(back.Protocol)
	if err != nil || !bytes.Equal(wantProto, gotProto) {
		t.Errorf("protocol changed across the wire (err %v)", err)
	}
	cfg.Protocol, back.Protocol = nil, nil
	if !reflect.DeepEqual(cfg, back) {
		t.Errorf("config changed across the wire:\n got %+v\nwant %+v", back, cfg)
	}

	var doc map[string]json.RawMessage
	if err := json.Unmarshal(wire, &doc); err != nil {
		t.Fatal(err)
	}
	var proto struct {
		Name     string            `json:"name"`
		Messages []json.RawMessage `json:"messages"`
	}
	if err := json.Unmarshal(doc["protocol"], &proto); err != nil {
		t.Fatal(err)
	}
	for len(proto.Messages) <= protocol.MaxMessages {
		proto.Messages = append(proto.Messages, proto.Messages...)
	}
	for name, bad := range map[string]any{
		"oversized": proto,
		"malformed": map[string]any{"name": "x", "messages": "not a list"},
	} {
		doc["protocol"], _ = json.Marshal(bad)
		evil, _ := json.Marshal(doc)
		err := json.Unmarshal(evil, new(machine.Config))
		var le *protocol.LimitError
		if name == "oversized" && !errors.As(err, &le) {
			t.Errorf("oversized protocol: err = %v, want *protocol.LimitError", err)
		}
		if err == nil {
			t.Errorf("%s protocol decoded", name)
		}
		// And at the worker's door: a 400, no run installed.
		hs := httptest.NewServer(dist.NewWorker().Handler())
		body, _ := json.Marshal(map[string]any{
			"run_id": "r", "self": 0, "workers": 1, "peers": []string{hs.URL},
			"spec": json.RawMessage(evil), "store": "exact",
		})
		resp, err := http.Post(hs.URL+"/dist/v1/init", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		hs.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s protocol at the worker: status %d, want 400", name, resp.StatusCode)
		}
	}
}
