package icn

import (
	"encoding/json"
	"testing"
)

func occCfg() Config {
	return Config{NumVNs: 2, Endpoints: 3, GlobalCap: 4, LocalCap: 3}
}

func TestOccupancyAggregation(t *testing.T) {
	cfg := occCfg()
	p := NewOccupancyProfiler(cfg)

	// State 1: empty network.
	observe(t, p, NewState(cfg))

	// State 2: two messages in VN0 global buffer 0, one delivered into
	// endpoint 1's VN1 FIFO.
	s := NewState(cfg)
	s.Send(0, 0, Message{Name: 1, Dst: 1})
	s.Send(0, 0, Message{Name: 2, Dst: 2})
	s.Local[1][1] = append(s.Local[1][1], Message{Name: 3, Dst: 1})
	observe(t, p, s)

	st := p.Stats()
	if st.StatesObserved != 2 {
		t.Fatalf("states observed = %d", st.StatesObserved)
	}
	if st.GlobalCap != 4 || st.LocalCap != 3 {
		t.Fatalf("caps = %d/%d", st.GlobalCap, st.LocalCap)
	}
	vn0, vn1 := st.PerVN[0], st.PerVN[1]
	if vn0.GlobalHighWater != 2 || st.GlobalHighWater != 2 {
		t.Fatalf("vn0 global hwm = %d (overall %d), want 2", vn0.GlobalHighWater, st.GlobalHighWater)
	}
	// VN0 global observations: state1 buf0 depth0, buf1 depth0;
	// state2 buf0 depth2, buf1 depth0 → hist [3 0 1].
	if len(vn0.GlobalHist) != 3 || vn0.GlobalHist[0] != 3 || vn0.GlobalHist[2] != 1 {
		t.Fatalf("vn0 global hist = %v", vn0.GlobalHist)
	}
	if vn1.LocalHighWater != 1 || st.LocalHighWater != 1 {
		t.Fatalf("vn1 local hwm = %d (overall %d), want 1", vn1.LocalHighWater, st.LocalHighWater)
	}
	// VN1 local observations: 3 endpoints × 2 states = 6, one at depth 1.
	if len(vn1.LocalHist) != 2 || vn1.LocalHist[0] != 5 || vn1.LocalHist[1] != 1 {
		t.Fatalf("vn1 local hist = %v", vn1.LocalHist)
	}
}

// observe feeds the profiler s's encoding, the only form it reads.
func observe(t *testing.T, p *OccupancyProfiler, s *State) {
	t.Helper()
	if err := p.ObserveEncoded(s.Encode(nil)); err != nil {
		t.Fatal(err)
	}
}

// TestOccupancyObserveEncoded pins that the byte walk refuses what
// DecodeInto refuses, plus trailing bytes, and that a refused state is
// not counted.
func TestOccupancyObserveEncoded(t *testing.T) {
	cfg := occCfg()
	s := NewState(cfg)
	s.Send(1, 1, Message{Name: 5, Dst: 0})
	s.Local[2][0] = append(s.Local[2][0], Message{Name: 1, Dst: 2})
	enc := s.Encode(nil)
	p := NewOccupancyProfiler(cfg)
	if err := p.ObserveEncoded(enc); err != nil {
		t.Fatal(err)
	}
	want := p.Stats()

	overCap := NewState(cfg)
	for i := 0; i <= cfg.GlobalCap; i++ {
		overCap.Send(0, 1, Message{Dst: 1})
	}
	localOverCap := NewState(cfg)
	for i := 0; i <= cfg.LocalCap; i++ {
		localOverCap.Local[1][1] = append(localOverCap.Local[1][1], Message{Dst: 1})
	}
	for name, bad := range map[string][]byte{
		"empty":                  nil,
		"missing queue length":   enc[:len(enc)-1],
		"truncated queue":        enc[:5],
		"global length over cap": overCap.Encode(nil),
		"local length over cap":  localOverCap.Encode(nil),
		"trailing bytes":         append(append([]byte(nil), enc...), 0),
	} {
		if _, err := DecodeInto(cfg, NewState(cfg), bad); err == nil && name != "trailing bytes" {
			t.Errorf("%s: DecodeInto accepts it; the case tests nothing", name)
		}
		if err := p.ObserveEncoded(bad); err == nil {
			t.Errorf("%s: observed without error", name)
		}
	}
	if got := p.Stats(); !got.Equal(want) {
		t.Fatalf("a rejected state changed the aggregate:\n%+v\nvs\n%+v", got, want)
	}
}

func TestOccupancyStatsEqualAndJSON(t *testing.T) {
	cfg := occCfg()
	a, b := NewOccupancyProfiler(cfg), NewOccupancyProfiler(cfg)
	s := NewState(cfg)
	s.Send(0, 0, Message{Dst: 1})
	observe(t, a, s)
	observe(t, b, s)
	if !a.Stats().Equal(b.Stats()) {
		t.Fatal("identical observations compare unequal")
	}
	observe(t, b, NewState(cfg))
	if a.Stats().Equal(b.Stats()) {
		t.Fatal("different observation counts compare equal")
	}
	var nilStats *OccupancyStats
	if nilStats.Equal(a.Stats()) || a.Stats().Equal(nilStats) {
		t.Fatal("nil vs non-nil compare equal")
	}
	if !nilStats.Equal(nil) {
		t.Fatal("nil vs nil compare unequal")
	}

	data, err := json.Marshal(a.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var back OccupancyStats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(a.Stats()) {
		t.Fatalf("stats lost in JSON round trip: %+v", back)
	}
}

func TestOccupancySetMessages(t *testing.T) {
	p := NewOccupancyProfiler(occCfg())
	p.SetMessages(1, []string{"Data", "GetM"})
	st := p.Stats()
	if len(st.PerVN[1].Messages) != 2 || st.PerVN[1].Messages[0] != "Data" {
		t.Fatalf("messages = %v", st.PerVN[1].Messages)
	}
}
