package protocol

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// tiny builds a minimal valid protocol: one request, one response.
func tiny() *Builder {
	b := NewBuilder("tiny")
	b.Message("Req", Request)
	b.Message("Resp", DataResponse)
	c := b.Cache("I")
	c.Stable("I", "V")
	c.Transient("IV")
	c.On("I", CoreEv(Load)).Send("Req", ToDir).Goto("IV")
	c.On("IV", MsgEv("Resp")).Goto("V")
	c.StallOn("IV", CoreEv(Store))
	d := b.Dir("ID")
	d.Stable("ID")
	d.On("ID", MsgEv("Req")).Send("Resp", ToReq).Stay()
	return b
}

func TestBuilderHappyPath(t *testing.T) {
	p, err := tiny().Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "tiny" || len(p.Messages) != 2 {
		t.Fatalf("unexpected protocol %+v", p)
	}
	tr := p.Cache.Lookup("I", CoreEv(Load))
	if tr == nil || tr.Next != "IV" || len(tr.Sends()) != 1 {
		t.Fatalf("lookup wrong: %+v", tr)
	}
	if got := p.MessagesOfType(Request); len(got) != 1 || got[0] != "Req" {
		t.Fatalf("MessagesOfType = %v", got)
	}
}

func TestBuilderDuplicateMessage(t *testing.T) {
	b := tiny()
	b.Message("Req", Request)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "declared twice") {
		t.Fatalf("expected duplicate-message error, got %v", err)
	}
}

func TestBuilderDuplicateCell(t *testing.T) {
	b := tiny()
	b.Cache("I").On("I", CoreEv(Load)).Goto("V")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "defined twice") {
		t.Fatalf("expected duplicate-cell error, got %v", err)
	}
}

func TestValidateUndeclaredState(t *testing.T) {
	b := tiny()
	b.Cache("I").On("V", CoreEv(Load)).Goto("Nowhere")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "Nowhere") {
		t.Fatalf("expected undeclared-state error, got %v", err)
	}
}

func TestValidateUndeclaredMessage(t *testing.T) {
	b := tiny()
	b.Cache("I").On("V", MsgEv("Ghost")).Stay()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "Ghost") {
		t.Fatalf("expected undeclared-message error, got %v", err)
	}
}

func TestValidateStallInStableState(t *testing.T) {
	b := tiny()
	b.Cache("I").StallOn("V", MsgEv("Resp"))
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "stable state") {
		t.Fatalf("expected stable-stall error, got %v", err)
	}
}

func TestValidateNeverSentMessage(t *testing.T) {
	b := tiny()
	b.Message("Orphan", CtrlResponse)
	b.Cache("I").On("V", MsgEv("Orphan")).Stay() // received but never sent
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "never sent") {
		t.Fatalf("expected never-sent error, got %v", err)
	}
}

func TestValidateTransientInitial(t *testing.T) {
	b := NewBuilder("bad")
	b.Message("Req", Request)
	b.Message("Resp", DataResponse)
	c := b.Cache("IV")
	c.Transient("IV")
	c.On("IV", MsgEv("Resp")).Send("Req", ToDir).Stay()
	d := b.Dir("ID")
	d.Stable("ID")
	d.On("ID", MsgEv("Req")).Send("Resp", ToReq).Stay()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "transient") {
		t.Fatalf("expected transient-initial error, got %v", err)
	}
}

func TestValidateQualifierMismatch(t *testing.T) {
	b := tiny()
	// Resp declares no qualifier kind but is used with a qualifier.
	b.Cache("I").On("V", MsgQualEv("Resp", QLastAck)).Stay()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "qualifier") {
		t.Fatalf("expected qualifier error, got %v", err)
	}
}

func TestValidateDirOnlyDestinations(t *testing.T) {
	b := tiny()
	b.Cache("I").On("V", MsgEv("Resp")).Send("Resp", ToOwner).Stay()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "directory") {
		t.Fatalf("expected dir-only-dest error, got %v", err)
	}
}

func TestEventString(t *testing.T) {
	if got := CoreEv(Load).String(); got != "Load" {
		t.Errorf("core event = %q", got)
	}
	if got := MsgEv("Data").String(); got != "Data" {
		t.Errorf("msg event = %q", got)
	}
	if got := MsgQualEv("Data", QAckPositive).String(); got != "Data(ack>0)" {
		t.Errorf("qualified event = %q", got)
	}
}

func TestCellString(t *testing.T) {
	cases := []struct {
		t    *Transition
		want string
	}{
		{nil, ""},
		{&Transition{Stall: true}, "stall"},
		{&Transition{}, "hit"},
		{&Transition{Next: "M"}, "-/M"},
		{&Transition{Actions: []Action{{Kind: ASend, Msg: "GetS", To: ToDir}}, Next: "IS_D"},
			"send GetS to Dir/IS_D"},
	}
	for _, c := range cases {
		if got := CellString(c.t); got != c.want {
			t.Errorf("CellString(%+v) = %q, want %q", c.t, got, c.want)
		}
	}
}

func TestFormatController(t *testing.T) {
	p, err := tiny().Build()
	if err != nil {
		t.Fatal(err)
	}
	out := FormatController(p.Cache)
	for _, want := range []string{"Load", "IV", "stall", "send Req to Dir/IV"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	full := FormatProtocol(p)
	if !strings.Contains(full, "Directory controller") || !strings.Contains(full, "Req") {
		t.Errorf("protocol format incomplete:\n%s", full)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	p, err := tiny().Build()
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, data)
	}
	if q.Name != p.Name || len(q.Messages) != len(p.Messages) {
		t.Fatal("round trip lost data")
	}
	// Transition tables must survive the trip.
	for key, tr := range p.Cache.Transitions {
		got := q.Cache.Transitions[key]
		if got == nil {
			t.Fatalf("lost transition %v", key)
		}
		if got.Stall != tr.Stall || got.Next != tr.Next || len(got.Actions) != len(tr.Actions) {
			t.Fatalf("transition %v mismatch: %+v vs %+v", key, got, tr)
		}
	}
	// Re-encoding must be deterministic.
	data2, err := Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("encoding not canonical")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("{not json")); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := Decode([]byte(`{"name":"x","messages":[{"name":"m","type":"wat"}]}`)); err == nil {
		t.Fatal("expected unknown-type error")
	}
}

// tinyTwoLevel builds a minimal valid two-level composite: the cache
// asks the L2 home, which asks the outer directory.
func tinyTwoLevel() *Builder {
	b := NewBuilder("tiny2")
	b.Message("Req", Request)
	b.Message("Resp", DataResponse)
	b.Message("OReq", Request, WithLevel(LevelOuter))
	b.Message("OResp", DataResponse, WithLevel(LevelOuter))
	c := b.Cache("I")
	c.Stable("I", "V")
	c.Transient("IV")
	c.On("I", CoreEv(Load)).Send("Req", ToDir).Goto("IV")
	c.On("IV", MsgEv("Resp")).Goto("V")
	l2 := b.L2("H")
	l2.Stable("H")
	l2.Transient("HW")
	l2.On("H", MsgEv("Req")).Send("OReq", ToDir).Goto("HW")
	l2.On("HW", MsgEv("OResp")).Send("Resp", ToReq).Goto("H")
	d := b.Dir("D")
	d.Stable("D")
	d.On("D", MsgEv("OReq")).Send("OResp", ToReq).Stay()
	return b
}

// TestValidateCellMessages pins the exact text of one cell-level
// failure per controller kind: the cell is named only when reported,
// and naming it lazily must not change a byte.
func TestValidateCellMessages(t *testing.T) {
	if _, err := tinyTwoLevel().Build(); err != nil {
		t.Fatalf("two-level base does not build: %v", err)
	}
	for _, tc := range []struct {
		kind string
		edit func() *Builder
		want string
	}{
		{"cache", func() *Builder {
			b := tiny()
			b.Cache("I").On("V", CoreEv(Load)).Goto("Nowhere")
			return b
		}, `cache cell (V, Load): next state "Nowhere" not declared`},
		{"directory", func() *Builder {
			b := tiny()
			b.Dir("ID").On("ID", MsgQualEv("Req", QLastAck)).Stay()
			return b
		}, `directory cell (ID, Req(last-ack)): qualifier "last-ack" not produced by message "Req" (kind 0)`},
		{"l2", func() *Builder {
			b := tinyTwoLevel()
			b.L2("H").On("HW", MsgEv("Req")).Send("Resp", ToSaved).Stay()
			return b
		}, `l2 cell (HW, Req): destination Saved only resolvable at cache`},
	} {
		_, err := tc.edit().Build()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v\nwant %s", tc.kind, err, tc.want)
		}
	}
}

// TestCloneIsDeep edits every part of a clone — messages, states,
// cells, actions, next states and the three orders, plus the maps
// themselves — and checks the original still encodes as it did, and
// that an untouched clone encodes like its original.
func TestCloneIsDeep(t *testing.T) {
	for _, b := range []*Builder{tiny(), tinyTwoLevel()} {
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := Encode(p.Clone()); string(got) != string(want) {
			t.Fatalf("%s: clone encodes differently:\n%s\nwant\n%s", p.Name, got, want)
		}
		q := p.Clone()
		q.Name += "x"
		for _, m := range q.Messages {
			m.Name += "x"
			m.Type = (m.Type + 1) % 4
			m.Level = LevelOuter
		}
		q.Messages["New"] = &Message{Name: "New"}
		q.msgOrder[0] = "New"
		q.msgOrder = append(q.msgOrder[:1], "Extra")
		for _, c := range q.Controllers() {
			c.Initial += "x"
			for _, s := range c.States {
				s.Name += "x"
				s.Transient = !s.Transient
			}
			c.States["New"] = &State{Name: "New"}
			c.stateOrder[0] = "New"
			c.eventOrder[0] = MsgEv("New")
			for key, tr := range c.Transitions {
				tr.Stall = !tr.Stall
				tr.Next += "x"
				for i := range tr.Actions {
					tr.Actions[i].Msg += "x"
					tr.Actions[i].To = ToSelf
				}
				tr.Actions = append(tr.Actions, Action{Kind: ACopyToMem})
				c.Transitions[TransKey{State: key.State + "x", Event: key.Event}] = tr
			}
		}
		if got, err := Encode(p); err != nil || string(got) != string(want) {
			t.Fatalf("%s: editing a clone changed the original (err %v):\n%s\nwant\n%s", p.Name, err, got, want)
		}
	}
}

// TestDecodeRejectsIllFormedCells: Decode places every cell exactly as
// the document gives it, so a stall cell with actions or a next state
// (core events included) and a send carrying more than one of the
// ack-count flags reach Validate, which names the cell, instead of
// being trimmed into a different table.
func TestDecodeRejectsIllFormedCells(t *testing.T) {
	const doc = `{"name": "tiny", "messages": [{"name": "Req", "type": "request"}, {"name": "Resp", "type": "data"}],
	"cache": {"initial": "I", "stable": ["I", "V"], "transient": ["IV"], "transitions": [
		{"state": "I", "on": "Load", "next": "IV", "do": [{"action": "send", "msg": "Req", "to": "dir"}]},
		{"state": "IV", "on": "Resp", "next": "V"},
		%s]},
	"directory": {"initial": "ID", "stable": ["ID"], "transitions": [
		{"state": "ID", "on": "Req", "do": [{"action": "send", "msg": "Resp", "to": "req"%s}]}]}}`
	const coreStall = `{"state": "IV", "on": "Store", "stall": true}`
	if _, err := Decode([]byte(fmt.Sprintf(doc, coreStall, ""))); err != nil {
		t.Fatalf("well-formed base rejected: %v", err)
	}
	for _, tc := range []struct {
		name, cell, flags, want string
	}{
		{"core stall with a next state", `{"state": "IV", "on": "Store", "stall": true, "next": "V"}`, "",
			"cache cell (IV, Store): stall cell must not have actions or a next state"},
		{"core stall with actions", `{"state": "IV", "on": "Store", "stall": true, "do": [{"action": "send", "msg": "Req", "to": "dir"}]}`, "",
			"cache cell (IV, Store): stall cell must not have actions or a next state"},
		{"message stall with a next state", `{"state": "IV", "on": "Req", "stall": true, "next": "I"}`, "",
			"cache cell (IV, Req): stall cell must not have actions or a next state"},
		{"message stall with actions", `{"state": "IV", "on": "Req", "stall": true, "do": [{"action": "recordSaved"}]}`, "",
			"cache cell (IV, Req): stall cell must not have actions or a next state"},
		{"withAcks and inheritAcks", coreStall, `, "withAcks": true, "inheritAcks": true`,
			`directory cell (ID, Req): send of "Resp" carries more than one of WithAcks, Inherit and ReqSaved`},
		{"inheritAcks and reqSaved", `{"state": "V", "on": "Store", "do": [{"action": "send", "msg": "Req", "to": "dir", "inheritAcks": true, "reqSaved": true}]}`, "",
			`cache cell (V, Store): send of "Req" carries more than one of WithAcks, Inherit and ReqSaved`},
	} {
		_, err := Decode([]byte(fmt.Sprintf(doc, tc.cell, tc.flags)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Decode error %v\nwant one naming %s", tc.name, err, tc.want)
		}
	}
}

// TestDecodeKeepsRowOrder: Decode recovers a column order under which
// every row re-encodes as it was written, though a row written later
// puts an event before one an earlier row listed first.
func TestDecodeKeepsRowOrder(t *testing.T) {
	b := NewBuilder("order")
	b.Message("Req", Request)
	b.Message("Resp", DataResponse)
	c := b.Cache("I").Stable("I", "V").Transient("IV").
		Columns(CoreEv(Load), CoreEv(Store), MsgEv("Resp"))
	c.On("I", CoreEv(Load)).Send("Req", ToDir).Goto("IV")
	c.On("V", MsgEv("Resp")).Stay() // Resp is seen before Store
	c.StallOn("IV", CoreEv(Store))  // but this row lists Store first
	c.On("IV", MsgEv("Resp")).Goto("V")
	b.Dir("ID").Stable("ID").On("ID", MsgEv("Req")).Send("Resp", ToReq).Stay()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := Encode(q); string(got) != string(want) {
		t.Errorf("decoded table re-encodes differently:\n%s\nwant\n%s", got, want)
	}
}

// TestDecodeColumnList: a table whose cells leave its column order open
// — here a column no row shares with another, and a declared column with
// no cells — is encoded with its column list and prints the same after a
// round trip; a list that repeats a column, leaves out one with cells or
// names an unknown qualifier is rejected.
func TestDecodeColumnList(t *testing.T) {
	b := NewBuilder("columns")
	b.Message("Req", Request)
	b.Message("Resp", DataResponse)
	c := b.Cache("I").Stable("I", "V").Transient("IV").
		Columns(CoreEv(Store), CoreEv(Replacement), CoreEv(Load), MsgEv("Resp"))
	c.On("I", CoreEv(Load)).Send("Req", ToDir).Goto("IV")
	c.On("IV", MsgEv("Resp")).Goto("V")
	c.On("V", CoreEv(Store)).Stay()
	b.Dir("ID").Stable("ID").On("ID", MsgEv("Req")).Send("Resp", ToReq).Stay()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(enc, &doc); err != nil {
		t.Fatal(err)
	}
	cache, dir := doc["cache"].(map[string]any), doc["directory"].(map[string]any)
	if dir["columns"] != nil || cache["columns"] == nil {
		t.Fatalf("the cache's column list, and only it, must be encoded:\n%s", enc)
	}
	q, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := FormatProtocol(q), FormatProtocol(p); got != want {
		t.Errorf("round trip prints\n%s\nwant\n%s", got, want)
	}
	if again, _ := Encode(q); string(again) != string(enc) {
		t.Errorf("decoded table re-encodes differently:\n%s\nwant\n%s", again, enc)
	}
	col := func(on, qual string) map[string]string { return map[string]string{"on": on, "qual": qual} }
	for name, tc := range map[string]struct {
		list []map[string]string
		want string
	}{
		"repeated":      {[]map[string]string{col("Store", ""), col("Store", ""), col("Load", ""), col("Resp", "")}, "column Store listed twice"},
		"missing":       {[]map[string]string{col("Store", ""), col("Load", "")}, "column Resp has cells but is not in the column list"},
		"bad qualifier": {[]map[string]string{col("Resp", "bogus")}, `column Resp: unknown qualifier "bogus"`},
	} {
		cache["columns"] = tc.list
		bad, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Decode error %v, want one naming %q", name, err, tc.want)
		}
	}
}
