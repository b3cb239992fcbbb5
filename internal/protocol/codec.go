package protocol

import (
	"encoding/json"
	"fmt"
	"slices"
)

// The JSON codec lets users define protocols in files and feed them to
// cmd/vnmin / cmd/vnverify without writing Go. The schema mirrors the
// builder API; Decode re-runs the same validation as Build.
//
// Decode also accepts untrusted network input (the vnserved API), so
// it enforces hard resource caps before doing any real work: a total
// byte-size cap checked before json.Unmarshal (bounding allocation),
// then per-section count caps checked before the builder runs. Cap
// violations surface as *LimitError so servers can map them to 4xx
// responses instead of treating them like malformed JSON.

// Decode resource caps. Every real coherence protocol is orders of
// magnitude below these; inputs above them are junk or abuse.
const (
	// MaxDecodeBytes caps the encoded protocol size Decode accepts.
	MaxDecodeBytes = 1 << 20
	// MaxMessages caps the message declarations per protocol.
	MaxMessages = 256
	// MaxStatesPerController caps stable+transient states per
	// controller.
	MaxStatesPerController = 512
	// MaxTransitionsPerController caps transitions per controller.
	MaxTransitionsPerController = 8192
	// MaxActionsPerTransition caps the actions of one transition.
	MaxActionsPerTransition = 64
)

// LimitError reports an input that exceeds one of Decode's resource
// caps. Section names the capped quantity ("input bytes", "messages",
// "cache states", "directory transitions", ...).
type LimitError struct {
	Section string
	Count   int
	Max     int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("protocol: %s: %d exceeds the limit of %d", e.Section, e.Count, e.Max)
}

type jsonProtocol struct {
	Name     string          `json:"name"`
	Messages []jsonMessage   `json:"messages"`
	Cache    *jsonController `json:"cache"`
	Dir      *jsonController `json:"directory"`
	L2       *jsonController `json:"l2,omitempty"`
}

type jsonMessage struct {
	Name  string `json:"name"`
	Type  string `json:"type"`            // request | fwd | data | ctrl
	Ack   string `json:"ack,omitempty"`   // carrier | unit
	Qual  string `json:"qual,omitempty"`  // datasource | ackunit | ownership | lastsharer
	Level string `json:"level,omitempty"` // outer (inner is the default)
}

type jsonController struct {
	Initial   string   `json:"initial"`
	Stable    []string `json:"stable"`
	Transient []string `json:"transient,omitempty"`
	// Columns is the table's column order, written only when the
	// transitions do not determine it (see columnOrder).
	Columns     []jsonEvent      `json:"columns,omitempty"`
	Transitions []jsonTransition `json:"transitions"`
}

type jsonEvent struct {
	On   string `json:"on"`             // core event or message name
	Qual string `json:"qual,omitempty"` // qualifier name
}

type jsonTransition struct {
	State string `json:"state"`
	jsonEvent
	Stall bool         `json:"stall,omitempty"`
	Next  string       `json:"next,omitempty"`
	Do    []jsonAction `json:"do,omitempty"`
}

type jsonAction struct {
	Action   string `json:"action"`        // send | setOwnerToReq | ...
	Msg      string `json:"msg,omitempty"` // for send
	To       string `json:"to,omitempty"`  // dir | req | owner | sharers
	WithAcks bool   `json:"withAcks,omitempty"`
	Inherit  bool   `json:"inheritAcks,omitempty"`
	ReqSaved bool   `json:"reqSaved,omitempty"`
}

var msgTypeByName = map[string]MsgType{
	"request": Request, "fwd": FwdRequest, "data": DataResponse, "ctrl": CtrlResponse,
}

var msgTypeJSONName = map[MsgType]string{
	Request: "request", FwdRequest: "fwd", DataResponse: "data", CtrlResponse: "ctrl",
}

var qualByName = map[string]Qualifier{
	"": QNone, "ack=0": QAckZero, "ack>0": QAckPositive,
	"from-owner": QFromOwner, "from-nonowner": QFromNonOwner,
	"last-ack": QLastAck, "ack": QNotLastAck,
	"last-sharer": QLastSharer, "non-last-sharer": QNotLastSharer,
}

var qualKindByName = map[string]QualKind{
	"": QualNone, "datasource": QualDataSource, "ackunit": QualAckUnit,
	"ownership": QualOwnership, "lastsharer": QualLastSharer,
}

var qualKindJSONName = map[QualKind]string{
	QualNone: "", QualDataSource: "datasource", QualAckUnit: "ackunit",
	QualOwnership: "ownership", QualLastSharer: "lastsharer",
}

var destByName = map[string]Dest{
	"dir": ToDir, "req": ToReq, "owner": ToOwner, "sharers": ToSharers, "saved": ToSaved,
	"self": ToSelf,
}

var destJSONName = map[Dest]string{
	ToDir: "dir", ToReq: "req", ToOwner: "owner", ToSharers: "sharers", ToSaved: "saved",
	ToSelf: "self",
}

var actionByName = map[string]ActionKind{
	"send": ASend, "setOwnerToReq": ASetOwnerToReq, "clearOwner": AClearOwner,
	"addReqToSharers": AAddReqToSharers, "addOwnerToSharers": AAddOwnerToSharers,
	"removeReqFromSharers": ARemoveReqFromSharers, "clearSharers": AClearSharers,
	"copyToMem": ACopyToMem, "recordSaved": ARecordSaved, "expectAcks": AExpectAcks,
}

var actionJSONName = func() map[ActionKind]string {
	m := make(map[ActionKind]string, len(actionByName))
	for n, k := range actionByName {
		m[k] = n
	}
	return m
}()

// Encode serializes a protocol to indented JSON.
func Encode(p *Protocol) ([]byte, error) {
	jp := jsonProtocol{Name: p.Name}
	for _, name := range p.MessageNames() {
		m := p.Messages[name]
		jm := jsonMessage{Name: name, Type: msgTypeJSONName[m.Type], Qual: qualKindJSONName[m.Qual]}
		if m.Level == LevelOuter {
			jm.Level = "outer"
		}
		switch m.Ack {
		case AckCarrier:
			jm.Ack = "carrier"
		case AckUnit:
			jm.Ack = "unit"
		}
		jp.Messages = append(jp.Messages, jm)
	}
	encodeCtrl := func(c *Controller) *jsonController {
		jc := &jsonController{Initial: c.Initial}
		for _, s := range c.StateNames() {
			if c.States[s].Transient {
				jc.Transient = append(jc.Transient, s)
			} else {
				jc.Stable = append(jc.Stable, s)
			}
		}
		// each transition's column, and the columns in first-seen order
		evs, seen := make([]Event, 0, len(c.Transitions)), make([]Event, 0, len(c.eventOrder))
		c.EachCell(func(s string, ev Event, t *Transition) {
			jt := jsonTransition{State: s, jsonEvent: encodeEvent(ev), Stall: t.Stall, Next: t.Next}
			evs = append(evs, ev)
			if !slices.Contains(seen, ev) {
				seen = append(seen, ev)
			}
			for _, a := range t.Actions {
				ja := jsonAction{Action: actionJSONName[a.Kind]}
				if a.Kind == ASend {
					ja.Msg = a.Msg
					ja.To = destJSONName[a.To]
					ja.WithAcks = a.WithAcks
					ja.Inherit = a.Inherit
					ja.ReqSaved = a.ReqSaved
				}
				jt.Do = append(jt.Do, ja)
			}
			jc.Transitions = append(jc.Transitions, jt)
		})
		if !slices.Equal(columnOrder(jc.Transitions, evs, seen), c.eventOrder) {
			jc.Columns = make([]jsonEvent, len(c.eventOrder))
			for i, ev := range c.eventOrder {
				jc.Columns[i] = encodeEvent(ev)
			}
		}
		return jc
	}
	jp.Cache = encodeCtrl(p.Cache)
	jp.Dir = encodeCtrl(p.Dir)
	if p.L2 != nil {
		jp.L2 = encodeCtrl(p.L2)
	}
	return json.MarshalIndent(jp, "", "  ")
}

// MarshalJSON embeds a protocol in a larger JSON document (the dist
// init request's machine.Config) as its Encode document.
func (p *Protocol) MarshalJSON() ([]byte, error) { return Encode(p) }

// UnmarshalJSON rebuilds an embedded protocol through Decode, so the
// same caps and validation apply as to a standalone document and a
// *LimitError reaches the caller of json.Unmarshal unchanged.
func (p *Protocol) UnmarshalJSON(data []byte) error {
	q, err := Decode(data)
	if err != nil {
		return err
	}
	*p = *q
	return nil
}

// Decode parses a JSON protocol definition and validates it. Inputs
// exceeding the decode caps above are rejected with a *LimitError.
func Decode(data []byte) (*Protocol, error) {
	if len(data) > MaxDecodeBytes {
		return nil, &LimitError{Section: "input bytes", Count: len(data), Max: MaxDecodeBytes}
	}
	var jp jsonProtocol
	if err := json.Unmarshal(data, &jp); err != nil {
		return nil, fmt.Errorf("protocol: parse: %w", err)
	}
	if len(jp.Messages) > MaxMessages {
		return nil, &LimitError{Section: "messages", Count: len(jp.Messages), Max: MaxMessages}
	}
	for _, side := range []struct {
		name string
		jc   *jsonController
	}{{"cache", jp.Cache}, {"directory", jp.Dir}, {"l2", jp.L2}} {
		if side.jc == nil {
			continue
		}
		if n := len(side.jc.Stable) + len(side.jc.Transient); n > MaxStatesPerController {
			return nil, &LimitError{Section: side.name + " states", Count: n, Max: MaxStatesPerController}
		}
		if n := len(side.jc.Transitions); n > MaxTransitionsPerController {
			return nil, &LimitError{Section: side.name + " transitions", Count: n, Max: MaxTransitionsPerController}
		}
		if n := len(side.jc.Columns); n > MaxTransitionsPerController {
			return nil, &LimitError{Section: side.name + " columns", Count: n, Max: MaxTransitionsPerController}
		}
		for _, jt := range side.jc.Transitions {
			if len(jt.Do) > MaxActionsPerTransition {
				return nil, &LimitError{
					Section: fmt.Sprintf("%s transition (%s,%s) actions", side.name, jt.State, jt.On),
					Count:   len(jt.Do), Max: MaxActionsPerTransition,
				}
			}
		}
	}
	b := NewBuilder(jp.Name)
	for _, jm := range jp.Messages {
		t, ok := msgTypeByName[jm.Type]
		if !ok {
			return nil, fmt.Errorf("protocol: message %q: unknown type %q", jm.Name, jm.Type)
		}
		m := Message{Name: jm.Name, Type: t}
		switch jm.Ack {
		case "":
		case "carrier":
			m.Ack = AckCarrier
		case "unit":
			m.Ack = AckUnit
		default:
			return nil, fmt.Errorf("protocol: message %q: unknown ack role %q", jm.Name, jm.Ack)
		}
		if m.Qual, ok = qualKindByName[jm.Qual]; !ok {
			return nil, fmt.Errorf("protocol: message %q: unknown qual kind %q", jm.Name, jm.Qual)
		}
		switch jm.Level {
		case "", "inner":
		case "outer":
			m.Level = LevelOuter
		default:
			return nil, fmt.Errorf("protocol: message %q: unknown level %q", jm.Name, jm.Level)
		}
		b.Declare(m)
	}

	var acts []Action
	var evs []Event
	decodeCtrl := func(jc *jsonController, cb *ControllerBuilder) error {
		cb.Stable(jc.Stable...)
		cb.Transient(jc.Transient...)
		evs = evs[:0]
		for _, jt := range jc.Transitions {
			ev, ok := decodeEvent(jt.jsonEvent)
			if !ok {
				return fmt.Errorf("protocol: transition (%s,%s): unknown qualifier %q", jt.State, jt.On, jt.Qual)
			}
			acts = acts[:0]
			for _, ja := range jt.Do {
				kind, ok := actionByName[ja.Action]
				if !ok {
					return fmt.Errorf("protocol: transition (%s,%s): unknown action %q", jt.State, jt.On, ja.Action)
				}
				a := Action{Kind: kind}
				if kind == ASend {
					to, ok := destByName[ja.To]
					if !ok {
						return fmt.Errorf("protocol: transition (%s,%s): unknown destination %q", jt.State, jt.On, ja.To)
					}
					a = Action{Kind: ASend, Msg: ja.Msg, To: to, WithAcks: ja.WithAcks, Inherit: ja.Inherit, ReqSaved: ja.ReqSaved}
				}
				acts = append(acts, a)
			}
			cb.Set(jt.State, ev, Transition{Stall: jt.Stall, Actions: acts, Next: jt.Next})
			evs = append(evs, ev)
		}
		if jc.Columns == nil {
			cb.c.eventOrder = columnOrder(jc.Transitions, evs, cb.c.eventOrder)
			return nil
		}
		cols := make([]Event, 0, len(jc.Columns))
		listed := make(map[Event]bool, len(jc.Columns))
		for _, je := range jc.Columns {
			ev, ok := decodeEvent(je)
			if !ok {
				return fmt.Errorf("protocol: column %s: unknown qualifier %q", je.On, je.Qual)
			}
			if listed[ev] {
				return fmt.Errorf("protocol: column %s listed twice", ev)
			}
			listed[ev] = true
			cols = append(cols, ev)
		}
		for _, ev := range cb.c.eventOrder {
			if !listed[ev] {
				return fmt.Errorf("protocol: column %s has cells but is not in the column list", ev)
			}
		}
		cb.c.eventOrder = cols
		return nil
	}

	if jp.Cache == nil || jp.Dir == nil {
		return nil, fmt.Errorf("protocol: both cache and directory controllers are required")
	}
	for _, side := range []struct {
		kind ControllerKind
		jc   *jsonController
	}{{CacheCtrl, jp.Cache}, {DirCtrl, jp.Dir}, {L2Ctrl, jp.L2}} {
		if side.jc == nil {
			continue
		}
		if err := decodeCtrl(side.jc, b.Controller(side.kind, side.jc.Initial)); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// encodeEvent is how a transition or the column list names ev.
func encodeEvent(ev Event) jsonEvent {
	if ev.IsCore() {
		return jsonEvent{On: string(ev.Core)}
	}
	return jsonEvent{On: ev.Msg, Qual: ev.Qual.String()}
}

// decodeEvent is encodeEvent's inverse; false means an unknown
// qualifier.
func decodeEvent(je jsonEvent) (Event, bool) {
	switch CoreEvent(je.On) {
	case Load, Store, Replacement:
		return CoreEv(CoreEvent(je.On)), true
	}
	q, ok := qualByName[je.Qual]
	return MsgQualEv(je.On, q), ok
}

// columnOrder returns a column order under which Encode writes a
// decoded controller's transitions as they were read, evs[i] being the
// column of jts[i] and seen the columns in the order they were first
// seen. Encode writes the table row by row, each row's cells in column
// order, so seen already is such an order unless a row lists an event
// ahead of one an earlier row listed first. Then an event goes after
// every event just ahead of it in a row, and otherwise where it was
// first seen. Columns that never share a row, and a declared column
// with no cells, are left where this puts them; Encode writes a
// controller's column list when that is not its order.
func columnOrder(jts []jsonTransition, evs, seen []Event) []Event {
	pos := func(ev Event) int {
		for i, e := range seen {
			if e == ev {
				return i
			}
		}
		return -1
	}
	agree := true
	for i := 1; i < len(evs) && agree; i++ {
		agree = jts[i].State != jts[i-1].State || pos(evs[i-1]) < pos(evs[i])
	}
	if agree {
		return seen
	}
	before := make([][]int, len(seen))
	for i := 1; i < len(evs); i++ {
		if jts[i].State == jts[i-1].State {
			j := pos(evs[i])
			before[j] = append(before[j], pos(evs[i-1]))
		}
	}
	order := make([]Event, 0, len(seen))
	placed := make([]bool, len(seen))
	var place func(j int)
	place = func(j int) {
		if placed[j] {
			return
		}
		placed[j] = true // on entry, so a cycle (only a hand-edited file has one) is cut here
		for _, k := range before[j] {
			place(k)
		}
		order = append(order, seen[j])
	}
	for j := range seen {
		place(j)
	}
	return order
}
