package protocol

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// oversizedMessages renders a syntactically valid protocol with n
// message declarations (shared with the fuzz corpus generator).
func oversizedMessages(n int) []byte {
	var b strings.Builder
	b.WriteString(`{"name":"big","messages":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"M%d","type":"request"}`, i)
	}
	b.WriteString(`],"cache":{"initial":"I","stable":["I"],"transitions":[]},` +
		`"directory":{"initial":"I","stable":["I"],"transitions":[]}}`)
	return []byte(b.String())
}

// oversizedTransitions renders a protocol whose cache controller has n
// transitions.
func oversizedTransitions(n int) []byte {
	var b strings.Builder
	b.WriteString(`{"name":"big","messages":[{"name":"Get","type":"request"}],` +
		`"cache":{"initial":"I","stable":["I"],"transitions":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"state":"I","on":"Get","stall":true}`)
	}
	b.WriteString(`]},"directory":{"initial":"I","stable":["I"],"transitions":[]}}`)
	return []byte(b.String())
}

func wantLimit(t *testing.T, data []byte, section string) {
	t.Helper()
	_, err := Decode(data)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("Decode error = %v, want *LimitError", err)
	}
	if le.Section != section {
		t.Fatalf("LimitError section = %q, want %q", le.Section, section)
	}
	if le.Count <= le.Max {
		t.Fatalf("LimitError count %d not above max %d", le.Count, le.Max)
	}
}

func TestDecodeRejectsOversizedInput(t *testing.T) {
	// Valid JSON padded past the byte cap: the size check must fire
	// before any parsing happens.
	data := append(oversizedMessages(1), bytes.Repeat([]byte(" "), MaxDecodeBytes)...)
	wantLimit(t, data, "input bytes")
}

func TestDecodeRejectsTooManyMessages(t *testing.T) {
	wantLimit(t, oversizedMessages(MaxMessages+1), "messages")
}

func TestDecodeRejectsTooManyStates(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"name":"big","messages":[],"cache":{"initial":"S0","stable":[`)
	for i := 0; i <= MaxStatesPerController; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"S%d"`, i)
	}
	b.WriteString(`],"transitions":[]},"directory":{"initial":"I","stable":["I"],"transitions":[]}}`)
	wantLimit(t, []byte(b.String()), "cache states")
}

func TestDecodeRejectsTooManyTransitions(t *testing.T) {
	wantLimit(t, oversizedTransitions(MaxTransitionsPerController+1), "cache transitions")
}

func TestDecodeRejectsTooManyColumns(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"name":"big","messages":[{"name":"Get","type":"request"}],` +
		`"cache":{"initial":"I","stable":["I"],"columns":[`)
	for i := 0; i <= MaxTransitionsPerController; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"on":"Get"}`)
	}
	b.WriteString(`],"transitions":[]},"directory":{"initial":"I","stable":["I"],"transitions":[]}}`)
	wantLimit(t, []byte(b.String()), "cache columns")
}

func TestDecodeRejectsTooManyActions(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"name":"big","messages":[{"name":"Get","type":"request"},{"name":"Data","type":"data"}],` +
		`"cache":{"initial":"I","stable":["I"],"transitions":[` +
		`{"state":"I","on":"Get","next":"I","do":[`)
	for i := 0; i <= MaxActionsPerTransition; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"action":"send","msg":"Data","to":"req"}`)
	}
	b.WriteString(`]}]},"directory":{"initial":"I","stable":["I"],"transitions":[]}}`)
	wantLimit(t, []byte(b.String()), `cache transition (I,Get) actions`)
}

// TestDecodeLimitsLeaveValidInputAlone pins that a protocol well under
// every cap still round-trips: the caps must not reject real input.
func TestDecodeLimitsLeaveValidInputAlone(t *testing.T) {
	for _, seed := range fuzzSeeds() {
		p, err := Decode(seed)
		if err != nil {
			t.Fatalf("Decode of in-tree seed failed: %v", err)
		}
		if _, err := Encode(p); err != nil {
			t.Fatalf("Encode failed: %v", err)
		}
	}
}

// TestLimitErrorMessage pins the rendered form relied on by API error
// payloads.
func TestLimitErrorMessage(t *testing.T) {
	e := &LimitError{Section: "messages", Count: 300, Max: 256}
	want := "protocol: messages: 300 exceeds the limit of 256"
	if e.Error() != want {
		t.Fatalf("Error() = %q, want %q", e.Error(), want)
	}
}
