package ptest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"minvn/internal/dist"
	"minvn/internal/protocol"
	"minvn/internal/protocol/xform"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

// TestRepeatedColumnRoundTrips: a column declared twice keeps its first
// position, so the table every rebuild path makes of it is the table
// itself — the codec, a Spec, the non-stalling transform — and a
// distributed search, whose workers decode the protocol, runs it.
func TestRepeatedColumnRoundTrips(t *testing.T) {
	load := protocol.CoreEv(protocol.Load)
	b := protocol.NewBuilder("repeated_column")
	b.Message("Req", protocol.Request)
	b.Message("Rsp", protocol.DataResponse)
	c := b.Cache("I").Stable("I").Transient("W").Columns(load, load)
	c.On("I", load).Send("Req", protocol.ToDir).Goto("W")
	c.StallOn("W", load)
	c.On("W", protocol.MsgEv("Rsp")).Goto("I")
	b.Dir("H").Stable("H").On("H", protocol.MsgEv("Req")).Send("Rsp", protocol.ToReq).Stay()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := protocol.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := protocol.Decode(want)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	lifted, err := FromProtocol(p).Build()
	if err != nil {
		t.Fatalf("FromProtocol → Build: %v", err)
	}
	for _, q := range []*protocol.Protocol{decoded, lifted} {
		if got, _ := protocol.Encode(q); !bytes.Equal(got, want) {
			t.Errorf("rebuilt table encodes differently:\n%s\nwant\n%s", got, want)
		}
	}
	if _, err := xform.NonStalling(p); err != nil {
		t.Errorf("NonStalling: %v", err)
	}

	run := func(engine string) int {
		spec := dist.Spec{Caches: 2, Dirs: 1, Addrs: 1, NoSymmetry: true, Engine: engine, Workers: 2}
		job, err := spec.Resolve(p, nil)
		if err != nil {
			t.Fatalf("%s: resolve: %v", engine, err)
		}
		res, err := dist.Run(context.Background(), job)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		return res.States
	}
	if d, s := run("dist"), run("seq"); d != s || d == 0 {
		t.Errorf("dist stored %d states, seq %d", d, s)
	}
}

// TestReproRebuildsShrunkProtocol: the Go test a repro renders decodes
// exactly the shrunk protocol the record carries, and that protocol is
// the one the harness shrank — for a mutated CHI case, whose column
// order the codec must recover, for a two-level composite, whose
// messages carry levels and ack roles and whose L2 controller a
// builder-call rendering left out, and for a document holding a
// backquote, which cannot go in a raw string literal.
func TestReproRebuildsShrunkProtocol(t *testing.T) {
	g := NewGenerator(GenConfig{MutateFrac: 1, XformFrac: -1})
	var chi *Case
	for seed := int64(0); chi == nil; seed++ {
		if c := g.Generate(seed); c.Origin == "mutated:CHI" {
			chi = c
		}
	}
	comp, err := xform.Compose(protocols.MustLoad("MSI_blocking_cache"), protocols.MustLoad("MESI_blocking_cache"), "MSI_under_MESI")
	if err != nil {
		t.Fatal(err)
	}
	// A backquote in the document makes the renderer quote it.
	ping := pingSpec()
	ping.Name = "selftest_`ping`"
	pingProto, err := ping.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Case{
		chi,
		{Spec: FromProtocol(comp), Proto: comp, Seed: 5, Origin: "xform:compose"},
		{Spec: ping, Proto: pingProto, Seed: 6, Origin: "synthesized"},
	} {
		// A static predicate keeps the shrink cheap; the record and
		// the rendered test are written as for any violation.
		class := vnassign.Assign(c.Proto).Class
		shrunk := Shrink(c.Spec, func(p *protocol.Protocol) bool { return vnassign.Assign(p).Class == class }, 50)
		v := &Violation{Index: 1, Case: c, Shrunk: shrunk, Result: &CaseResult{Verdict: VerdictSoundnessBug}}
		path, err := WriteRepro(t.TempDir(), 1, Options{}, v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := protocol.Encode(shrunk.Proto)
		if err != nil {
			t.Fatal(err)
		}

		var rec struct {
			Extra struct {
				Shrunk json.RawMessage `json:"shrunk_protocol"`
			} `json:"extra"`
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		src, err := os.ReadFile(strings.TrimSuffix(path, ".json") + "_test.go.txt")
		if err != nil {
			t.Fatal(err)
		}
		arg, err := decodeArg(src)
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.Proto.Name, err, src)
		}
		// The record is written canonically (keys sorted), so the two
		// documents are compared as JSON values.
		var fromSrc, fromRec any
		if json.Unmarshal(arg, &fromSrc) != nil || json.Unmarshal(rec.Extra.Shrunk, &fromRec) != nil ||
			!reflect.DeepEqual(fromSrc, fromRec) {
			t.Errorf("%s: the rendered test decodes another document than the record's shrunk_protocol", c.Proto.Name)
		}
		q, err := protocol.Decode(arg)
		if err != nil {
			t.Fatalf("%s: rendered protocol does not decode: %v", c.Proto.Name, err)
		}
		if got, _ := protocol.Encode(q); !bytes.Equal(got, want) {
			t.Errorf("%s: rendered test rebuilds another protocol:\n%s\nwant\n%s", c.Proto.Name, got, want)
		}
	}
}

// decodeArg parses a rendered repro test and returns the unquoted
// argument of its protocol.Decode([]byte(...)) call.
func decodeArg(src []byte) ([]byte, error) {
	f, err := parser.ParseFile(token.NewFileSet(), "repro_test.go", src, 0)
	if err != nil {
		return nil, err
	}
	var lit *ast.BasicLit
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Decode" {
			return true
		}
		if conv, ok := call.Args[0].(*ast.CallExpr); ok && len(conv.Args) == 1 {
			lit, _ = conv.Args[0].(*ast.BasicLit)
		}
		return lit == nil
	})
	if lit == nil {
		return nil, errors.New("no protocol.Decode([]byte(...)) call")
	}
	s, err := strconv.Unquote(lit.Value)
	return []byte(s), err
}
