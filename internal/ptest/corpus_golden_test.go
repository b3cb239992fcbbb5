package ptest

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"minvn/internal/protocol"
)

var updateCorpus = flag.Bool("update", false, "rewrite testdata/derived_corpus.golden")

// TestDerivedCorpusGolden pins every table this repository derives
// rather than writes by hand, byte for byte: the SHA-256 of the codec
// JSON of each protocol in the static sweep's set, the family
// (NonStalling variants and composites) and 400 cases of the default
// generator. The digests were recorded before the transforms, the
// codec and Spec.Build were routed through the builder's value-level
// entry points, so a mismatch means a derived table, its authoring
// order, or the generator's retry stream changed.
func TestDerivedCorpusGolden(t *testing.T) {
	var got []string
	add := func(set string, p *protocol.Protocol) {
		enc, err := protocol.Encode(p)
		if err != nil {
			t.Fatalf("%s %s: encode: %v", set, p.Name, err)
		}
		got = append(got, fmt.Sprintf("%s %03d %s %x", set, len(got), p.Name, sha256.Sum256(enc)))
	}
	for _, p := range SweepSet([]int64{3, 11}, 300) {
		add("sweep", p)
	}
	fam, err := Family()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range fam {
		add("family", m.Proto)
	}
	gen := NewGenerator(GenConfig{})
	for seed := int64(0); seed < 400; seed++ {
		add("gen", gen.Generate(seed).Proto)
	}

	path := filepath.Join("testdata", "derived_corpus.golden")
	if *updateCorpus {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d protocols, test has %d (re-record with -update only if the set changed)", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("derived table diverged\n got  %s\n want %s", got[i], want[i])
		}
	}
}
