package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"minvn/internal/mc"
)

// corpus is a seeded sample of real frontier states: the input of the
// per-layer replay, so that layer numbers from different commits are
// measured on the same kind of state the searches see.
type corpus struct {
	b      *built
	states [][]byte
}

// sampler keeps a uniform sample of the states a search stores, in
// storage order (reservoir sampling, so the search length need not be
// known). It is an mc.StateObserver.
type sampler struct {
	r    *rand.Rand
	want int
	seen int
	keep [][]byte
}

func (s *sampler) Observe(state []byte) {
	s.seen++
	if len(s.keep) < s.want {
		s.keep = append(s.keep, append([]byte(nil), state...))
		return
	}
	if j := s.r.Intn(s.seen); j < s.want {
		s.keep[j] = append(s.keep[j][:0], state...)
	}
}

// recordCorpus runs the search described by spec with a sampler
// attached and returns want of the states it stored. The same seed
// gives the same corpus: the engines store states in a fixed order.
func recordCorpus(spec searchSpec, seed int64, want int) (*corpus, error) {
	b, err := spec.build()
	if err != nil {
		return nil, err
	}
	s := &sampler{r: rand.New(rand.NewSource(seed)), want: want}
	opts := b.opts
	opts.Observer = s
	res := mc.Check(b.model, opts)
	if res.Outcome != mc.Bounded && res.Outcome != mc.Complete {
		return nil, fmt.Errorf("corpus search of %s ended %s", spec.protocol, res.Outcome.Tag())
	}
	if len(s.keep) == 0 {
		return nil, fmt.Errorf("corpus search of %s stored no states", spec.protocol)
	}
	return &corpus{b: b, states: s.keep}, nil
}

// write stores the corpus as length-prefixed states, so a later run can
// be compared against the exact inputs of this one.
func (c *corpus) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var n [binary.MaxVarintLen64]byte
	for _, s := range c.states {
		w.Write(n[:binary.PutUvarint(n[:], uint64(len(s)))]) // errors surface at Flush
		w.Write(s)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
