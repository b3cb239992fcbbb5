package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddHasSize(t *testing.T) {
	r := New()
	if !r.IsEmpty() {
		t.Fatal("new relation should be empty")
	}
	r.Add("a", "b")
	r.Add("a", "b") // duplicate
	r.Add("b", "c")
	if r.Size() != 2 {
		t.Fatalf("size = %d, want 2", r.Size())
	}
	if !r.Has("a", "b") || !r.Has("b", "c") || r.Has("b", "a") {
		t.Fatal("membership wrong")
	}
}

func TestPairsDeterministic(t *testing.T) {
	r := FromPairs(Pair{"c", "a"}, Pair{"a", "b"}, Pair{"a", "a"})
	got := r.Pairs()
	want := []Pair{{"a", "a"}, {"a", "b"}, {"c", "a"}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if arrays := r.Arrays(); !reflect.DeepEqual(arrays, [][2]string{{"a", "a"}, {"a", "b"}, {"c", "a"}}) {
		t.Fatalf("Arrays() = %v, want Pairs() in the same order", arrays)
	}
}

func TestInverse(t *testing.T) {
	r := FromPairs(Pair{"a", "b"}, Pair{"b", "c"})
	inv := r.Inverse()
	if !inv.Has("b", "a") || !inv.Has("c", "b") || inv.Size() != 2 {
		t.Fatalf("inverse wrong: %v", inv)
	}
	if !inv.Inverse().Equal(r) {
		t.Fatal("double inverse should be identity")
	}
}

func TestCompose(t *testing.T) {
	r := FromPairs(Pair{"a", "b"}, Pair{"a", "c"})
	s := FromPairs(Pair{"b", "x"}, Pair{"c", "y"}, Pair{"z", "w"})
	c := r.Compose(s)
	want := FromPairs(Pair{"a", "x"}, Pair{"a", "y"})
	if !c.Equal(want) {
		t.Fatalf("compose = %v, want %v", c, want)
	}
}

func TestTransitiveClosure(t *testing.T) {
	r := FromPairs(Pair{"a", "b"}, Pair{"b", "c"}, Pair{"c", "d"})
	tc := r.TransitiveClosure()
	for _, p := range []Pair{{"a", "b"}, {"a", "c"}, {"a", "d"}, {"b", "d"}} {
		if !tc.Has(p.From, p.To) {
			t.Errorf("closure missing %v", p)
		}
	}
	if tc.Has("d", "a") {
		t.Error("closure has spurious pair")
	}
	// A cycle puts every node in relation with itself.
	cyc := FromPairs(Pair{"a", "b"}, Pair{"b", "a"}).TransitiveClosure()
	if !cyc.Has("a", "a") || !cyc.Has("b", "b") {
		t.Error("cycle closure should include self-pairs")
	}
}

func TestReflexiveTransitiveClosure(t *testing.T) {
	r := FromPairs(Pair{"a", "b"})
	rt := r.ReflexiveTransitiveClosure([]string{"a", "b", "z"})
	for _, p := range []Pair{{"a", "a"}, {"b", "b"}, {"z", "z"}, {"a", "b"}} {
		if !rt.Has(p.From, p.To) {
			t.Errorf("r* missing %v", p)
		}
	}
}

func TestCycleWitness(t *testing.T) {
	if w := FromPairs(Pair{"a", "b"}, Pair{"b", "c"}).CycleWitness(); w != nil {
		t.Fatalf("acyclic relation returned witness %v", w)
	}
	r := FromPairs(Pair{"a", "b"}, Pair{"b", "c"}, Pair{"c", "a"}, Pair{"x", "a"})
	w := r.CycleWitness()
	if len(w) == 0 {
		t.Fatal("expected a witness")
	}
	// Verify the witness is a real cycle.
	for i := range w {
		if !r.Has(w[i], w[(i+1)%len(w)]) {
			t.Fatalf("witness %v has no edge %s->%s", w, w[i], w[(i+1)%len(w)])
		}
	}
	// Self loop.
	if w := FromPairs(Pair{"s", "s"}).CycleWitness(); len(w) != 1 || w[0] != "s" {
		t.Fatalf("self-loop witness = %v", w)
	}
}

func TestRestrict(t *testing.T) {
	r := FromPairs(Pair{"a", "b"}, Pair{"b", "c"}, Pair{"c", "a"})
	sub := r.Restrict(map[string]bool{"a": true, "b": true})
	if !sub.Equal(FromPairs(Pair{"a", "b"})) {
		t.Fatalf("restrict = %v", sub)
	}
}

func TestUnionCloneEqual(t *testing.T) {
	r := FromPairs(Pair{"a", "b"})
	s := FromPairs(Pair{"b", "c"})
	u := r.Union(s)
	if !u.Has("a", "b") || !u.Has("b", "c") || u.Size() != 2 {
		t.Fatalf("union wrong: %v", u)
	}
	// Union must not mutate operands.
	if r.Size() != 1 || s.Size() != 1 {
		t.Fatal("union mutated an operand")
	}
	c := u.Clone()
	c.Add("x", "y")
	if u.Has("x", "y") {
		t.Fatal("clone shares storage with original")
	}
}

// Property tests over small random relations.

type pairList []Pair

func fromBytes(data []byte) *Relation {
	names := []string{"a", "b", "c", "d", "e"}
	r := New()
	for i := 0; i+1 < len(data); i += 2 {
		r.Add(names[int(data[i])%len(names)], names[int(data[i+1])%len(names)])
	}
	return r
}

func TestPropClosureIdempotent(t *testing.T) {
	f := func(data []byte) bool {
		r := fromBytes(data)
		tc := r.TransitiveClosure()
		return tc.TransitiveClosure().Equal(tc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropClosureContains(t *testing.T) {
	f := func(data []byte) bool {
		r := fromBytes(data)
		tc := r.TransitiveClosure()
		for _, p := range r.Pairs() {
			if !tc.Has(p.From, p.To) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropInverseComposeDual(t *testing.T) {
	// (r ; s)⁻¹ == s⁻¹ ; r⁻¹
	f := func(d1, d2 []byte) bool {
		r, s := fromBytes(d1), fromBytes(d2)
		left := r.Compose(s).Inverse()
		right := s.Inverse().Compose(r.Inverse())
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropCycleWitnessSound(t *testing.T) {
	f := func(data []byte) bool {
		r := fromBytes(data)
		w := r.CycleWitness()
		if w == nil {
			// Acyclic: the closure must have no self-pair.
			tc := r.TransitiveClosure()
			for _, e := range r.Elements() {
				if tc.Has(e, e) {
					return false
				}
			}
			return true
		}
		for i := range w {
			if !r.Has(w[i], w[(i+1)%len(w)]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// naive is the reference the bit-matrix operators are checked against:
// a set of pairs, every operator by its definition.
type naive map[Pair]bool

func (a naive) union(b naive) naive {
	out := naive{}
	for p := range a {
		out[p] = true
	}
	for p := range b {
		out[p] = true
	}
	return out
}

func (a naive) inverse() naive {
	out := naive{}
	for p := range a {
		out[Pair{p.To, p.From}] = true
	}
	return out
}

func (a naive) compose(b naive) naive {
	next := map[string][]string{}
	for q := range b {
		next[q.From] = append(next[q.From], q.To)
	}
	out := naive{}
	for p := range a {
		for _, to := range next[p.To] {
			out[Pair{p.From, to}] = true
		}
	}
	return out
}

func (a naive) closure() naive {
	out := a.union(nil)
	for grew := true; grew; {
		step := out.union(out.compose(a))
		grew = len(step) > len(out)
		out = step
	}
	return out
}

func (a naive) restrict(keep map[string]bool) naive {
	out := naive{}
	for p := range a {
		if keep[p.From] && keep[p.To] {
			out[p] = true
		}
	}
	return out
}

// sorted lists the pairs like Relation.Pairs does.
func (a naive) sorted() []Pair {
	out := make([]Pair, 0, len(a))
	for p := range a {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].From < out[j].From || out[i].From == out[j].From && out[i].To < out[j].To
	})
	return out
}

func (a naive) relation() *Relation { return FromPairs(a.sorted()...) }

// randomNaive draws pairs over names[lo:hi], about 1.2 per name, so
// closures are neither empty nor full.
func randomNaive(r *rand.Rand, names []string, lo, hi int) naive {
	out := naive{}
	for i := 0; i < (hi-lo)*6/5+1; i++ {
		out[Pair{names[lo+r.Intn(hi-lo)], names[lo+r.Intn(hi-lo)]}] = true
	}
	return out
}

// same reports whether got holds exactly want's pairs, in Pairs order.
func same(t *testing.T, op string, got *Relation, want naive) {
	t.Helper()
	if !reflect.DeepEqual(got.Pairs(), want.sorted()) {
		t.Fatalf("%s: got %d pairs %v, want %d", op, got.Size(), got, len(want))
	}
	if got.Size() != len(want) || got.IsEmpty() != (len(want) == 0) {
		t.Fatalf("%s: Size/IsEmpty disagree with Pairs", op)
	}
}

// TestOperatorsMatchNaive checks every operator against the naive
// reference on random relations over universes that need one, two,
// three and four words per row, with operands over one shared universe
// (how the analysis builds them) and over different, overlapping ones
// (how relation.New's ad-hoc users do).
func TestOperatorsMatchNaive(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130, 256} {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("m%03d", i)
		}
		u := NewUniverse(names...)
		r := rand.New(rand.NewSource(int64(n)))
		for round := 0; round < 4; round++ {
			// Odd rounds: a over the lower two thirds of the names,
			// b over the upper two thirds, each with its own universe.
			na, nb := randomNaive(r, names, 0, n), randomNaive(r, names, 0, n)
			var a, b *Relation
			if round%2 == 0 {
				a, b = na.relation().Over(u), nb.relation().Over(u)
			} else {
				na, nb = randomNaive(r, names, 0, (2*n+2)/3), randomNaive(r, names, n/3, n)
				a, b = na.relation(), nb.relation()
			}
			same(t, "operand", a, na)
			same(t, "Clone", a.Clone(), na)
			same(t, "Union", a.Union(b), na.union(nb))
			same(t, "Inverse", a.Inverse(), na.inverse())
			same(t, "Compose", a.Compose(b), na.compose(nb))
			same(t, "TransitiveClosure", a.TransitiveClosure(), na.closure())

			some := names[:r.Intn(n)+1]
			star := na.closure()
			for _, p := range na.sorted() {
				star[Pair{p.From, p.From}], star[Pair{p.To, p.To}] = true, true
			}
			keep := map[string]bool{}
			for _, m := range some {
				star[Pair{m, m}] = true
				keep[m] = r.Intn(2) == 0
			}
			same(t, "ReflexiveTransitiveClosure", a.ReflexiveTransitiveClosure(some), star)
			same(t, "Restrict", a.Restrict(keep), na.restrict(keep))

			if a.Equal(b) != reflect.DeepEqual(na.sorted(), nb.sorted()) || !a.Equal(na.relation()) {
				t.Fatalf("n=%d: Equal disagrees with the pairs", n)
			}
			elems := map[string]bool{}
			for p := range na {
				elems[p.From], elems[p.To] = true, true
				if !a.Has(p.From, p.To) || !slices.Contains(a.Image(p.From), p.To) {
					t.Fatalf("n=%d: %v missing from Has/Image", n, p)
				}
			}
			if got := a.Elements(); len(got) != len(elems) || !sort.StringsAreSorted(got) {
				t.Fatalf("n=%d: Elements = %v, want the %d sorted names in pairs", n, got, len(elems))
			}
			for _, m := range names {
				if !sort.StringsAreSorted(a.Image(m)) {
					t.Fatalf("n=%d: Image(%s) unsorted: %v", n, m, a.Image(m))
				}
			}

			// The witness is a cycle of a, and there is one exactly
			// when the closure relates some name to itself.
			cyclic := false
			for p := range na.closure() {
				cyclic = cyclic || p.From == p.To
			}
			w := a.CycleWitness()
			if (w != nil) != cyclic || a.HasCycle() != cyclic {
				t.Fatalf("n=%d: witness %v, HasCycle %v, reference cyclic=%v", n, w, a.HasCycle(), cyclic)
			}
			for i := range w {
				if !na[Pair{w[i], w[(i+1)%len(w)]}] {
					t.Fatalf("n=%d: witness %v is not a cycle of the relation", n, w)
				}
			}
		}
	}
}
