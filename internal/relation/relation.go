// Package relation implements finite binary relations over message names,
// together with the operators the paper's formalism is built from:
// union, inverse, composition, and (reflexive) transitive closure.
//
// Names are interned: a Universe is a sorted set of names, a name's
// index is its rank in it, and a Relation over a universe of n names is
// n rows of ⌈n/64⌉ words, bit j of row i standing for the pair
// (name i, name j). Because the interning is sorted, ascending bit
// order is lexicographic name order, so every listing (Pairs, Image,
// String, a cycle witness) comes out sorted without sorting, and every
// traversal that breaks ties "by name" breaks them by index. Union,
// inverse and composition are word operations, closure is Warshall on
// rows, cyclicity is the closure's diagonal.
//
// The analysis packages build one universe per protocol and work on
// indexes and rows (Set, Test, Row); the string methods (Add, Has,
// Image, Pairs, …) are the edge of the representation. A relation made
// with New starts over the empty universe and grows it as names are
// added; operands over different universes are re-indexed over their
// union first, so the operators are total.
package relation

import (
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Pair is one ordered element (From, To) of a relation.
type Pair struct {
	From, To string
}

// Universe is an immutable sorted set of names.
type Universe struct {
	names []string
}

// NewUniverse interns names (in any order, duplicates allowed).
func NewUniverse(names ...string) *Universe {
	s := append([]string(nil), names...)
	sort.Strings(s)
	return &Universe{names: slices.Compact(s)}
}

// Len returns the number of names.
func (u *Universe) Len() int { return len(u.names) }

// Name returns the name with index i.
func (u *Universe) Name(i int) string { return u.names[i] }

// Names returns all names in index (sorted) order.
func (u *Universe) Names() []string { return append([]string(nil), u.names...) }

// Index returns the index of name; ok is false if it is not interned.
func (u *Universe) Index(name string) (i int, ok bool) {
	return slices.BinarySearch(u.names, name)
}

// same reports whether u and v intern the same names.
func (u *Universe) same(v *Universe) bool { return u == v || slices.Equal(u.names, v.names) }

// NewRow returns an empty set of indexes of u.
func (u *Universe) NewRow() Row { return make(Row, (len(u.names)+63)/64) }

// Row is a set of indexes: one row of a relation, or any set over the
// same universe.
type Row []uint64

// Has reports whether j is in the set.
func (w Row) Has(j int) bool { return w[j>>6]&(1<<(j&63)) != 0 }

// Set inserts j.
func (w Row) Set(j int) { w[j>>6] |= 1 << (j & 63) }

// Or inserts every member of o.
func (w Row) Or(o Row) {
	for k, x := range o {
		w[k] |= x
	}
}

// And keeps only the members also in o.
func (w Row) And(o Row) {
	for k, x := range o {
		w[k] &= x
	}
}

// AndNot removes every member of o.
func (w Row) AndNot(o Row) {
	for k, x := range o {
		w[k] &^= x
	}
}

// Empty reports whether the set has no member.
func (w Row) Empty() bool {
	for _, x := range w {
		if x != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of members.
func (w Row) Count() int {
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	return n
}

// Next returns the smallest member greater than after, or -1 if there
// is none: for j := w.Next(-1); j >= 0; j = w.Next(j) visits the set
// in ascending order without allocating.
func (w Row) Next(after int) int {
	for j := after + 1; j>>6 < len(w); j = (j>>6 + 1) << 6 {
		if x := w[j>>6] >> (j & 63); x != 0 {
			return j + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// Relation is a mutable finite binary relation over a universe.
// The zero value is not usable; call New or NewOver.
type Relation struct {
	u     *Universe
	words int // per row
	bits  []uint64
}

// New returns an empty relation over the empty universe; Add grows it.
func New() *Relation { return NewOver(&Universe{}) }

// NewOver returns an empty relation over u.
func NewOver(u *Universe) *Relation {
	words := (u.Len() + 63) / 64
	return &Relation{u: u, words: words, bits: make([]uint64, u.Len()*words)}
}

// FromPairs builds a relation containing exactly the given pairs.
func FromPairs(pairs ...Pair) *Relation {
	r := New()
	for _, p := range pairs {
		r.Add(p.From, p.To)
	}
	return r
}

// Universe returns the universe r is indexed over.
func (r *Relation) Universe() *Universe { return r.u }

// Row returns row i, the set of j with (i, j) in r. It aliases r.
func (r *Relation) Row(i int) Row { return r.bits[i*r.words : (i+1)*r.words] }

// Set inserts the pair of indexes (i, j).
func (r *Relation) Set(i, j int) { r.Row(i).Set(j) }

// Test reports whether the pair of indexes (i, j) is in r.
func (r *Relation) Test(i, j int) bool { return r.Row(i).Has(j) }

// Each calls fn for every pair of indexes, in ascending (i, j) order.
func (r *Relation) Each(fn func(i, j int)) {
	for i := 0; i < r.u.Len(); i++ {
		row := r.Row(i)
		for j := row.Next(-1); j >= 0; j = row.Next(j) {
			fn(i, j)
		}
	}
}

// Intern returns the indexes of a and b, first growing r's universe
// (and re-indexing r) if either name is new to it.
func (r *Relation) Intern(a, b string) (i, j int) {
	i, okA := r.u.Index(a)
	j, okB := r.u.Index(b)
	if !okA || !okB {
		*r = *r.Over(NewUniverse(append(r.u.Names(), a, b)...))
		i, _ = r.u.Index(a)
		j, _ = r.u.Index(b)
	}
	return i, j
}

// Over returns r re-indexed over u, which must hold every name that
// occurs in a pair of r. When r is already over u the result is r
// itself, not a copy.
func (r *Relation) Over(u *Universe) *Relation {
	if r.u.same(u) {
		return r
	}
	out := NewOver(u)
	at := make([]int, r.u.Len())
	for i, name := range r.u.names {
		if k, ok := u.Index(name); ok {
			at[i] = k
		} else {
			at[i] = -1
		}
	}
	r.Each(func(i, j int) {
		if at[i] < 0 || at[j] < 0 {
			panic("relation: Over a universe that lacks " + r.u.names[i] + " or " + r.u.names[j])
		}
		out.Set(at[i], at[j])
	})
	return out
}

// common returns r and o indexed over one universe (their own when
// they already share it, the union of the two otherwise).
func common(r, o *Relation) (*Relation, *Relation) {
	if r.u.same(o.u) {
		return r, o
	}
	u := NewUniverse(append(r.u.Names(), o.u.names...)...)
	return r.Over(u), o.Over(u)
}

// Add inserts the pair (from, to). Adding an existing pair is a no-op.
func (r *Relation) Add(from, to string) { r.Set(r.Intern(from, to)) }

// Has reports whether (from, to) is in the relation.
func (r *Relation) Has(from, to string) bool {
	i, okI := r.u.Index(from)
	j, okJ := r.u.Index(to)
	return okI && okJ && r.Test(i, j)
}

// Size returns the number of pairs.
func (r *Relation) Size() int { return Row(r.bits).Count() }

// IsEmpty reports whether the relation has no pairs.
func (r *Relation) IsEmpty() bool { return Row(r.bits).Empty() }

// names lists the members of w by name, in sorted order.
func (r *Relation) names(w Row) []string {
	if w.Empty() {
		return nil
	}
	out := make([]string, 0, w.Count())
	for j := w.Next(-1); j >= 0; j = w.Next(j) {
		out = append(out, r.u.names[j])
	}
	return out
}

// Image returns the successors of from in deterministic (sorted) order.
func (r *Relation) Image(from string) []string {
	i, ok := r.u.Index(from)
	if !ok {
		return nil
	}
	return r.names(r.Row(i))
}

// Pairs returns all pairs in deterministic (sorted) order.
func (r *Relation) Pairs() []Pair {
	out := make([]Pair, 0, r.Size())
	r.Each(func(i, j int) { out = append(out, Pair{r.u.names[i], r.u.names[j]}) })
	return out
}

// Arrays is Pairs as [from, to] arrays, the form JSON documents and
// conflict-pair lists take.
func (r *Relation) Arrays() [][2]string {
	out := make([][2]string, 0, r.Size())
	r.Each(func(i, j int) { out = append(out, [2]string{r.u.names[i], r.u.names[j]}) })
	return out
}

// elements is the set of indexes appearing on either side of a pair.
func (r *Relation) elements() Row {
	set := r.u.NewRow()
	for i := 0; i < r.u.Len(); i++ {
		if row := r.Row(i); !row.Empty() {
			set.Set(i)
			set.Or(row)
		}
	}
	return set
}

// Elements returns every string appearing on either side of a pair,
// sorted.
func (r *Relation) Elements() []string { return r.names(r.elements()) }

// Clone returns a deep copy.
func (r *Relation) Clone() *Relation {
	c := *r
	c.bits = slices.Clone(r.bits)
	return &c
}

// Equal reports whether r and o contain the same pairs.
func (r *Relation) Equal(o *Relation) bool {
	r, o = common(r, o)
	return slices.Equal(r.bits, o.bits)
}

// Union returns a new relation r ∪ o.
func (r *Relation) Union(o *Relation) *Relation {
	r, o = common(r, o)
	u := r.Clone()
	Row(u.bits).Or(o.bits)
	return u
}

// Inverse returns the relation with every pair reversed (paper: stalls⁻¹).
func (r *Relation) Inverse() *Relation {
	inv := NewOver(r.u)
	r.Each(func(i, j int) { inv.Set(j, i) })
	return inv
}

// Compose returns r ; o = { (a, c) | ∃b: (a,b) ∈ r ∧ (b,c) ∈ o }.
func (r *Relation) Compose(o *Relation) *Relation {
	r, o = common(r, o)
	c := NewOver(r.u)
	r.Each(func(a, b int) { c.Row(a).Or(o.Row(b)) })
	return c
}

// TransitiveClosure returns r⁺, the smallest transitive relation
// containing r (Warshall: once k is allowed as an intermediate, every
// row that reaches k also reaches what k reaches).
func (r *Relation) TransitiveClosure() *Relation {
	tc := r.Clone()
	for k := 0; k < tc.u.Len(); k++ {
		via := tc.Row(k)
		for i := 0; i < tc.u.Len(); i++ {
			if row := tc.Row(i); row.Has(k) {
				row.Or(via)
			}
		}
	}
	return tc
}

// ReflexiveTransitiveClosure returns r* over the given universe of
// elements: r⁺ plus the identity pair for every element of universe and
// every element appearing in r.
func (r *Relation) ReflexiveTransitiveClosure(universe []string) *Relation {
	rt := r.TransitiveClosure()
	for _, e := range universe {
		rt.Add(e, e)
	}
	in := rt.elements()
	for i := in.Next(-1); i >= 0; i = in.Next(i) {
		rt.Set(i, i)
	}
	return rt
}

// HasCycle reports whether the relation, viewed as a directed graph,
// contains a cycle (including self-loops): some name reaches itself.
func (r *Relation) HasCycle() bool {
	tc := r.TransitiveClosure()
	for i := 0; i < tc.u.Len(); i++ {
		if tc.Test(i, i) {
			return true
		}
	}
	return false
}

// CycleWitness returns the nodes of one cycle in order (the last node
// has an edge back to the first), or nil if the relation is acyclic.
// Self-loops yield a single-element witness. The search is depth-first
// from the lowest name, following successors in sorted order.
func (r *Relation) CycleWitness() []string {
	const white, gray, black = 0, 1, 2
	n := r.u.Len()
	color := make([]uint8, n)
	parent := make([]int, n)
	start, end := -1, -1

	var dfs func(v int) bool
	dfs = func(v int) bool {
		color[v] = gray
		succ := r.Row(v)
		for next := succ.Next(-1); next >= 0; next = succ.Next(next) {
			switch color[next] {
			case white:
				parent[next] = v
				if dfs(next) {
					return true
				}
			case gray:
				start, end = next, v
				return true
			}
		}
		color[v] = black
		return false
	}
	for v := 0; v < n; v++ {
		if color[v] == white && dfs(v) {
			cycle := []string{r.u.names[end]}
			for ; end != start; end = parent[end] {
				cycle = append(cycle, r.u.names[parent[end]])
			}
			slices.Reverse(cycle) // the witness reads in edge order
			return cycle
		}
	}
	return nil
}

// Restrict returns the sub-relation whose pairs have both endpoints in
// keep.
func (r *Relation) Restrict(keep map[string]bool) *Relation {
	mask := r.u.NewRow()
	for i, name := range r.u.names {
		if keep[name] {
			mask.Set(i)
		}
	}
	out := NewOver(r.u)
	for i := mask.Next(-1); i >= 0; i = mask.Next(i) {
		row := out.Row(i)
		row.Or(r.Row(i))
		row.And(mask)
	}
	return out
}

// String renders the relation as "{a->b, c->d}" in deterministic order.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteByte('{')
	r.Each(func(i, j int) {
		if b.Len() > 1 {
			b.WriteString(", ")
		}
		b.WriteString(r.u.names[i] + "->" + r.u.names[j])
	})
	b.WriteByte('}')
	return b.String()
}
