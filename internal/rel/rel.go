// Package rel implements a small calculus of finite binary relations over
// integer-identified elements (events). It mirrors the "cat" notation used
// by axiomatic memory models: union, intersection, difference, relational
// composition (;), inverse (^-1), identity on a set ([A]), transitive
// closure (+), and the acyclicity and irreflexivity tests that consistency
// axioms are built from.
//
// One engine implements the Relation API (bitset.go): a relation is a dense
// []uint64 adjacency-bit matrix. Event IDs in candidate executions are small
// contiguous ints, so every operator runs as a word-wise kernel and an Arena
// lets hot paths (per-candidate consistency checks) reuse storage without
// allocating. Its oracle is pairSet in diff_test.go — a relation as a flat
// set of edges, every operator brute-force set arithmetic — against which a
// randomized differential checks every functional, in-place, Arena and
// predicate form over universes straddling the 64- and 128-element word
// boundaries and operands of mixed capacity.
//
// Functional operators (Union, Seq, Inverse, …) return a fresh relation and
// never alias the operands' internal state; the *With/*Of in-place forms
// mutate their receiver and exist for allocation-free inner loops.
package rel

import (
	"fmt"
	"strings"
)

// Pair is one ordered edge of a relation.
type Pair struct {
	From, To int
}

// FromPairs builds a relation containing exactly the given edges.
func FromPairs(pairs ...Pair) *Relation {
	r := New()
	for _, p := range pairs {
		r.Add(p.From, p.To)
	}
	return r
}

// Union returns the union of all given relations (empty if none).
func Union(rs ...*Relation) *Relation {
	out := New()
	for _, o := range rs {
		out.UnionWith(o)
	}
	return out
}

// Seq composes the given relations left to right. Seq() of a single relation
// returns a clone; Seq of none returns the empty relation.
func Seq(rs ...*Relation) *Relation {
	if len(rs) == 0 {
		return New()
	}
	out := rs[0].Clone()
	for _, o := range rs[1:] {
		out = out.Seq(o)
	}
	return out
}

// Identity returns [A], the identity relation on the given set of elements.
func Identity(set []int) *Relation {
	out := New()
	for _, a := range set {
		out.Add(a, a)
	}
	return out
}

// String renders the relation as a sorted edge list, for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range r.Pairs() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d->%d", p.From, p.To)
	}
	b.WriteByte('}')
	return b.String()
}
