package rel

import (
	"math/rand"
	"sort"
	"testing"
)

// pairSet is the package's oracle: a relation as a flat set of edges, with
// every operator written as brute-force set arithmetic. The randomized
// differentials below check every form of every Relation operator against
// it — functional, in-place, Arena and predicate — on universes that
// straddle the word boundaries and on operands of mixed capacity.
type pairSet map[Pair]bool

func (s pairSet) rel() *Relation {
	r := New()
	for _, p := range s.sorted() {
		r.Add(p.From, p.To)
	}
	return r
}

func (s pairSet) sorted() []Pair {
	out := make([]Pair, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

func (s pairSet) union(o pairSet) pairSet {
	out := pairSet{}
	for p := range s {
		out[p] = true
	}
	for p := range o {
		out[p] = true
	}
	return out
}

func (s pairSet) intersect(o pairSet) pairSet {
	out := pairSet{}
	for p := range s {
		if o[p] {
			out[p] = true
		}
	}
	return out
}

func (s pairSet) minus(o pairSet) pairSet {
	out := pairSet{}
	for p := range s {
		if !o[p] {
			out[p] = true
		}
	}
	return out
}

func (s pairSet) seq(o pairSet) pairSet {
	out := pairSet{}
	for p := range s {
		for q := range o {
			if p.To == q.From {
				out[Pair{p.From, q.To}] = true
			}
		}
	}
	return out
}

func (s pairSet) inverse() pairSet {
	out := pairSet{}
	for p := range s {
		out[Pair{p.To, p.From}] = true
	}
	return out
}

// closure is s+, the least fixpoint of X = s ∪ X;s.
func (s pairSet) closure() pairSet {
	out := pairSet{}
	for p := range s {
		out[p] = true
	}
	for changed := true; changed; {
		changed = false
		for p := range out {
			for q := range s {
				if p.To == q.From && !out[Pair{p.From, q.To}] {
					out[Pair{p.From, q.To}] = true
					changed = true
				}
			}
		}
	}
	return out
}

func (s pairSet) acyclic() bool { return s.closure().irreflexive() }

func (s pairSet) irreflexive() bool {
	for p := range s {
		if p.From == p.To {
			return false
		}
	}
	return true
}

func (s pairSet) anyFrom(a int) bool {
	for p := range s {
		if p.From == a {
			return true
		}
	}
	return false
}

func (s pairSet) equal(o pairSet) bool {
	return len(s) == len(o) && len(s.minus(o)) == 0
}

func randPairSet(rng *rand.Rand, universe, edges int) pairSet {
	s := pairSet{}
	for i := 0; i < edges; i++ {
		s[Pair{rng.Intn(universe), rng.Intn(universe)}] = true
	}
	return s
}

// randEdges is an edge count for a random relation over universe elements:
// up to two per element within one word, at most one past it, so the
// brute-force closure stays fast at 200 elements.
func randEdges(rng *rand.Rand, universe int) int {
	if universe <= 64 {
		return rng.Intn(2 * universe)
	}
	return rng.Intn(universe)
}

// capacities returns s at three row widths over the same edges: grown by
// doubling from New, sized exactly for universe, and padded two words past
// it. Words past a relation's universe are dead, so kernels that bound a
// loop by the wrong operand's width show up only when the widths differ.
func capacities(s pairSet, universe int) [3]*Relation {
	out := [3]*Relation{s.rel(), NewSized(universe), NewSized(universe + 128)}
	for _, p := range s.sorted() {
		out[1].Add(p.From, p.To)
		out[2].Add(p.From, p.To)
	}
	return out
}

func wantPairs(t *testing.T, op string, got *Relation, want pairSet) {
	t.Helper()
	gp := got.Pairs()
	wp := want.sorted()
	if len(gp) != len(wp) {
		t.Fatalf("%s: got %d edges %v, want %d edges %v", op, len(gp), gp, len(wp), wp)
	}
	for i := range gp {
		if gp[i] != wp[i] {
			t.Fatalf("%s: edge %d: got %v, want %v", op, i, gp[i], wp[i])
		}
	}
}

func wantBool(t *testing.T, op string, got, want bool) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: got %v, want %v", op, got, want)
	}
}

// oracle is pairSet's answer for every operator on one pair of operands,
// computed once and compared with each capacity pairing of them.
type oracle struct {
	a, b                                  pairSet
	union, intersect, minus, seq, inverse pairSet
	closure                               pairSet
	acyclicA, acyclicB                    bool
}

func newOracle(sa, sb pairSet) *oracle {
	closure := sa.closure()
	return &oracle{
		a: sa, b: sb,
		union: sa.union(sb), intersect: sa.intersect(sb), minus: sa.minus(sb),
		seq: sa.seq(sb), inverse: sa.inverse(), closure: closure,
		acyclicA: closure.irreflexive(), acyclicB: sb.acyclic(),
	}
}

// checkOps compares every operator form on a ≅ w.a and b ≅ w.b with the
// oracle. recv is a non-empty relation that the *Of forms and CopyFrom
// overwrite (a clone of it each time), so a kernel that forgets to clear,
// reach or grow its receiver shows; the *With forms run on a clone of a.
func checkOps(t *testing.T, rng *rand.Rand, w *oracle, a, b, recv *Relation) {
	t.Helper()
	wantPairs(t, "Clone", a.Clone(), w.a)
	wantPairs(t, "Union", a.Union(b), w.union)
	wantPairs(t, "Union (package)", Union(a, b), w.union)
	wantPairs(t, "Intersect", a.Intersect(b), w.intersect)
	wantPairs(t, "Minus", a.Minus(b), w.minus)
	wantPairs(t, "Seq", a.Seq(b), w.seq)
	wantPairs(t, "Seq (package)", Seq(a, b), w.seq)
	wantPairs(t, "Inverse", a.Inverse(), w.inverse)
	wantPairs(t, "TransitiveClosure", a.TransitiveClosure(), w.closure)

	u := a.Clone()
	u.UnionWith(b)
	wantPairs(t, "UnionWith", u, w.union)
	in := a.Clone()
	in.IntersectWith(b)
	wantPairs(t, "IntersectWith", in, w.intersect)
	mi := a.Clone()
	mi.MinusWith(b)
	wantPairs(t, "MinusWith", mi, w.minus)
	cl := a.Clone()
	cl.CloseTransitive()
	wantPairs(t, "CloseTransitive", cl, w.closure)
	sq := recv.Clone()
	sq.SeqOf(a, b)
	wantPairs(t, "SeqOf", sq, w.seq)
	iv := recv.Clone()
	iv.InverseOf(a)
	wantPairs(t, "InverseOf", iv, w.inverse)
	cp := recv.Clone()
	cp.CopyFrom(a)
	wantPairs(t, "CopyFrom", cp, w.a)
	cp.Reset()
	wantBool(t, "IsEmpty after Reset", cp.IsEmpty(), true)

	wantBool(t, "Acyclic", a.Acyclic(), w.acyclicA)
	wantBool(t, "Irreflexive", a.Irreflexive(), w.a.irreflexive())
	wantBool(t, "Equal", a.Equal(b), w.a.equal(w.b))
	wantBool(t, "Equal (reversed)", b.Equal(a), w.a.equal(w.b))
	wantBool(t, "IsEmpty", a.IsEmpty(), len(w.a) == 0)
	if got := a.Size(); got != len(w.a) {
		t.Fatalf("Size: got %d, want %d", got, len(w.a))
	}
	n := max(a.u, b.u) + 2
	for x := -1; x < n; x++ {
		wantBool(t, "AnyFrom", a.AnyFrom(x), w.a.anyFrom(x))
	}
	for p := range w.a {
		wantBool(t, "Has (edge)", a.Has(p.From, p.To), true)
	}
	for i := 0; i < 64; i++ {
		x, y := rng.Intn(n+64)-1, rng.Intn(n+64)-1
		wantBool(t, "Has", a.Has(x, y), w.a[Pair{x, y}])
	}
}

// checkArena drives ar through Get/Put reuse: every Get must come back
// empty whatever its previous holder left, including a relation that grew
// past the arena's universe before it was Put, and the arena's DFS scratch
// must answer Acyclic for relations larger and smaller than the last.
func checkArena(t *testing.T, ar *Arena, w *oracle, a, b *Relation) {
	t.Helper()
	g := ar.Get()
	wantBool(t, "Arena.Get empty", g.IsEmpty(), true)
	g.UnionWith(a)
	wantPairs(t, "Arena UnionWith", g, w.a)
	ar.Put(g)
	g = ar.Get()
	wantBool(t, "Arena.Get after Put empty", g.IsEmpty(), true)
	g.SeqOf(a, b)
	wantPairs(t, "Arena SeqOf", g, w.seq)
	g.Add(ar.Universe()+130, 0)
	ar.Put(g)
	g = ar.Get()
	wantBool(t, "Arena.Get after a grown Put empty", g.IsEmpty(), true)
	g.CopyFrom(b)
	wantPairs(t, "Arena CopyFrom", g, w.b)
	ar.Put(g)
	wantBool(t, "Arena.Acyclic", ar.Acyclic(a), w.acyclicA)
	wantBool(t, "Arena.Acyclic", ar.Acyclic(b), w.acyclicB)
}

// TestDifferentialOps cross-checks every relation operator against the
// brute-force pairSet oracle on random universes of 1–200 elements, the
// second operand drawn over its own universe half the time, each operand
// and receiver at a random one of three capacities. One arena lives across
// all trials, so its pool and scratch are reused across sizes; a fresh one
// per trial pins Universe.
func TestDifferentialOps(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shared := NewArena(64)
	for trial := 0; trial < 150; trial++ {
		ua := 1 + rng.Intn(200)
		ub := ua
		if rng.Intn(2) == 0 {
			ub = 1 + rng.Intn(200)
		}
		sa := randPairSet(rng, ua, randEdges(rng, ua))
		sb := randPairSet(rng, ub, randEdges(rng, ub))
		sr := randPairSet(rng, ub, 1+rng.Intn(8))
		a := capacities(sa, ua)[rng.Intn(3)]
		b := capacities(sb, ub)[rng.Intn(3)]
		recv := capacities(sr, ub)[rng.Intn(3)]
		w := newOracle(sa, sb)
		checkOps(t, rng, w, a, b, recv)

		ar := NewArena(ua)
		if got := ar.Universe(); got != ua {
			t.Fatalf("Arena.Universe: got %d, want %d", got, ua)
		}
		checkArena(t, ar, w, a, b)
		checkArena(t, shared, w, a, b)
	}
}

// TestMixedCapacity runs the whole differential on every pairing of the
// three capacities, at universes on each side of the 64- and 128-element
// word boundaries and past the third word: a kernel that bounds a loop by
// the receiver's width, the operand's width or either universe alone gets
// a pairing where that bound is wrong.
func TestMixedCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, universe := range []int{1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 200} {
		sa := randPairSet(rng, universe, randEdges(rng, universe))
		sb := randPairSet(rng, universe, randEdges(rng, universe))
		// Pin edges to the last element so both operands reach the
		// universe's final word, whatever the draw.
		last := universe - 1
		sa[Pair{rng.Intn(universe), last}] = true
		sa[Pair{last, rng.Intn(universe)}] = true
		sb[Pair{last, rng.Intn(universe)}] = true
		w := newOracle(sa, sb)
		ca, cb := capacities(sa, universe), capacities(sb, universe)
		for i := range ca {
			for j := range cb {
				checkOps(t, rng, w, ca[i], cb[j], cb[(j+1)%3])
				wantBool(t, "Equal across capacities", ca[i].Equal(ca[j]), true)
				checkArena(t, NewArena(universe), w, ca[i], cb[j])
			}
		}
	}
}

// TestPairsSorted is the regression test for the Pairs determinism
// guarantee: edges inserted in adversarial order must come back in
// ascending (From, To) order, as the doc comment promises.
func TestPairsSorted(t *testing.T) {
	r := New()
	ins := []Pair{{67, 3}, {0, 65}, {5, 5}, {0, 2}, {67, 0}, {5, 1}, {0, 64}}
	for _, p := range ins {
		r.Add(p.From, p.To)
	}
	want := []Pair{{0, 2}, {0, 64}, {0, 65}, {5, 1}, {5, 5}, {67, 0}, {67, 3}}
	got := r.Pairs()
	if len(got) != len(want) {
		t.Fatalf("Pairs: got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Pairs[%d]: got %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}

	// Must hold for randomized insertion orders too.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		s := randPairSet(rng, 1+rng.Intn(100), rng.Intn(200))
		r := New()
		for p := range s {
			r.Add(p.From, p.To)
		}
		wantPairs(t, "Pairs", r, s)
	}
}

// TestResetReuse drives relations of each capacity through rounds of
// Reset-then-refill whose universes shrink and grow across the 64- and
// 128-element word boundaries. Reset clears only the rows below the
// universe, so a bit it missed, or a universe it forgot to drop, shows as
// an edge the round's pairSet does not have — in the refilled relation
// itself, in the *Of forms that reset their receiver, and in every
// operator run on the reused relation.
func TestResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	universes := []int{200, 63, 129, 64, 65, 1, 128, 127, 192, 2, 193, 66, 130, 62}
	for _, r := range capacities(pairSet{}, 1) {
		for _, universe := range universes {
			r.Reset()
			wantBool(t, "IsEmpty after Reset", r.IsEmpty(), true)
			wantPairs(t, "Reset", r, pairSet{})
			s := randPairSet(rng, universe, randEdges(rng, universe))
			last := universe - 1
			s[Pair{rng.Intn(universe), last}] = true
			s[Pair{last, rng.Intn(universe)}] = true
			for _, p := range s.sorted() {
				r.Add(p.From, p.To)
			}
			wantPairs(t, "refill after Reset", r, s)

			ub := universes[rng.Intn(len(universes))]
			sb := randPairSet(rng, ub, randEdges(rng, ub))
			b := capacities(sb, ub)[rng.Intn(3)]
			w := newOracle(s, sb)
			checkOps(t, rng, w, r, b, capacities(sb, ub)[rng.Intn(3)])

			r.CopyFrom(b)
			wantPairs(t, "CopyFrom into a reused relation", r, sb)
			r.SeqOf(b, b)
			wantPairs(t, "SeqOf into a reused relation", r, sb.seq(sb))
			r.InverseOf(b)
			wantPairs(t, "InverseOf into a reused relation", r, sb.inverse())
		}
	}
}
