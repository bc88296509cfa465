package rel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddHas(t *testing.T) {
	r := New()
	if r.Has(1, 2) {
		t.Fatal("empty relation has edge")
	}
	r.Add(1, 2)
	if !r.Has(1, 2) {
		t.Fatal("missing added edge")
	}
	if r.Has(2, 1) {
		t.Fatal("relation is not symmetric")
	}
	r.Add(1, 2) // duplicate
	if r.Size() != 1 {
		t.Fatalf("size = %d, want 1", r.Size())
	}
}

func TestUnionMinusIntersect(t *testing.T) {
	a := FromPairs(Pair{1, 2}, Pair{2, 3})
	b := FromPairs(Pair{2, 3}, Pair{3, 4})
	u := a.Union(b)
	if u.Size() != 3 || !u.Has(1, 2) || !u.Has(2, 3) || !u.Has(3, 4) {
		t.Fatalf("union wrong: %v", u)
	}
	m := a.Minus(b)
	if m.Size() != 1 || !m.Has(1, 2) {
		t.Fatalf("minus wrong: %v", m)
	}
	i := a.Intersect(b)
	if i.Size() != 1 || !i.Has(2, 3) {
		t.Fatalf("intersect wrong: %v", i)
	}
	// operands untouched
	if a.Size() != 2 || b.Size() != 2 {
		t.Fatal("operands mutated")
	}
}

func TestSeq(t *testing.T) {
	a := FromPairs(Pair{1, 2}, Pair{1, 3})
	b := FromPairs(Pair{2, 4}, Pair{3, 5})
	c := a.Seq(b)
	if c.Size() != 2 || !c.Has(1, 4) || !c.Has(1, 5) {
		t.Fatalf("seq wrong: %v", c)
	}
	if !Seq().IsEmpty() {
		t.Fatal("empty Seq not empty")
	}
	d := Seq(a, b, FromPairs(Pair{4, 9}))
	if d.Size() != 1 || !d.Has(1, 9) {
		t.Fatalf("3-way seq wrong: %v", d)
	}
}

func TestInverse(t *testing.T) {
	a := FromPairs(Pair{1, 2}, Pair{3, 4})
	inv := a.Inverse()
	if !inv.Has(2, 1) || !inv.Has(4, 3) || inv.Size() != 2 {
		t.Fatalf("inverse wrong: %v", inv)
	}
	if !inv.Inverse().Equal(a) {
		t.Fatal("double inverse is not identity")
	}
}

func TestIdentitySeq(t *testing.T) {
	// [A] ; r keeps only edges whose source is in A.
	r := FromPairs(Pair{1, 2}, Pair{3, 4})
	id := Identity([]int{1})
	got := id.Seq(r)
	if got.Size() != 1 || !got.Has(1, 2) {
		t.Fatalf("[A];r wrong: %v", got)
	}
	got = r.Seq(Identity([]int{4}))
	if got.Size() != 1 || !got.Has(3, 4) {
		t.Fatalf("r;[A] wrong: %v", got)
	}
}

func TestTransitiveClosure(t *testing.T) {
	r := FromPairs(Pair{1, 2}, Pair{2, 3}, Pair{3, 4})
	tc := r.TransitiveClosure()
	want := []Pair{{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}}
	if tc.Size() != len(want) {
		t.Fatalf("closure size = %d, want %d: %v", tc.Size(), len(want), tc)
	}
	for _, p := range want {
		if !tc.Has(p.From, p.To) {
			t.Fatalf("closure missing %v", p)
		}
	}
}

func TestAcyclic(t *testing.T) {
	if !New().Acyclic() {
		t.Fatal("empty relation should be acyclic")
	}
	if !FromPairs(Pair{1, 2}, Pair{2, 3}).Acyclic() {
		t.Fatal("chain should be acyclic")
	}
	if FromPairs(Pair{1, 2}, Pair{2, 1}).Acyclic() {
		t.Fatal("2-cycle not detected")
	}
	if FromPairs(Pair{1, 1}).Acyclic() {
		t.Fatal("self-loop not detected")
	}
	if FromPairs(Pair{1, 2}, Pair{2, 3}, Pair{3, 1}).Acyclic() {
		t.Fatal("3-cycle not detected")
	}
	// Diamond is acyclic.
	if !FromPairs(Pair{1, 2}, Pair{1, 3}, Pair{2, 4}, Pair{3, 4}).Acyclic() {
		t.Fatal("diamond misreported as cyclic")
	}
}

func TestIrreflexive(t *testing.T) {
	if !FromPairs(Pair{1, 2}).Irreflexive() {
		t.Fatal("want irreflexive")
	}
	if FromPairs(Pair{1, 1}).Irreflexive() {
		t.Fatal("self-loop not caught")
	}
}

func TestString(t *testing.T) {
	s := FromPairs(Pair{2, 1}, Pair{1, 2}).String()
	if s != "{1->2, 2->1}" {
		t.Fatalf("String() = %q", s)
	}
}

// randomRelation builds a pseudo-random relation over [0, n) with ~density
// fraction of possible edges, for property tests.
func randomRelation(r *rand.Rand, n int, density float64) *Relation {
	out := New()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if r.Float64() < density {
				out.Add(a, b)
			}
		}
	}
	return out
}

func TestPropertyUnionCommutes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRelation(rng, 6, 0.3)
		b := randomRelation(rng, 6, 0.3)
		return a.Union(b).Equal(b.Union(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySeqAssociates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRelation(rng, 5, 0.3)
		b := randomRelation(rng, 5, 0.3)
		c := randomRelation(rng, 5, 0.3)
		return a.Seq(b).Seq(c).Equal(a.Seq(b.Seq(c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyClosureIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRelation(rng, 6, 0.2)
		tc := a.TransitiveClosure()
		return tc.TransitiveClosure().Equal(tc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyClosureContains(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRelation(rng, 6, 0.2)
		tc := a.TransitiveClosure()
		return a.Minus(tc).IsEmpty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAcyclicMatchesClosureIrreflexive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRelation(rng, 6, 0.25)
		return a.Acyclic() == a.TransitiveClosure().Irreflexive()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDeMorganMinus(t *testing.T) {
	// a \ (b ∪ c) == (a \ b) ∩ (a \ c)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRelation(rng, 5, 0.4)
		b := randomRelation(rng, 5, 0.4)
		c := randomRelation(rng, 5, 0.4)
		left := a.Minus(b.Union(c))
		right := a.Minus(b).Intersect(a.Minus(c))
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
