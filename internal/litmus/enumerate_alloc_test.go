//go:build !race

package litmus_test

import (
	"math"
	"testing"

	"repro/internal/litmus"
	"repro/internal/memmodel"
	"repro/internal/models"
)

// leastAllocs is the cheapest of a few serial enumerations of p under m.
// The cheapest, not the mean: a run that finds the checker sync.Pool empty
// after a GC cycle pays ~77 allocations for a fresh checker.
func leastAllocs(t *testing.T, p *litmus.Program, m memmodel.Model) float64 {
	best := math.Inf(1)
	for round := 0; round < 10; round++ {
		best = min(best, testing.AllocsPerRun(1, func() {
			if _, err := litmus.Enumerate(p, m); err != nil {
				t.Fatal(err)
			}
		}))
	}
	return best
}

// TestEnumerateAllocations locks the enumerator's garbage out: a serial
// enumeration under x86-TSO must stay within a ceiling of what the
// enumerator that reused one candidate storage per skeleton job needed (84,
// 88 and 122), which the one that reuses one job and one candidate storage
// per enumeration undercuts (72, 76 and 109). The one that built a fresh
// candidate, register files and co per rf and co choice needed 172, 177
// and 636, and the one before it, replaying the ops with a register map and
// a provenance map per thread per fixpoint round, 212, 223 and 942. (Not
// built under -race, where the pools drop a quarter of all Puts and the
// counts move by tens from run to run.)
func TestEnumerateAllocations(t *testing.T) {
	m, err := models.Default().Lookup("x86")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		p       *litmus.Program
		ceiling float64
	}{
		{litmus.MP(), 84},
		{litmus.SBFenced(), 88},
		{litmus.IRIW(), 122},
	} {
		if n := leastAllocs(t, c.p, m); n > c.ceiling {
			t.Errorf("%s: %v allocations per enumeration, ceiling %v", c.p.Name, n, c.ceiling)
		}
	}
}

// TestCoherenceOrdersDoNotAllocate holds the coherence-order search to
// allocations per location, not per order. 2+2W with a third writer per
// location has 3!·3! = 36 candidates; the same three threads of two stores
// over six locations have one. The first may allocate at most 16 more than
// the second: fewer than half an allocation per extra candidate.
func TestCoherenceOrdersDoNotAllocate(t *testing.T) {
	m, err := models.Default().Lookup("x86")
	if err != nil {
		t.Fatal(err)
	}
	st := func(l litmus.Loc, v int64) litmus.Op { return litmus.Store{Loc: l, Val: v} }
	many := &litmus.Program{Name: "2+2W+W", Threads: [][]litmus.Op{
		{st("X", 1), st("Y", 2)}, {st("Y", 1), st("X", 2)}, {st("X", 3), st("Y", 3)}}}
	one := &litmus.Program{Name: "3x2W", Threads: [][]litmus.Op{
		{st("X", 1), st("Y", 2)}, {st("Z", 1), st("W", 2)}, {st("U", 3), st("V", 3)}}}
	if n, k := candidateCount(many), candidateCount(one); n != 36 || k != 1 {
		t.Fatalf("%d and %d candidates, want 36 and 1", n, k)
	}
	const bound = 16
	if a, b := leastAllocs(t, many, m), leastAllocs(t, one, m); a > b+bound {
		t.Errorf("%s: %v allocations, %s (one writer per location): %v; bound %v more",
			many.Name, a, one.Name, b, bound)
	}
}

// TestSkeletonsDoNotAllocate holds enumeration to allocations per
// enumeration, not per skeleton job: one job and one candidate storage,
// sized for the largest skeleton, are rewritten for every skeleton. Three
// threads of two CASes have 4³ = 64 jobs (each CAS succeeds or fails) and
// 441 candidates; the same threads with stores in place of the CASes have
// one job and 36 candidates. Enumerating the first may allocate at most 8
// more than the second. Both are compiled beforehand, as lowering
// allocates per control path and choice bits, not per job.
func TestSkeletonsDoNotAllocate(t *testing.T) {
	m, err := models.Default().Lookup("x86")
	if err != nil {
		t.Fatal(err)
	}
	cas := func(l litmus.Loc) litmus.Op { return litmus.CAS{Loc: l, Expect: 0, New: 1} }
	st := func(l litmus.Loc) litmus.Op { return litmus.Store{Loc: l, Val: 1} }
	many := &litmus.Program{Name: "3xCAS2", Threads: [][]litmus.Op{
		{cas("X"), cas("Y")}, {cas("Y"), cas("X")}, {cas("X"), cas("Y")}}}
	one := &litmus.Program{Name: "3x2W", Threads: [][]litmus.Op{
		{st("X"), st("Y")}, {st("Y"), st("X")}, {st("X"), st("Y")}}}
	if n, k := candidateCount(many), candidateCount(one); n != 441 || k != 36 {
		t.Fatalf("%d and %d candidates, want 441 and 36", n, k)
	}
	least := func(p *litmus.Program) float64 {
		enumerate := litmus.Compiled(p)
		best := math.Inf(1)
		for round := 0; round < 10; round++ {
			best = min(best, testing.AllocsPerRun(1, func() { enumerate(m) }))
		}
		return best
	}
	const bound = 8
	if a, b := least(many), least(one); a > b+bound {
		t.Errorf("%s (64 skeleton jobs): %v allocations, %s (one): %v; bound %v more",
			many.Name, a, one.Name, b, bound)
	}
}
