//go:build !race

package litmus_test

import (
	"math"
	"testing"

	"repro/internal/litmus"
	"repro/internal/models"
)

// TestEnumerateAllocations locks the enumerator's garbage out: the cheapest
// of a few serial enumerations under x86-TSO must stay within a ceiling set
// a few allocations above what the step-list enumerator needs (172, 177 and
// 636; the enumerator that replayed the ops with a register map and a
// provenance map per thread per fixpoint round needed 212, 223 and 942).
// The cheapest, not the mean: a run that finds the checker sync.Pool empty
// after a GC cycle pays ~77 allocations for a fresh checker. (Not built
// under -race, where the pools drop a quarter of all Puts and the counts
// move by tens from run to run.)
func TestEnumerateAllocations(t *testing.T) {
	m, err := models.Default().Lookup("x86")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		p       *litmus.Program
		ceiling float64
	}{
		{litmus.MP(), 176},
		{litmus.SBFenced(), 181},
		{litmus.IRIW(), 642},
	} {
		best := math.Inf(1)
		for round := 0; round < 10; round++ {
			best = min(best, testing.AllocsPerRun(1, func() {
				if _, err := litmus.Enumerate(c.p, m, litmus.WithWorkers(1)); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if best > c.ceiling {
			t.Errorf("%s: %v allocations per enumeration, ceiling %v", c.p.Name, best, c.ceiling)
		}
	}
}
