package litmus_test

import (
	"testing"

	"repro/internal/litmus"
	"repro/internal/models"
)

// TestCheckerAllocations pins the two allocation contracts enumeration
// relies on, for every registered model, on an rmw-free skeleton (MP) and
// on one with a successful CAS under a control dependency (MPQ):
// Consistent allocates nothing per candidate, and preparing a checker for
// a skeleton size the model has seen before allocates nothing but the
// test's own Skeleton value — the static pass runs on the released
// checker's relations. sync.Pool may drop a checker (a GC cycle; a quarter
// of all Puts under -race), so the second contract is required of most
// rounds rather than of each.
func TestCheckerAllocations(t *testing.T) {
	for _, p := range []*litmus.Program{litmus.MP(), litmus.MPQ()} {
		sks := skeletons(p)
		cands := sks[0]
		for _, c := range sks {
			if !c[0].X.Rmw.IsEmpty() {
				cands = c
			}
		}
		for _, e := range models.Default().Entries() {
			ck := newChecker(e.Model, cands[0].X)
			i := 0
			if n := testing.AllocsPerRun(100, func() { ck.Consistent(cands[i%len(cands)].X); i++ }); n != 0 {
				t.Errorf("%s under %s: Consistent allocates %v times per candidate", p.Name, e.Name, n)
			}
			ck.Release()
			const rounds = 40
			clean := 0
			for r := 0; r < rounds; r++ {
				if testing.AllocsPerRun(1, func() { newChecker(e.Model, cands[0].X).Release() }) <= 1 {
					clean++
				}
			}
			if clean < rounds/2 {
				t.Errorf("%s under %s: only %d of %d NewChecker+Release rounds reused a released checker", p.Name, e.Name, clean, rounds)
			}
		}
	}
}
