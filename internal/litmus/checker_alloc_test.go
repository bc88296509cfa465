package litmus_test

import (
	"testing"

	"repro/internal/litmus"
	"repro/internal/memmodel"
	"repro/internal/models"
)

// TestCheckerAllocations pins the two allocation contracts enumeration
// relies on, for every registered model. Consistent allocates nothing per
// candidate, on an rmw-free skeleton (MP) and on one with a successful CAS
// under a control dependency (MPQ). And a checker released for a skeleton
// of one size is reused for a skeleton of any size: prepared for a size
// the model's checkers have not seen before, right after one was released
// by a larger skeleton (60 events), or by a smaller one (2), NewChecker
// allocates nothing but the test's own Skeleton value — the static pass
// runs on the released checker's relations, which a pool keyed by event
// count would not hand out. sync.Pool may drop a checker (a GC cycle; a
// quarter of all Puts under -race), so the second contract is required of
// most rounds rather than of each.
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
		}
	}
	// chain(k) is the one candidate of a store to X and k fences: k+2 events.
	chain := func(k int) *memmodel.Execution {
		ops := []litmus.Op{litmus.Store{Loc: "X", Val: 1}}
		for range k {
			ops = append(ops, litmus.Fence{K: memmodel.FenceMFENCE})
		}
		return skeletons(&litmus.Program{Name: "chain", Threads: [][]litmus.Op{ops}})[0][0].X
	}
	const rounds = 20
	var fresh [rounds]*memmodel.Execution
	for r := range fresh {
		fresh[r] = chain(1 + r) // 3 to 22 events
	}
	large, small := chain(58), chain(0)
	for _, e := range models.Default().Entries() {
		clean := 0
		for r, to := range fresh {
			from := large
			if r%2 == 1 {
				from = small
			}
			// AllocsPerRun's warm-up call releases a checker prepared for
			// from; the one call it measures prepares to.
			calls := 0
			if testing.AllocsPerRun(1, func() {
				sk := from
				if calls++; calls > 1 {
					sk = to
				}
				newChecker(e.Model, sk).Release()
			}) <= 1 {
				clean++
			}
		}
		if clean < rounds/2 {
			t.Errorf("%s: only %d of %d NewChecker calls for a new size reused the checker the last size released", e.Name, clean, rounds)
		}
	}
}
