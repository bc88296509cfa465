//go:build !race

// The race detector drops sync.Pool entries at random, which would make the
// reused scratch look like fresh allocations.

package core

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/frontend"
	"repro/internal/tcg"
)

// translationAllocCeiling bounds the heap allocations one block costs from
// guest code to host code (go1.24 linux/amd64), obs counters included.
// With the IR grown instruction by instruction, liveness in maps, an
// allocating Inst.Uses, a growing code slice and a registry lookup per
// counter, a block of the straight-line guest cost ≈60 allocations; with
// reused scratch, one exact-size copy of the IR, one of the code and the
// counters resolved once per scope, 4: the block, its Insts, its code and
// its chain slots.
const translationAllocCeiling = 6

// TestTranslationAllocations: Translate→Optimize→Generate of a block stays
// under translationAllocCeiling allocations, so growing the IR or the code
// append by append, keeping liveness or constants in maps, or resolving
// counters per block fails the suite.
func TestTranslationAllocations(t *testing.T) {
	gs := translationGuests(t)
	g := gs[len(gs)-1]
	rt, err := newRuntime(Config{Variant: VariantRisotto}, g.img)
	if err != nil {
		t.Fatal(err)
	}
	pcs := guestBlocks(t, rt)
	perRun := testing.AllocsPerRun(5, func() {
		for _, pc := range pcs {
			blk, err := frontend.Translate(rt.M.Mem, pc, rt.feCfg)
			if err != nil {
				t.Fatal(err)
			}
			tcg.Optimize(blk, rt.optCfg)
			if _, _, err := backend.Generate(blk, 0, rt.beCfg); err != nil {
				t.Fatal(err)
			}
		}
	})
	perBlock := perRun / float64(len(pcs))
	t.Logf("%.1f allocations per block over %d blocks", perBlock, len(pcs))
	if perBlock > translationAllocCeiling {
		t.Errorf("a block costs %.1f allocations from guest code to host code, over the ceiling of %d", perBlock, translationAllocCeiling)
	}
}
