package sparctso

import (
	"testing"

	"repro/internal/litmus"
	"repro/internal/memmodel"
	"repro/internal/models/x86tso"
)

// TestMatchesX86TSOOverCorpus is the differential pin for the new model:
// SPARC-TSO and x86-TSO are the same consistency model under different
// fence vocabularies, and every x86-level corpus program (MFENCE read as
// membar #Sync) must yield identical outcome sets under both. Any
// divergence is a bug in this package, not a modelling choice.
func TestMatchesX86TSOOverCorpus(t *testing.T) {
	x86 := x86tso.New()
	sparc := New()
	for _, p := range litmus.X86Corpus() {
		want := litmus.Outcomes(p, x86)
		got := litmus.Outcomes(p, sparc)
		if len(want) != len(got) || !got.SubsetOf(want) {
			t.Errorf("%s: SPARC-TSO %d outcomes %v, x86-TSO %d outcomes %v",
				p.Name, len(got), got.Sorted(), len(want), want.Sorted())
		}
	}
}

// sbWith builds store buffering with the given fence flavour between each
// thread's store and load.
func sbWith(k memmodel.Fence) *litmus.Program {
	return &litmus.Program{
		Name: "SB+" + k.String(),
		Threads: [][]litmus.Op{
			{
				litmus.Store{Loc: "X", Val: 1},
				litmus.Fence{K: k},
				litmus.Load{Dst: "a", Loc: "Y"},
			},
			{
				litmus.Store{Loc: "Y", Val: 1},
				litmus.Fence{K: k},
				litmus.Load{Dst: "b", Loc: "X"},
			},
		},
	}
}

// TestMembarStoreLoadForbidsSB pins the one membar direction that matters
// under TSO: #StoreLoad restores W→R order and forbids SB's weak outcome.
func TestMembarStoreLoadForbidsSB(t *testing.T) {
	out := litmus.Outcomes(sbWith(memmodel.FenceMembarSL), New())
	if out.Contains("0:a=0", "1:b=0") {
		t.Fatal("membar #StoreLoad must forbid SB a=b=0")
	}
}

// TestOtherMembarDirectionsAreTSORedundant: #LoadLoad, #LoadStore and
// #StoreStore order directions ppo already preserves, so SB's weak outcome
// (a W→R reordering) stays allowed through any of them.
func TestOtherMembarDirectionsAreTSORedundant(t *testing.T) {
	for _, k := range []memmodel.Fence{
		memmodel.FenceMembarLL, memmodel.FenceMembarLS, memmodel.FenceMembarSS,
	} {
		out := litmus.Outcomes(sbWith(k), New())
		if !out.Contains("0:a=0", "1:b=0") {
			t.Errorf("membar %s unexpectedly forbids SB a=b=0 (orders W→R?)", k)
		}
	}
}

// TestForeignFencesOrderNothing: TCG and Arm fence flavours are foreign to
// SPARC-TSO and must not restore W→R order.
func TestForeignFencesOrderNothing(t *testing.T) {
	for _, k := range []memmodel.Fence{memmodel.FenceFsc, memmodel.FenceDMBFF} {
		out := litmus.Outcomes(sbWith(k), New())
		if !out.Contains("0:a=0", "1:b=0") {
			t.Errorf("foreign fence %s ordered W→R under SPARC-TSO", k)
		}
	}
}
