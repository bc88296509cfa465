package imm

import (
	"testing"

	"repro/internal/litmus"
	"repro/internal/memmodel"
	"repro/internal/models/tcgmm"
	"repro/internal/models/x86tso"
)

// TestContainsX86TSOOverCorpus is the containment sanity pin: IMM sits
// below the guest models, so on every x86-level corpus program each
// x86-TSO-allowed outcome must be IMM-allowed. (IMM interprets neither
// MFENCE nor TSO's implicit W→W/R→R order, so it is strictly weaker on
// most of these programs; containment, not equality, is the invariant.)
func TestContainsX86TSOOverCorpus(t *testing.T) {
	x86 := x86tso.New()
	m := New()
	for _, p := range litmus.X86Corpus() {
		tso := litmus.Outcomes(p, x86)
		imm := litmus.Outcomes(p, m)
		if !tso.SubsetOf(imm) {
			t.Errorf("%s: x86-TSO outcomes %v not contained in IMM outcomes %v",
				p.Name, tso.Sorted(), imm.Sorted())
		}
	}
}

// TestWithinTCGIROverCorpus pins the other half of the sandwich: IMM's
// order relation extends the TCG IR model's, so IMM admits no outcome the
// IR model forbids. This is what keeps the verified guest fence placements
// sound when their target model is IMM instead of TCG-IR.
func TestWithinTCGIROverCorpus(t *testing.T) {
	ir := tcgmm.New()
	m := New()
	corpus := append(litmus.X86Corpus(), litmus.LBIR(), litmus.MPIR(), litmus.LBAddr(), litmus.MPAddr())
	for _, p := range corpus {
		imm := litmus.Outcomes(p, m)
		tcg := litmus.Outcomes(p, ir)
		if !imm.SubsetOf(tcg) {
			t.Errorf("%s: IMM outcomes %v not contained in TCG-IR outcomes %v",
				p.Name, imm.Sorted(), tcg.Sorted())
		}
	}
}

// TestDependenciesOrder pins IMM's defining difference from the IR model:
// load buffering with address dependencies into the stores is allowed by
// TCG-IR (which orders nothing through dependencies) but forbidden by IMM.
func TestDependenciesOrder(t *testing.T) {
	lb := litmus.LBAddr()
	if litmus.Outcomes(lb, New()).Contains("0:a=1", "1:b=1") {
		t.Fatal("IMM must forbid LB+addrs a=b=1 (dependency cycle)")
	}
	if !litmus.Outcomes(lb, tcgmm.New()).Contains("0:a=1", "1:b=1") {
		t.Fatal("TCG-IR should allow LB+addrs a=b=1 (the contrast this test pins)")
	}
	// depord's one candidate-varying term: (addr ∪ data);rfi.
	fwd := litmus.MPDataRfiAddr()
	if litmus.Outcomes(fwd, New()).Contains("1:a=1", "1:b=1", "1:c=0") {
		t.Fatal("IMM must forbid MP+data-rfi-addr a=b=1 c=0 (data;rfi then addr orders the loads)")
	}
	if !litmus.Outcomes(fwd, tcgmm.New()).Contains("1:a=1", "1:b=1", "1:c=0") {
		t.Fatal("TCG-IR should allow MP+data-rfi-addr a=b=1 c=0")
	}
}

// sbWith builds store buffering with the given fence between each store
// and load.
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

// TestFenceVocabulary: IMM speaks the IR fence vocabulary (Fwr forbids
// SB's weak outcome) and treats guest fences as foreign (MFENCE orders
// nothing).
func TestFenceVocabulary(t *testing.T) {
	if litmus.Outcomes(sbWith(memmodel.FenceFwr), New()).Contains("0:a=0", "1:b=0") {
		t.Fatal("Fwr must forbid SB a=b=0 under IMM")
	}
	if !litmus.Outcomes(sbWith(memmodel.FenceMFENCE), New()).Contains("0:a=0", "1:b=0") {
		t.Fatal("MFENCE is foreign to IMM and must not forbid SB a=b=0")
	}
}
