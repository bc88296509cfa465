package tcg

import (
	"testing"

	"repro/internal/memmodel"
)

// ldFrmBlock builds a block ending with the verified-scheme load pattern
// (ld;Frm) followed only by its exit to next — the trailing fence sits at
// the seam when the block heads a trace.
func ldFrmBlock(pc, next uint64) *Block {
	b := NewBlock()
	b.GuestPC, b.GuestEnd = pc, pc+8
	addr, v := b.Temp(), b.Temp()
	b.MovI(addr, 0x100)
	b.Ld(v, addr, 0, 8)
	b.Mov(0, v)
	b.Mb(memmodel.FenceFrm)
	b.Exit(next)
	return b
}

// fwwStBlock builds a block opening with the verified-scheme store pattern
// (Fww;st).
func fwwStBlock(pc, next uint64) *Block {
	b := NewBlock()
	b.GuestPC, b.GuestEnd = pc, pc+8
	addr, v := b.Temp(), b.Temp()
	b.Mb(memmodel.FenceFww)
	b.MovI(addr, 0x108)
	b.MovI(v, 1)
	b.St(addr, 0, v, 8)
	b.Exit(next)
	return b
}

func TestConcatStraightSeamMergesFences(t *testing.T) {
	a := ldFrmBlock(0x1000, 0x2000)
	b := fwwStBlock(0x2000, 0x3000)
	super, err := Concat([]*Block{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if super.GuestPC != 0x1000 || super.GuestEnd != 0x2008 {
		t.Fatalf("superblock range [%#x,%#x)", super.GuestPC, super.GuestEnd)
	}
	// The seam exit is dropped entirely: only b's final exit remains.
	if got := super.ExitTargets(); len(got) != 1 || got[0] != 0x3000 {
		t.Fatalf("exit targets %v, want [0x3000]", got)
	}
	// No label at a straight-line seam, so the Frm/Fww pair merges.
	Optimize(super, OptConfig{FenceMerge: true})
	if ks := fenceKinds(super); len(ks) != 1 {
		t.Fatalf("cross-seam fences not merged: %v\n%s", ks, super)
	}
}

// TestConcatGuestBytesOverBackwardEdge: a trace that follows a backward
// edge (a rotated loop) ends below where it starts; its size is still the
// sum of its components', not GuestEnd−GuestPC wrapped around 2^64.
func TestConcatGuestBytesOverBackwardEdge(t *testing.T) {
	tail := fwwStBlock(0x2000, 0x1000)
	head := ldFrmBlock(0x1000, 0x3000)
	super, err := Concat([]*Block{tail, head})
	if err != nil {
		t.Fatal(err)
	}
	if super.GuestEnd >= super.GuestPC {
		t.Fatalf("trace [%#x,%#x) does not run backwards", super.GuestPC, super.GuestEnd)
	}
	if got, want := super.GuestBytes(), tail.GuestBytes()+head.GuestBytes(); got != want || want != 16 {
		t.Fatalf("GuestBytes = %d, want %d", got, want)
	}
	if got := super.Clone().GuestBytes(); got != 16 {
		t.Fatalf("Clone lost the size: %d", got)
	}
}

func TestConcatNonFinalExitGetsJunctionLabel(t *testing.T) {
	// a's exit to the successor is the *taken* arm of a conditional — not
	// the final instruction — so Concat must rewrite it into a forward
	// branch to a junction label, and fences must NOT merge across it.
	a := NewBlock()
	a.GuestPC, a.GuestEnd = 0x1000, 0x1008
	cond := a.Temp()
	l := a.NewLabel()
	a.MovI(cond, 1)
	a.Brcond(CondNE, cond, cond, l)
	a.Mb(memmodel.FenceFrm)
	a.Exit(0x2000) // non-final exit to the successor
	a.SetLabel(l)
	a.Exit(0x9000) // side exit leaves the superblock
	b := fwwStBlock(0x2000, 0x3000)

	super, err := Concat([]*Block{a, b})
	if err != nil {
		t.Fatal(err)
	}
	nbr := 0
	for _, in := range super.Insts {
		if in.Op == OpBr {
			nbr++
		}
	}
	if nbr != 1 {
		t.Fatalf("want 1 junction branch, got %d:\n%s", nbr, super)
	}
	if got := super.ExitTargets(); len(got) != 2 {
		t.Fatalf("exit targets %v, want side exit + final exit", got)
	}
	Optimize(super, OptConfig{FenceMerge: true})
	if ks := fenceKinds(super); len(ks) != 2 {
		t.Fatalf("fences must not merge across a junction label: %v\n%s", ks, super)
	}
}

func TestConcatLastComponentNeedsNoSuccessor(t *testing.T) {
	// Regression: the final component of a trace has no successor to link
	// to; Concat must not demand one of it.
	a := ldFrmBlock(0x1000, 0x2000)
	b := fwwStBlock(0x2000, 0x7777) // exits somewhere off-trace
	c := ldFrmBlock(0x2000, 0x0)
	c.GuestPC = 0x7777
	if _, err := Concat([]*Block{a, b, c}); err != nil {
		t.Fatalf("trace whose last block exits nowhere special: %v", err)
	}
}

func TestConcatUnlinkedTraceErrors(t *testing.T) {
	a := ldFrmBlock(0x1000, 0x5000) // never exits to 0x2000
	b := fwwStBlock(0x2000, 0x3000)
	if _, err := Concat([]*Block{a, b}); err == nil {
		t.Fatal("unlinked trace must error")
	}
}

func TestConcatSingleBlockClones(t *testing.T) {
	a := ldFrmBlock(0x1000, 0x2000)
	super, err := Concat([]*Block{a})
	if err != nil {
		t.Fatal(err)
	}
	if super == a {
		t.Fatal("single-block Concat must clone, not alias")
	}
	super.Insts[0] = Inst{Op: OpNop}
	if a.Insts[0].Op == OpNop {
		t.Fatal("clone shares instruction storage with the original")
	}
}

func TestConcatTempsNotRenumbered(t *testing.T) {
	a := ldFrmBlock(0x1000, 0x2000)
	b := fwwStBlock(0x2000, 0x3000)
	super, err := Concat([]*Block{a, b})
	if err != nil {
		t.Fatal(err)
	}
	max := a.NumTemps
	if b.NumTemps > max {
		max = b.NumTemps
	}
	if super.NumTemps != max {
		t.Fatalf("NumTemps %d, want max over components %d (locals reuse indices)",
			super.NumTemps, max)
	}
}

func TestCrossBlockFences(t *testing.T) {
	a := ldFrmBlock(0x1000, 0x2000)
	b := fwwStBlock(0x2000, 0x3000)
	comps := []*Block{a, b}
	super, err := Concat(comps)
	if err != nil {
		t.Fatal(err)
	}
	cfg := OptConfig{FenceMerge: true}
	Optimize(super, cfg)
	// Separately the two fences survive (2); the superblock keeps 1 — one
	// cross-block merge.
	if got := CrossBlockFences(comps, super, cfg); got != 1 {
		t.Fatalf("cross-block merges = %d, want 1", got)
	}
	// A lone component can never report cross-block gains.
	solo, _ := Concat([]*Block{ldFrmBlock(0x1000, 0x2000)})
	Optimize(solo, cfg)
	if got := CrossBlockFences([]*Block{a}, solo, cfg); got != 0 {
		t.Fatalf("single component cross-block merges = %d, want 0", got)
	}
}

func TestExitTargetsDistinctInOrder(t *testing.T) {
	b := NewBlock()
	b.Exit(0x30)
	b.Exit(0x10)
	b.Exit(0x30)
	got := b.ExitTargets()
	if len(got) != 2 || got[0] != 0x30 || got[1] != 0x10 {
		t.Fatalf("exit targets %v, want [0x30 0x10]", got)
	}
}
