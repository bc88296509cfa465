package tcg

import (
	"math/rand"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/models/tcgmm"
)

func fenceKinds(b *Block) []memmodel.Fence {
	var out []memmodel.Fence
	for _, in := range b.Insts {
		if in.Op == OpMb {
			out = append(out, in.Fence)
		}
	}
	return out
}

func TestConstFolding(t *testing.T) {
	b := NewBlock()
	t1, t2, t3 := b.Temp(), b.Temp(), b.Temp()
	b.MovI(t1, 6)
	b.MovI(t2, 7)
	b.Alu(OpMul, t3, t1, t2)
	b.Mov(0, t3) // into a global so DCE keeps it
	Optimize(b, DefaultOpt())
	// Everything should fold to a single movi into the global.
	if n := b.CountOp(OpMul); n != 0 {
		t.Fatalf("mul not folded: %s", b)
	}
	it := NewInterp(b, 16)
	if err := it.Run(b); err != nil {
		t.Fatal(err)
	}
	if it.Temps[0] != 42 {
		t.Fatalf("global0 = %d, want 42", it.Temps[0])
	}
}

func TestFalseDependencyElimination(t *testing.T) {
	// X = a * 0 { X = 0 (§6.1): the multiply disappears even though a is
	// unknown.
	b := NewBlock()
	zero, prod, addr := b.Temp(), b.Temp(), b.Temp()
	b.MovI(zero, 0)
	b.Alu(OpMul, prod, 0 /* unknown global */, zero)
	b.MovI(addr, 0x100)
	b.St(addr, 0, prod, 8)
	b.Exit(0)
	Optimize(b, DefaultOpt())
	if b.CountOp(OpMul) != 0 {
		t.Fatalf("x*0 not eliminated:\n%s", b)
	}
}

func TestRAWElimination(t *testing.T) {
	// st [X] = v; ld t = [X]  →  the load becomes a mov.
	b := NewBlock()
	addr, v, out := b.Temp(), b.Temp(), b.Temp()
	b.MovI(addr, 0x100)
	b.MovI(v, 9)
	b.St(addr, 0, v, 8)
	b.Ld(out, addr, 0, 8)
	b.Mov(0, out)
	b.Exit(0)
	Optimize(b, OptConfig{AccessElim: true})
	if b.CountOp(OpLd) != 0 {
		t.Fatalf("RAW load not eliminated:\n%s", b)
	}
	if b.CountOp(OpSt) != 1 {
		t.Fatalf("store must remain:\n%s", b)
	}
}

func TestWAWBlockedByInterveningLoad(t *testing.T) {
	// st; ld(same loc, not eliminated because elimination disabled);
	// st — with AccessElim on, the intervening load is itself eliminated
	// to a mov, so WAW still fires. Use different aliasing base to keep
	// the load: st [A]; ld [B] (possible alias); st [A] — first store
	// must survive.
	b := NewBlock()
	addrA, addrB, v1, v2, out := b.Temp(), b.Temp(), b.Temp(), b.Temp(), b.Temp()
	b.MovI(addrA, 0x100)
	b.MovI(addrB, 0x180)
	b.MovI(v1, 1)
	b.MovI(v2, 2)
	b.St(addrA, 0, v1, 8)
	b.Ld(out, addrB, 0, 8) // possible alias: invalidates tracking
	b.Mov(0, out)
	b.St(addrA, 0, v2, 8)
	b.Exit(0)
	Optimize(b, OptConfig{AccessElim: true})
	if b.CountOp(OpSt) != 2 {
		t.Fatalf("WAW across possibly-aliasing load must be blocked:\n%s", b)
	}
}

func TestFenceMergePaperExample(t *testing.T) {
	// §6.1: a = X; Frm; Fww; Y = 1 — the two fences merge into one full
	// fence at the earlier position.
	b := NewBlock()
	addrX, addrY, a, one := b.Temp(), b.Temp(), b.Temp(), b.Temp()
	b.MovI(addrX, 0x100)
	b.Ld(a, addrX, 0, 8)
	b.Mov(0, a)
	b.Mb(memmodel.FenceFrm)
	b.Mb(memmodel.FenceFww)
	b.MovI(addrY, 0x108)
	b.MovI(one, 1)
	b.St(addrY, 0, one, 8)
	b.Exit(0)
	Optimize(b, OptConfig{FenceMerge: true})
	ks := fenceKinds(b)
	if len(ks) != 1 {
		t.Fatalf("fences not merged: %v\n%s", ks, b)
	}
	// The merged fence must cover rr, rw and ww — Fmm (≡ DMBFF at the Arm
	// level, matching the paper's Fsc strengthening).
	if ks[0] != memmodel.FenceFmm && ks[0] != memmodel.FenceFsc {
		t.Fatalf("merged fence %v does not cover Frm+Fww", ks[0])
	}
}

func TestFenceMergeBlockedByMemoryAccess(t *testing.T) {
	b := NewBlock()
	addr, a := b.Temp(), b.Temp()
	b.MovI(addr, 0x100)
	b.Mb(memmodel.FenceFrm)
	b.Ld(a, addr, 0, 8)
	b.Mov(0, a)
	b.Mb(memmodel.FenceFww)
	b.Exit(0)
	Optimize(b, OptConfig{FenceMerge: true})
	if ks := fenceKinds(b); len(ks) != 2 {
		t.Fatalf("fences across a memory access must not merge: %v", ks)
	}
}

func TestFenceMergeIdempotentKinds(t *testing.T) {
	// Frm + Frm → Frm, Fsc + anything → Fsc.
	b := NewBlock()
	b.Mb(memmodel.FenceFrm)
	b.Mb(memmodel.FenceFrm)
	b.Exit(0)
	Optimize(b, OptConfig{FenceMerge: true})
	if ks := fenceKinds(b); len(ks) != 1 || ks[0] != memmodel.FenceFrm {
		t.Fatalf("Frm+Frm: %v", ks)
	}
	b = NewBlock()
	b.Mb(memmodel.FenceFsc)
	b.Mb(memmodel.FenceFrr)
	b.Exit(0)
	Optimize(b, OptConfig{FenceMerge: true})
	if ks := fenceKinds(b); len(ks) != 1 || ks[0] != memmodel.FenceFsc {
		t.Fatalf("Fsc+Frr: %v", ks)
	}
}

// TestFenceSetsAgreeWithModel holds the optimizer's merge lattice to the
// IR model it is sound against: for each mergeable fence f and each access
// pair (x,y) ∈ {R,W}², fenceSets says f orders the pair iff tcgmm's ord
// orders x before y in the one-thread execution x; f; y (decided as: ord
// plus the edge y→x has a cycle).
func TestFenceSetsAgreeWithModel(t *testing.T) {
	kinds := []memmodel.Kind{memmodel.KindRead, memmodel.KindWrite}
	bits := [2][2]int{{fRR, fRW}, {fWR, fWW}}
	backEdge := memmodel.Seq(
		memmodel.Set("[y]", func(e memmodel.Event) bool { return e.ID == 2 }),
		memmodel.Inverse(memmodel.Po),
		memmodel.Set("[x]", func(e memmodel.Event) bool { return e.ID == 0 }))
	ordered := memmodel.Define("x-before-y",
		memmodel.Acyclic("ord+back", memmodel.Union(tcgmm.Ord, backEdge)))
	for f, set := range fenceSets {
		for i, xk := range kinds {
			for j, yk := range kinds {
				x := memmodel.NewExecution([]memmodel.Event{
					{ID: 0, Kind: xk, Loc: "X"},
					{ID: 1, Kind: memmodel.KindFence, Fence: f},
					{ID: 2, Kind: yk, Loc: "Y"},
				})
				x.Po.Add(0, 1)
				x.Po.Add(1, 2)
				x.Po.Add(0, 2)
				model := !memmodel.ReferenceConsistent(ordered, x)
				if lattice := set&bits[i][j] != 0; lattice != model {
					t.Errorf("%v between %v and %v: fenceSets says ordered=%v, tcgmm.Ord says %v",
						f, xk, yk, lattice, model)
				}
			}
		}
	}
}

// TestSetToFenceDeterministic: setToFence is filled by ranging over the
// fenceSets map, which has one answer only because every non-empty ordering
// set has a least cover — a fence whose own set lies inside every other
// cover's. Pin that, and that the table holds it.
func TestSetToFenceDeterministic(t *testing.T) {
	for set := 1; set < len(setToFence); set++ {
		least := fenceSets[setToFence[set]]
		if least&set != set {
			t.Errorf("setToFence[%05b] = %v, which does not cover it", set, setToFence[set])
		}
		for f, s := range fenceSets {
			if s&set == set && s&least != least {
				t.Errorf("setToFence[%05b] = %v, but %v covers it too and is not stronger",
					set, setToFence[set], f)
			}
		}
	}
}

func TestDeadCodeKeepsMemoryAndGlobals(t *testing.T) {
	b := NewBlock()
	dead, addr, v := b.Temp(), b.Temp(), b.Temp()
	b.MovI(dead, 123) // dead: never used
	b.MovI(addr, 0x100)
	b.MovI(v, 5)
	b.St(addr, 0, v, 8)
	b.MovI(0, 7) // global: always live
	b.Exit(0)
	Optimize(b, OptConfig{DeadCode: true})
	if b.CountOp(OpSt) != 1 {
		t.Fatal("store must never be dead")
	}
	movis := b.CountOp(OpMovI)
	if movis != 3 { // addr, v, global — dead one removed
		t.Fatalf("movi count = %d, want 3:\n%s", movis, b)
	}
}

func TestDeadCodeGlobalsLiveAtSideExits(t *testing.T) {
	// A global overwritten later in the block is still live at every exit
	// in between — the dispatcher reads full guest state wherever the
	// block is left. Superblock seams put real code between a side exit
	// and the final exit, which is where a linear scan that only seeds
	// liveness at the end goes wrong.
	b := NewBlock()
	c1, c2 := b.Temp(), b.Temp()
	l := b.NewLabel()
	b.MovI(0, 1) // live at the side exit below, overwritten after it
	b.MovI(c1, 0)
	b.MovI(c2, 1)
	b.Brcond(CondEQ, c1, c2, l) // 0 != 1: falls through to the side exit
	b.Exit(0x100)               // side exit: must observe global 0 == 1
	b.SetLabel(l)
	b.MovI(0, 2)
	b.Exit(0x200)
	Optimize(b, OptConfig{DeadCode: true})

	it := NewInterp(b, 16)
	if err := it.Run(b); err != nil {
		t.Fatal(err)
	}
	if it.NextPC != 0x100 || it.Temps[0] != 1 {
		t.Fatalf("side exit sees global 0 = %d at %#x, want 1 at 0x100:\n%s",
			it.Temps[0], it.NextPC, b)
	}
}

func TestDeadCodeNeverRemovesLoads(t *testing.T) {
	b := NewBlock()
	addr, unused := b.Temp(), b.Temp()
	b.MovI(addr, 0x100)
	b.Ld(unused, addr, 0, 8) // result unused, but R event must remain
	b.Exit(0)
	Optimize(b, OptConfig{DeadCode: true})
	if b.CountOp(OpLd) != 1 {
		t.Fatalf("DCE must not remove shared-memory loads:\n%s", b)
	}
}

func TestBrcondLiveness(t *testing.T) {
	// A temp used only on the branch-taken path must stay live across the
	// brcond.
	b := NewBlock()
	l := b.NewLabel()
	x, c1, c2 := b.Temp(), b.Temp(), b.Temp()
	b.MovI(x, 42)
	b.MovI(c1, 0)
	b.MovI(c2, 0)
	b.Brcond(CondEQ, c1, c2, l)
	b.MovI(0, 1)
	b.Exit(0)
	b.SetLabel(l)
	b.Mov(1, x) // x used only here
	b.Exit(0)
	Optimize(b, DefaultOpt())
	it := NewInterp(b, 16)
	if err := it.Run(b); err != nil {
		t.Fatal(err)
	}
	if it.Temps[1] != 42 {
		t.Fatalf("taken-path value lost: global1 = %d\n%s", it.Temps[1], b)
	}
}

// randomBlock builds a random straight-line block over a few temps with
// loads, stores, ALU ops and fences, for differential testing. Accesses
// are 1, 2, 4 or 8 bytes wide at byte offsets 0–11 off two base temps that
// point 4 bytes apart, so accesses overlap partly, exactly, through the
// other base, or not at all. Half of them revisit a location the block
// has used, some of those through the other base, so that Figure-10 pairs
// and the aliasing that must break them up are both common.
func randomBlock(rng *rand.Rand) *Block {
	b := NewBlock()
	temps := []Temp{0, 1, 2, 3} // globals as sources
	for i := 0; i < 4; i++ {
		temps = append(temps, b.Temp())
	}
	bases := [2]Temp{b.Temp(), b.Temp()}
	b.MovI(bases[0], 0x100)
	b.MovI(bases[1], 0x104)
	seen := []accessKey{{bases[0], 0, 8}}
	nInst := 5 + rng.Intn(20)
	for i := 0; i < nInst; i++ {
		pick := func() Temp { return temps[rng.Intn(len(temps))] }
		where := func() (Temp, int64, uint8) {
			k := seen[rng.Intn(len(seen))]
			switch rng.Intn(4) {
			case 0, 1:
				k = accessKey{bases[rng.Intn(2)], int64(rng.Intn(12)), uint8(1) << rng.Intn(4)}
				seen = append(seen, k)
			case 2:
				if k.base == bases[0] && k.off >= 4 {
					k.base, k.off = bases[1], k.off-4
				} else if k.base == bases[1] && k.off < 8 {
					k.base, k.off = bases[0], k.off+4
				}
			}
			return k.base, k.off, k.size
		}
		switch rng.Intn(8) {
		case 0:
			b.MovI(pick(), int64(rng.Intn(100)))
		case 1:
			b.Mov(pick(), pick())
		case 2:
			ops := []Opcode{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor}
			b.Alu(ops[rng.Intn(len(ops))], pick(), pick(), pick())
		case 3:
			base, off, size := where()
			b.Ld(pick(), base, off, size)
		case 4:
			base, off, size := where()
			b.St(base, off, pick(), size)
		case 5:
			fences := []memmodel.Fence{
				memmodel.FenceFrm, memmodel.FenceFww, memmodel.FenceFsc,
				memmodel.FenceFmr, memmodel.FenceFrr,
			}
			b.Mb(fences[rng.Intn(len(fences))])
		case 6:
			b.Emit(Inst{Op: OpSetcond, Cond: Cond(rng.Intn(10)), Dst: pick(), A: pick(), B: pick()})
		case 7:
			b.Emit(Inst{Op: OpNot, Dst: pick(), A: pick()})
		}
	}
	b.Exit(0x1234)
	return b
}

// TestOptimizerPreservesSemantics differential-tests the full pipeline on
// random straight-line blocks: globals and memory must match after
// optimization (single-threaded semantics — the concurrent-semantics
// argument is TestFigure10SoundOnImages).
func TestOptimizerPreservesSemantics(t *testing.T) {
	var forwarded, dropped uint64
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		orig := randomBlock(rng)

		run := func(b *Block) *Interp {
			it := NewInterp(b, 0x200)
			for g := 0; g < NumGlobals; g++ {
				it.Temps[g] = uint64(g * 1000003)
			}
			mem := it.Mem.(Flat)
			for i := range mem {
				mem[i] = byte(i * 37)
			}
			if err := it.Run(b); err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, b)
			}
			return it
		}

		ref := run(orig)

		opt := &Block{Insts: append([]Inst(nil), orig.Insts...),
			NumTemps: orig.NumTemps, NumLabels: orig.NumLabels}
		Optimize(opt, DefaultOpt())
		got := run(opt)
		forwarded += orig.CountOp(OpLd) - opt.CountOp(OpLd)
		dropped += orig.CountOp(OpSt) - opt.CountOp(OpSt)

		for g := 0; g < NumGlobals; g++ {
			if ref.Temps[g] != got.Temps[g] {
				t.Fatalf("seed %d: global %d: %d != %d\nbefore:\n%s\nafter:\n%s",
					seed, g, ref.Temps[g], got.Temps[g], orig, opt)
			}
		}
		refMem, gotMem := ref.Mem.(Flat), got.Mem.(Flat)
		for i := range refMem {
			if refMem[i] != gotMem[i] {
				t.Fatalf("seed %d: mem[%#x]: %d != %d\nbefore:\n%s\nafter:\n%s",
					seed, i, refMem[i], gotMem[i], orig, opt)
			}
		}
		if ref.NextPC != got.NextPC {
			t.Fatalf("seed %d: next pc %#x != %#x", seed, ref.NextPC, got.NextPC)
		}
	}
	t.Logf("%d loads forwarded, %d stores dropped", forwarded, dropped)
	if forwarded == 0 || dropped == 0 {
		t.Fatalf("the blocks never exercised accessElim: %d loads forwarded, %d stores dropped", forwarded, dropped)
	}
}

func TestOptimizerShrinks(t *testing.T) {
	// Sanity: on a typical frontend-shaped block, optimization reduces
	// instruction count.
	b := NewBlock()
	addr, v1, v2, x := b.Temp(), b.Temp(), b.Temp(), b.Temp()
	b.MovI(addr, 0x100)
	b.MovI(v1, 10)
	b.MovI(v2, 0)
	b.Alu(OpAdd, x, v1, v2) // x = 10
	b.St(addr, 0, x, 8)
	b.Mb(memmodel.FenceFrm)
	b.Mb(memmodel.FenceFww)
	b.St(addr, 8, x, 8)
	b.Exit(0)
	before := len(b.Insts)
	Optimize(b, DefaultOpt())
	if len(b.Insts) >= before {
		t.Fatalf("no shrink: %d → %d\n%s", before, len(b.Insts), b)
	}
}
