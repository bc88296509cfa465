package tcg

import (
	"strings"
	"testing"

	"repro/internal/memmodel"
)

func TestInterpAtomicsAndControlFlow(t *testing.T) {
	b := NewBlock()
	addr, exp, nv, old := b.Temp(), b.Temp(), b.Temp(), b.Temp()
	l := b.NewLabel()
	b.MovI(addr, 0x80)
	b.MovI(exp, 0)
	b.MovI(nv, 5)
	b.Emit(Inst{Op: OpCAS, Dst: old, A: addr, B: exp, C: nv, Size: 8})
	b.Emit(Inst{Op: OpXAdd, Dst: old, A: addr, B: nv, Size: 8})  // mem 10, old 5
	b.Emit(Inst{Op: OpXchg, Dst: old, A: addr, B: exp, Size: 8}) // mem 0, old 10
	b.Brcond(CondEQ, old, old, l)
	b.MovI(0, 111) // skipped
	b.SetLabel(l)
	b.Mov(1, old)
	l2 := b.NewLabel()
	b.Br(l2)
	b.MovI(1, 999) // skipped by the unconditional branch
	b.SetLabel(l2)
	b.ExitInd(old)

	it := NewInterp(b, 0x100)
	if err := it.Run(b); err != nil {
		t.Fatal(err)
	}
	if it.Temps[1] != 10 {
		t.Fatalf("xchg old = %d", it.Temps[1])
	}
	if it.NextPC != 10 {
		t.Fatalf("exit_ind pc = %d", it.NextPC)
	}
	v, _ := it.load(0x80, 8)
	if v != 0 {
		t.Fatalf("final mem = %d", v)
	}
}

func TestInterpNegNotSetcondFences(t *testing.T) {
	b := NewBlock()
	x := b.Temp()
	b.MovI(x, 5)
	b.Emit(Inst{Op: OpNeg, Dst: 0, A: x})
	b.Emit(Inst{Op: OpNot, Dst: 1, A: x})
	b.Emit(Inst{Op: OpSetcond, Cond: CondLTU, Dst: 2, A: x, B: x})
	b.Mb(memmodel.FenceFsc) // no-op in the sequential interpreter
	b.Emit(Inst{Op: OpExitHalt})
	it := NewInterp(b, 16)
	if err := it.Run(b); err != nil {
		t.Fatal(err)
	}
	if it.Temps[0] != ^uint64(5)+1 || it.Temps[1] != ^uint64(5) || it.Temps[2] != 0 {
		t.Fatalf("neg/not/setcond: %#x %#x %d", it.Temps[0], it.Temps[1], it.Temps[2])
	}
	if !it.Halted {
		t.Fatal("exit_halt must halt")
	}
}

func TestInterpHelperRecording(t *testing.T) {
	b := NewBlock()
	a1, a2, res := b.Temp(), b.Temp(), b.Temp()
	b.MovI(a1, 3)
	b.MovI(a2, 4)
	b.Emit(Inst{Op: OpCall, Helper: HelperXchg, Dst: res, A: a1, B: a2})
	b.Mov(0, res)
	b.Exit(0)
	it := NewInterp(b, 16)
	it.OnCall = func(in Inst, x, y uint64) (uint64, error) { return x*10 + y, nil }
	if err := it.Run(b); err != nil {
		t.Fatal(err)
	}
	if it.Temps[0] != 34 {
		t.Fatalf("helper result = %d", it.Temps[0])
	}
	if len(it.Calls) != 1 || it.Calls[0] != [3]uint64{uint64(HelperXchg), 3, 4} {
		t.Fatalf("calls = %v", it.Calls)
	}
}

func TestInterpErrors(t *testing.T) {
	// Undefined label.
	b := NewBlock()
	b.Br(7)
	it := NewInterp(b, 16)
	if err := it.Run(b); err == nil {
		t.Fatal("undefined label must error")
	}
	// Out-of-bounds access.
	b = NewBlock()
	addr := b.Temp()
	b.MovI(addr, 1<<40)
	b.Ld(0, addr, 0, 8)
	it = NewInterp(b, 16)
	if err := it.Run(b); err == nil {
		t.Fatal("oob load must error")
	}
	// Runaway loop.
	b = NewBlock()
	l := b.NewLabel()
	b.SetLabel(l)
	b.Br(l)
	it = NewInterp(b, 16)
	if err := it.Run(b); err == nil {
		t.Fatal("infinite loop must exhaust budget")
	}
}

func TestFoldALUFullCoverage(t *testing.T) {
	cases := []struct {
		op      Opcode
		a, b, w int64
	}{
		{OpAdd, 3, 4, 7},
		{OpSub, 3, 4, -1},
		{OpMul, 3, 4, 12},
		{OpUDiv, 12, 4, 3},
		{OpUDiv, 12, 0, 0},
		{OpURem, 13, 4, 1},
		{OpURem, 13, 0, 13},
		{OpAnd, 0b1100, 0b1010, 0b1000},
		{OpOr, 0b1100, 0b1010, 0b1110},
		{OpXor, 0b1100, 0b1010, 0b0110},
		{OpShl, 1, 10, 1024},
		{OpShl, 1, 64, 0},
		{OpShr, 1024, 10, 1},
		{OpShr, 1024, 64, 0},
		{OpSar, -8, 2, -2},
		{OpSar, -8, 100, -1},
	}
	for _, c := range cases {
		if got := foldALU(c.op, c.a, c.b); got != c.w {
			t.Errorf("fold %v(%d, %d) = %d, want %d", c.op, c.a, c.b, got, c.w)
		}
	}
}

func TestInstStrings(t *testing.T) {
	b := NewBlock()
	x := b.Temp()
	b.MovI(x, 3)
	b.Ld(0, x, 8, 4)
	b.St(x, 0, 0, 8)
	b.Mb(memmodel.FenceFrm)
	b.Emit(Inst{Op: OpCAS, Dst: 0, A: x, B: x, C: x, Size: 8})
	b.Emit(Inst{Op: OpXAdd, Dst: 0, A: x, B: x, Size: 8})
	b.Brcond(CondGEU, x, x, 0)
	b.SetLabel(0)
	b.Emit(Inst{Op: OpCall, Helper: HelperCmpXchg, Dst: 0, A: x, B: x})
	b.ExitInd(x)
	s := b.String()
	for _, frag := range []string{"movi", "ld t0", "st [", "mb Frm", "cas",
		"xadd", "brcond.geu", "L0:", "call", "exit_tb_ind"} {
		if !strings.Contains(s, frag) {
			t.Errorf("block dump missing %q:\n%s", frag, s)
		}
	}
}

// BenchmarkOptimize measures optimizer throughput on a frontend-shaped
// block: 30 guest `mov rax,[rsi+d]; mov [rsi+d],rax` pairs under Figure 7a.
// Like frontend.address, it recomputes the address from the guest register
// into a pooled temp before every access, so accessElim tracks each access
// and pairs none — which is what it does on real guest code.
func BenchmarkOptimize(b *testing.B) {
	const rax, rsi = Temp(0), Temp(6)
	blk := NewBlock()
	addr, disp := blk.Temp(), blk.Temp()
	address := func(d int64) {
		blk.Mov(addr, rsi)
		blk.MovI(disp, d)
		blk.Alu(OpAdd, addr, addr, disp)
	}
	for i := 0; i < 30; i++ {
		address(int64(i%4) * 8)
		blk.Ld(rax, addr, 0, 8)
		blk.Mb(memmodel.FenceFrm)
		address(int64(i%4) * 8)
		blk.Mb(memmodel.FenceFww)
		blk.St(addr, 0, rax, 8)
	}
	blk.Exit(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Optimize(blk.Clone(), DefaultOpt())
	}
}
