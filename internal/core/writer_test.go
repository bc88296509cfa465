package core

import (
	"encoding/binary"
	"testing"

	"repro/internal/faults"
	"repro/internal/guestimg"
	"repro/internal/hostlib"
	"repro/internal/idl"
	"repro/internal/isa/arm"
	"repro/internal/isa/x86"
	"repro/internal/tcg"
)

// TestRuntimeWritesBreakExclusives: CPU 1 takes an exclusive monitor at X
// with LDXR; a store to X from a runtime service running on CPU 0 must make
// CPU 1's STXR fail, exactly as a guest store would. The LDXR/STXR lowering
// of an RMW is atomic only if every writer of memory clears monitors — the
// interpreter tier's stores and a host function's (sqlite_exec's slot
// update) as much as generated code's.
func TestRuntimeWritesBreakExclusives(t *testing.T) {
	const (
		table  = 0x80000 // sqlite_exec's 4096-slot table
		seed   = 1
		codeAt = 0x100000 // CPU 1's LDXR/STXR/HLT
	)
	// X is the slot sqlite_exec's first operation updates.
	lcg := uint64(seed | 1)
	x := table + (lcg*6364136223846793005+1442695040888963407)>>33%4096*8

	b := guestimg.NewBuilder(0x10000, 0x40000)
	b.Asm.Label("main").MovRI(x86.RAX, 0)
	exitWith(b.Asm, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		store func(t *testing.T, rt *Runtime)
		want  uint64 // CPU 1's STXR status: 0 stored, 1 failed
	}{
		{"no intervening store", func(*testing.T, *Runtime) {}, 0},
		{"interpreter tier", func(t *testing.T, rt *Runtime) {
			blk := tcg.NewBlock()
			addr, val := blk.Temp(), blk.Temp()
			blk.MovI(addr, int64(x))
			blk.MovI(val, 0x5eed)
			blk.St(addr, 0, val, 8)
			blk.Emit(tcg.Inst{Op: tcg.OpExitHalt})
			rt.irCache[img.Entry] = blk
			if err := rt.interpExec(rt.M.CPUs[0], img.Entry); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"sqlite_exec host call", func(t *testing.T, rt *Runtime) {
			sigs, err := idl.ParseTable("u64 sqlite_exec(ptr table, u64 ops, u64 seed);\n")
			if err != nil {
				t.Fatal(err)
			}
			c := rt.M.CPUs[0]
			const sp = 0x90000
			if err := rt.M.Write(sp, binary.LittleEndian.AppendUint64(nil, img.Entry)); err != nil {
				t.Fatal(err)
			}
			*guestReg(c, x86.RSP) = sp
			*guestReg(c, x86.RDI), *guestReg(c, x86.RSI), *guestReg(c, x86.RDX) = table, 1, seed
			e := &pltEntry{sig: sigs["sqlite_exec"], fn: hostlib.Default().MustLookup("sqlite_exec"), name: "sqlite_exec"}
			if err := rt.hostCall(c, e); err != nil {
				t.Fatal(err)
			}
			if v, _ := rt.M.ReadMem(x, 8); v == 0 {
				t.Fatal("sqlite_exec did not update slot X")
			}
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := newRuntime(Config{Variant: VariantRisotto}, img)
			if err != nil {
				t.Fatal(err)
			}
			a := arm.NewAssembler()
			a.Raw(arm.Inst{Op: arm.LDXR, Rd: arm.X2, Rn: arm.X1, Size: 8})
			a.Raw(arm.Inst{Op: arm.STXR, Rd: arm.X3, Rn: arm.X1, Rm: arm.X2, Size: 8})
			a.Hlt()
			code, _, err := a.Assemble(codeAt)
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.M.Write(codeAt, code); err != nil {
				t.Fatal(err)
			}
			c1 := rt.M.AddCPU()
			c1.PC, c1.Regs[1] = codeAt, x
			if err := rt.M.Run(c1, 1); !faults.IsKind(err, faults.TrapBudget) {
				t.Fatalf("LDXR: %v", err)
			}
			tc.store(t, rt)
			if err := rt.M.Run(c1, 3); err != nil || !c1.Halted {
				t.Fatalf("STXR: %v, halted %v", err, c1.Halted)
			}
			if c1.Regs[3] != tc.want {
				t.Errorf("STXR status %d, want %d", c1.Regs[3], tc.want)
			}
		})
	}
}
