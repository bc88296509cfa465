package machine

import (
	"testing"

	"repro/internal/isa/arm"
)

// loadProgram assembles a program at base and prepares a machine to run it.
func loadProgram(t *testing.T, base uint64, build func(a *arm.Assembler)) (*Machine, map[string]uint64) {
	t.Helper()
	a := arm.NewAssembler()
	build(a)
	code, syms, err := a.Assemble(base)
	if err != nil {
		t.Fatal(err)
	}
	m := New(1 << 20)
	m.Syscall = NativeSyscall
	copy(m.Mem[base:], code)
	m.CPUs[0].PC = base
	return m, syms
}

func TestArithmeticLoop(t *testing.T) {
	// Sum 1..10 into X0.
	m, _ := loadProgram(t, 0x1000, func(a *arm.Assembler) {
		a.MovImm(arm.X0, 0).
			MovImm(arm.X1, 1).
			Label("loop").
			Add(arm.X0, arm.X0, arm.X1).
			AddI(arm.X1, arm.X1, 1).
			CmpI(arm.X1, 11).
			BCondLabel(arm.NE, "loop").
			Hlt()
	})
	if err := m.Run(m.CPUs[0], 1000); err != nil {
		t.Fatal(err)
	}
	if got := m.CPUs[0].Regs[0]; got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
	if !m.CPUs[0].Halted {
		t.Fatal("CPU should have halted")
	}
}

func TestMemoryAccessSizes(t *testing.T) {
	m, _ := loadProgram(t, 0x1000, func(a *arm.Assembler) {
		a.MovImm(arm.X1, 0x8000).
			MovImm(arm.X0, 0x1122334455667788).
			Str(arm.X0, arm.X1, 0, 8).
			Ldr(arm.X2, arm.X1, 0, 1). // 0x88
			Ldr(arm.X3, arm.X1, 0, 2). // 0x7788
			Ldr(arm.X4, arm.X1, 0, 4). // 0x55667788
			Ldr(arm.X5, arm.X1, 0, 8).
			Hlt()
	})
	if err := m.Run(m.CPUs[0], 100); err != nil {
		t.Fatal(err)
	}
	c := m.CPUs[0]
	if c.Regs[2] != 0x88 || c.Regs[3] != 0x7788 || c.Regs[4] != 0x55667788 ||
		c.Regs[5] != 0x1122334455667788 {
		t.Fatalf("loads: %#x %#x %#x %#x", c.Regs[2], c.Regs[3], c.Regs[4], c.Regs[5])
	}
}

func TestXZRSemantics(t *testing.T) {
	m, _ := loadProgram(t, 0x1000, func(a *arm.Assembler) {
		a.MovImm(arm.X0, 7).
			Raw(arm.Inst{Op: arm.ADD, Rd: arm.XZR, Rn: arm.X0, Rm: arm.X0}). // discarded
			Raw(arm.Inst{Op: arm.ADD, Rd: arm.X1, Rn: arm.XZR, Rm: arm.X0}). // X1 = 7
			Hlt()
	})
	if err := m.Run(m.CPUs[0], 100); err != nil {
		t.Fatal(err)
	}
	if m.CPUs[0].Regs[31] != 0 {
		t.Fatal("XZR storage must stay zero")
	}
	if m.CPUs[0].Regs[1] != 7 {
		t.Fatalf("X1 = %d, want 7", m.CPUs[0].Regs[1])
	}
}

func TestConditions(t *testing.T) {
	// CSET across signed/unsigned comparisons of -1 and 1.
	m, _ := loadProgram(t, 0x1000, func(a *arm.Assembler) {
		a.MovImm(arm.X0, ^uint64(0)). // -1
						MovImm(arm.X1, 1).
						Cmp(arm.X0, arm.X1).
						Cset(arm.X2, arm.LT). // signed: -1 < 1 → 1
						Cset(arm.X3, arm.HI). // unsigned: max > 1 → 1
						Cset(arm.X4, arm.EQ). // → 0
						Cmp(arm.X1, arm.X1).
						Cset(arm.X5, arm.EQ). // → 1
						Cset(arm.X6, arm.LE). // → 1
						Cset(arm.X7, arm.LO). // → 0
						Hlt()
	})
	if err := m.Run(m.CPUs[0], 100); err != nil {
		t.Fatal(err)
	}
	c := m.CPUs[0]
	want := []uint64{1, 1, 0, 1, 1, 0}
	got := []uint64{c.Regs[2], c.Regs[3], c.Regs[4], c.Regs[5], c.Regs[6], c.Regs[7]}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cset %d: got %v want %v", i, got, want)
		}
	}
}

func TestCasalSemantics(t *testing.T) {
	m, _ := loadProgram(t, 0x1000, func(a *arm.Assembler) {
		a.MovImm(arm.X1, 0x8000).
			MovImm(arm.X0, 5).
			Str(arm.X0, arm.X1, 0, 8). // [x1] = 5
			MovImm(arm.X2, 5).         // expected
			MovImm(arm.X3, 9).         // new
			Casal(arm.X2, arm.X3, arm.X1, 8).
			Ldr(arm.X4, arm.X1, 0, 8). // should be 9
			MovImm(arm.X5, 100).       // wrong expectation
			MovImm(arm.X6, 77).
			Casal(arm.X5, arm.X6, arm.X1, 8).
			Ldr(arm.X7, arm.X1, 0, 8). // still 9
			Hlt()
	})
	if err := m.Run(m.CPUs[0], 100); err != nil {
		t.Fatal(err)
	}
	c := m.CPUs[0]
	if c.Regs[2] != 5 {
		t.Fatalf("casal old value = %d, want 5", c.Regs[2])
	}
	if c.Regs[4] != 9 {
		t.Fatalf("after successful casal [x1] = %d, want 9", c.Regs[4])
	}
	if c.Regs[5] != 9 {
		t.Fatalf("failed casal old value = %d, want 9", c.Regs[5])
	}
	if c.Regs[7] != 9 {
		t.Fatalf("failed casal must not write: [x1] = %d", c.Regs[7])
	}
}

func TestExclusivesSucceedUncontended(t *testing.T) {
	m, _ := loadProgram(t, 0x1000, func(a *arm.Assembler) {
		a.MovImm(arm.X1, 0x8000).
			MovImm(arm.X2, 42).
			Raw(arm.Inst{Op: arm.LDXR, Rd: arm.X3, Rn: arm.X1, Size: 8}).
			Raw(arm.Inst{Op: arm.STXR, Rd: arm.X4, Rm: arm.X2, Rn: arm.X1, Size: 8}).
			Ldr(arm.X5, arm.X1, 0, 8).
			Hlt()
	})
	if err := m.Run(m.CPUs[0], 100); err != nil {
		t.Fatal(err)
	}
	c := m.CPUs[0]
	if c.Regs[4] != 0 {
		t.Fatalf("stxr status = %d, want 0 (success)", c.Regs[4])
	}
	if c.Regs[5] != 42 {
		t.Fatalf("[x1] = %d, want 42", c.Regs[5])
	}
}

func TestExclusiveFailsAfterInterveningStore(t *testing.T) {
	// CPU1 stores to the monitored address between CPU0's LDXR and STXR.
	// Arrange with the round-robin scheduler: CPU0 does LDXR then spins;
	// simpler: drive the machine manually.
	m := New(1 << 16)
	a := arm.NewAssembler()
	a.MovImm(arm.X1, 0x8000).
		Raw(arm.Inst{Op: arm.LDXR, Rd: arm.X3, Rn: arm.X1, Size: 8}).
		Raw(arm.Inst{Op: arm.STXR, Rd: arm.X4, Rm: arm.X3, Rn: arm.X1, Size: 8}).
		Hlt()
	code, _, err := a.Assemble(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	copy(m.Mem[0x1000:], code)
	c := m.CPUs[0]
	c.PC = 0x1000
	// Step through MovImm (1 inst) + LDXR.
	for i := 0; i < 2; i++ {
		if err := m.step(c); err != nil {
			t.Fatal(err)
		}
	}
	// Another CPU writes the monitored address.
	if err := m.WriteMem(0x8000, 8, 7); err != nil {
		t.Fatal(err)
	}
	// STXR must now fail.
	if err := m.Run(c, 10); err != nil {
		t.Fatal(err)
	}
	if c.Regs[4] != 1 {
		t.Fatalf("stxr status = %d, want 1 (failure)", c.Regs[4])
	}
}

func TestSpawnJoin(t *testing.T) {
	// Main spawns a worker that writes 99 to 0x9000, joins it, reads back.
	m, syms := loadProgram(t, 0x1000, func(a *arm.Assembler) {
		a.Label("main").
			MovImm(arm.X8, SysSpawn).
			MovImm(arm.X0, 0). // patched below via worker label…
			BLabel("setup")
		a.Label("worker").
			MovImm(arm.X2, 0x9000).
			MovImm(arm.X3, 99).
			Str(arm.X3, arm.X2, 0, 8).
			MovImm(arm.X8, SysExit).
			MovImm(arm.X0, 7).
			Svc(0)
		a.Label("setup").
			MovImm(arm.X1, 0).       // worker arg
			MovImm(arm.X2, 0xF0000). // worker stack
			Svc(0).                  // spawn; X0 = cpu id
			MovImm(arm.X8, SysJoin).
			Svc(0). // join; X0 = exit code
			MovImm(arm.X2, 0x9000).
			Ldr(arm.X4, arm.X2, 0, 8).
			Hlt()
	})
	// Patch worker entry into main's X0 (the MovImm(X0, 0) placeholder can't
	// reference a label; rewrite memory after assembly instead).
	// Simpler: set X0 directly before running.
	c := m.CPUs[0]
	c.PC = syms["main"]
	// Execute the first MovImm(X8, spawn).
	if err := m.step(c); err != nil {
		t.Fatal(err)
	}
	// Skip the placeholder MovImm + B by setting state directly.
	c.Regs[0] = syms["worker"]
	c.PC = syms["setup"]
	if err := m.RunAll(8, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(m.CPUs) != 2 {
		t.Fatalf("expected 2 CPUs, got %d", len(m.CPUs))
	}
	if c.Regs[0] != 7 {
		t.Fatalf("join exit code = %d, want 7", c.Regs[0])
	}
	if c.Regs[4] != 99 {
		t.Fatalf("worker store not visible: %d", c.Regs[4])
	}
}

func TestWriteSyscall(t *testing.T) {
	m, _ := loadProgram(t, 0x1000, func(a *arm.Assembler) {
		a.MovImm(arm.X1, 0x8000).
			MovImm(arm.X2, 0x6F6C6C65_68). // "hello" little-endian ('h'=0x68 first)
			Str(arm.X2, arm.X1, 0, 8).
			MovImm(arm.X8, SysWrite).
			MovImm(arm.X0, 0x8000).
			MovImm(arm.X1, 5).
			Svc(0).
			Hlt()
	})
	if err := m.Run(m.CPUs[0], 100); err != nil {
		t.Fatal(err)
	}
	if string(m.Output) != "hello" {
		t.Fatalf("output = %q", m.Output)
	}
}

func TestCostAccounting(t *testing.T) {
	m, _ := loadProgram(t, 0x1000, func(a *arm.Assembler) {
		a.Dmb(arm.BarrierFull).
			Dmb(arm.BarrierLoad).
			Dmb(arm.BarrierStore).
			Hlt()
	})
	if err := m.Run(m.CPUs[0], 10); err != nil {
		t.Fatal(err)
	}
	want := m.Cost.DMBFull + m.Cost.DMBLoad + m.Cost.DMBStore
	if got := m.CPUs[0].Cycles; got != want {
		t.Fatalf("cycles = %d, want %d", got, want)
	}
}

func TestAtomicContentionPenalty(t *testing.T) {
	m := New(1 << 16)
	// Two CPUs hammer the same address with CASAL via direct stepping.
	a := arm.NewAssembler()
	a.MovImm(arm.X1, 0x8000).
		MovImm(arm.X2, 0).
		MovImm(arm.X3, 0).
		Casal(arm.X2, arm.X3, arm.X1, 8).
		Hlt()
	code, _, err := a.Assemble(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	copy(m.Mem[0x1000:], code)
	c0 := m.CPUs[0]
	c0.PC = 0x1000
	if err := m.Run(c0, 100); err != nil {
		t.Fatal(err)
	}
	base := c0.Cycles

	// Second CPU runs the same code: must pay the transfer penalty.
	c1 := m.AddCPU()
	c1.PC = 0x1000
	if err := m.Run(c1, 100); err != nil {
		t.Fatal(err)
	}
	if c1.Cycles != base+m.Cost.AtomicTransfer {
		t.Fatalf("contended cycles = %d, want %d", c1.Cycles, base+m.Cost.AtomicTransfer)
	}
}

func TestOutOfBoundsAccess(t *testing.T) {
	m, _ := loadProgram(t, 0x1000, func(a *arm.Assembler) {
		a.MovImm(arm.X1, 1<<62).
			Ldr(arm.X0, arm.X1, 0, 8).
			Hlt()
	})
	if err := m.Run(m.CPUs[0], 100); err == nil {
		t.Fatal("out-of-bounds load must error")
	}
}

func TestRunAllBudget(t *testing.T) {
	m, _ := loadProgram(t, 0x1000, func(a *arm.Assembler) {
		a.Label("spin").BLabel("spin")
	})
	if err := m.RunAll(16, 1000); err == nil {
		t.Fatal("infinite loop must exhaust the step budget")
	}
}
