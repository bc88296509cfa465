package machine

import (
	"encoding/binary"
	"testing"

	"repro/internal/isa/arm"
)

// Direct per-instruction semantics tests for the interpreter ops that the
// higher-level tests reach only indirectly.

func execOne(t *testing.T, c *CPU, m *Machine, inst arm.Inst) {
	t.Helper()
	if err := m.exec(c, &inst); err != nil {
		t.Fatalf("%v: %v", inst, err)
	}
}

func freshCPU(t *testing.T) (*Machine, *CPU) {
	t.Helper()
	m := New(1 << 16)
	return m, m.CPUs[0]
}

func TestExecALUOps(t *testing.T) {
	m, c := freshCPU(t)
	c.Regs[1] = 100
	c.Regs[2] = 7

	cases := []struct {
		inst arm.Inst
		want uint64
	}{
		{arm.Inst{Op: arm.ADD, Rd: 3, Rn: 1, Rm: 2}, 107},
		{arm.Inst{Op: arm.SUB, Rd: 3, Rn: 1, Rm: 2}, 93},
		{arm.Inst{Op: arm.MUL, Rd: 3, Rn: 1, Rm: 2}, 700},
		{arm.Inst{Op: arm.UDIV, Rd: 3, Rn: 1, Rm: 2}, 14},
		{arm.Inst{Op: arm.UREM, Rd: 3, Rn: 1, Rm: 2}, 2},
		{arm.Inst{Op: arm.AND, Rd: 3, Rn: 1, Rm: 2}, 100 & 7},
		{arm.Inst{Op: arm.ORR, Rd: 3, Rn: 1, Rm: 2}, 100 | 7},
		{arm.Inst{Op: arm.EOR, Rd: 3, Rn: 1, Rm: 2}, 100 ^ 7},
		{arm.Inst{Op: arm.LSL, Rd: 3, Rn: 1, Rm: 2}, 100 << 7},
		{arm.Inst{Op: arm.LSR, Rd: 3, Rn: 1, Rm: 2}, 100 >> 7},
		{arm.Inst{Op: arm.ASR, Rd: 3, Rn: 1, Rm: 2}, 100 >> 7},
		{arm.Inst{Op: arm.MVN, Rd: 3, Rn: 1}, ^uint64(100)},
		{arm.Inst{Op: arm.NEG, Rd: 3, Rn: 1}, ^uint64(100) + 1},
		{arm.Inst{Op: arm.ADDI, Rd: 3, Rn: 1, Imm: 11}, 111},
		{arm.Inst{Op: arm.SUBI, Rd: 3, Rn: 1, Imm: 11}, 89},
		{arm.Inst{Op: arm.ANDI, Rd: 3, Rn: 1, Imm: 0xF}, 100 & 0xF},
		{arm.Inst{Op: arm.ORRI, Rd: 3, Rn: 1, Imm: 0xF}, 100 | 0xF},
		{arm.Inst{Op: arm.EORI, Rd: 3, Rn: 1, Imm: 0xF}, 100 ^ 0xF},
		{arm.Inst{Op: arm.LSLI, Rd: 3, Rn: 1, Imm: 2}, 400},
		{arm.Inst{Op: arm.LSRI, Rd: 3, Rn: 1, Imm: 2}, 25},
		{arm.Inst{Op: arm.ASRI, Rd: 3, Rn: 1, Imm: 2}, 25},
	}
	for _, tc := range cases {
		c.PC = 0
		execOne(t, c, m, tc.inst)
		if c.Regs[3] != tc.want {
			t.Errorf("%v: got %#x want %#x", tc.inst, c.Regs[3], tc.want)
		}
	}
}

func TestExecShiftSaturation(t *testing.T) {
	m, c := freshCPU(t)
	c.Regs[1] = ^uint64(0) // -1
	c.Regs[2] = 200        // shift count ≥ 64
	c.PC = 0
	execOne(t, c, m, arm.Inst{Op: arm.LSL, Rd: 3, Rn: 1, Rm: 2})
	if c.Regs[3] != 0 {
		t.Fatalf("lsl≥64 = %#x", c.Regs[3])
	}
	execOne(t, c, m, arm.Inst{Op: arm.LSR, Rd: 3, Rn: 1, Rm: 2})
	if c.Regs[3] != 0 {
		t.Fatalf("lsr≥64 = %#x", c.Regs[3])
	}
	execOne(t, c, m, arm.Inst{Op: arm.ASR, Rd: 3, Rn: 1, Rm: 2})
	if c.Regs[3] != ^uint64(0) {
		t.Fatalf("asr≥64 of -1 = %#x", c.Regs[3])
	}
	execOne(t, c, m, arm.Inst{Op: arm.ASRI, Rd: 3, Rn: 1, Imm: 63})
	if c.Regs[3] != ^uint64(0) {
		t.Fatalf("asri 63 of -1 = %#x", c.Regs[3])
	}
}

func TestExecDivByZero(t *testing.T) {
	m, c := freshCPU(t)
	c.Regs[1] = 42
	c.Regs[2] = 0
	c.PC = 0
	execOne(t, c, m, arm.Inst{Op: arm.UDIV, Rd: 3, Rn: 1, Rm: 2})
	if c.Regs[3] != 0 {
		t.Fatalf("udiv/0 = %d", c.Regs[3])
	}
	execOne(t, c, m, arm.Inst{Op: arm.UREM, Rd: 3, Rn: 1, Rm: 2})
	if c.Regs[3] != 42 {
		t.Fatalf("urem/0 = %d", c.Regs[3])
	}
}

func TestExecSwpal(t *testing.T) {
	m, c := freshCPU(t)
	if err := m.WriteMem(0x8000, 8, 5); err != nil {
		t.Fatal(err)
	}
	c.Regs[1] = 0x8000
	c.Regs[2] = 99 // new value
	c.PC = 0
	execOne(t, c, m, arm.Inst{Op: arm.SWPAL, Rd: 2, Rm: 3, Rn: 1, Size: 8})
	if c.Regs[3] != 5 {
		t.Fatalf("swpal old = %d", c.Regs[3])
	}
	v, _ := m.ReadMem(0x8000, 8)
	if v != 99 {
		t.Fatalf("swpal mem = %d", v)
	}
	if m.AtomicExec == 0 {
		t.Fatal("atomic execution not counted")
	}
}

func TestExecBranchesAndCBNZ(t *testing.T) {
	m, c := freshCPU(t)
	c.PC = 0x1000
	execOne(t, c, m, arm.Inst{Op: arm.B, Off: 4})
	if c.PC != 0x1010 {
		t.Fatalf("b: pc = %#x", c.PC)
	}
	c.Regs[2] = 0
	execOne(t, c, m, arm.Inst{Op: arm.CBNZ, Rd: 2, Off: 8})
	if c.PC != 0x1014 { // not taken
		t.Fatalf("cbnz zero: pc = %#x", c.PC)
	}
	c.Regs[2] = 1
	execOne(t, c, m, arm.Inst{Op: arm.CBNZ, Rd: 2, Off: 8})
	if c.PC != 0x1034 { // taken
		t.Fatalf("cbnz nonzero: pc = %#x", c.PC)
	}
	c.Regs[5] = 0x4000
	execOne(t, c, m, arm.Inst{Op: arm.BR, Rn: 5})
	if c.PC != 0x4000 {
		t.Fatalf("br: pc = %#x", c.PC)
	}
	execOne(t, c, m, arm.Inst{Op: arm.BL, Off: 2})
	if c.Regs[30] != 0x4004 || c.PC != 0x4008 {
		t.Fatalf("bl: lr=%#x pc=%#x", c.Regs[30], c.PC)
	}
	execOne(t, c, m, arm.Inst{Op: arm.RET})
	if c.PC != 0x4004 {
		t.Fatalf("ret: pc = %#x", c.PC)
	}
}

func TestExecMovkMerges(t *testing.T) {
	m, c := freshCPU(t)
	c.PC = 0
	execOne(t, c, m, arm.Inst{Op: arm.MOVZ, Rd: 1, Imm: 0x1111, Shift: 0})
	execOne(t, c, m, arm.Inst{Op: arm.MOVK, Rd: 1, Imm: 0x2222, Shift: 2})
	if c.Regs[1] != 0x0000_2222_0000_1111 {
		t.Fatalf("movz/movk = %#x", c.Regs[1])
	}
}

func TestExecDMBCountsDynamic(t *testing.T) {
	m, c := freshCPU(t)
	c.PC = 0
	execOne(t, c, m, arm.Inst{Op: arm.DMB, Barrier: arm.BarrierFull})
	execOne(t, c, m, arm.Inst{Op: arm.DMB, Barrier: arm.BarrierLoad})
	execOne(t, c, m, arm.Inst{Op: arm.DMB, Barrier: arm.BarrierLoad})
	execOne(t, c, m, arm.Inst{Op: arm.DMB, Barrier: arm.BarrierStore})
	if m.DMBExec[arm.BarrierFull] != 1 || m.DMBExec[arm.BarrierLoad] != 2 ||
		m.DMBExec[arm.BarrierStore] != 1 {
		t.Fatalf("dynamic dmb counts: %v", m.DMBExec)
	}
}

func TestChargeAtomicAndCounters(t *testing.T) {
	m, c := freshCPU(t)
	before := c.Cycles
	m.ChargeAtomic(c, 0x8000)
	if c.Cycles != before+m.Cost.Atomic {
		t.Fatalf("uncontended charge = %d", c.Cycles-before)
	}
	c2 := m.AddCPU()
	before = c2.Cycles
	m.ChargeAtomic(c2, 0x8000)
	if c2.Cycles != before+m.Cost.Atomic+m.Cost.AtomicTransfer {
		t.Fatalf("contended charge = %d", c2.Cycles-before)
	}
	if m.MaxCycles() != c2.Cycles {
		t.Fatalf("MaxCycles = %d", m.MaxCycles())
	}
	if m.TotalInsts() != 0 {
		t.Fatalf("TotalInsts = %d", m.TotalInsts())
	}
}

// TestDecodeCacheInvalidation: a word Write puts over an executed
// instruction is what the next fetch of that PC runs.
func TestDecodeCacheInvalidation(t *testing.T) {
	m, c := freshCPU(t)
	CheckFetches(t, m)
	for _, inst := range []arm.Inst{{Op: arm.NOP}, {Op: arm.MOVZ, Rd: 1, Imm: 7}} {
		w, err := arm.Encode(inst)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Write(0x1000, binary.LittleEndian.AppendUint32(nil, w)); err != nil {
			t.Fatal(err)
		}
		c.PC = 0x1000
		if err := m.step(c); err != nil {
			t.Fatal(err)
		}
	}
	if c.Regs[1] != 7 {
		t.Fatalf("patched instruction not executed: %d", c.Regs[1])
	}
}

func TestWeakEnabledFlag(t *testing.T) {
	m, _ := freshCPU(t)
	if m.WeakEnabled() {
		t.Fatal("weak mode should default off")
	}
	m.EnableWeakMode(NewSeededDrains(1, 0)) // 0 → default drain prob
	if !m.WeakEnabled() {
		t.Fatal("weak mode should be on")
	}
	if err := m.FlushWeak(m.CPUs[0]); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkInterpreter measures raw interpretation speed (host ns per
// simulated instruction) on a tight ALU loop, through Run: the
// run-at-a-time path RunAll takes.
func BenchmarkInterpreter(b *testing.B) {
	a := arm.NewAssembler()
	a.MovImm(arm.X0, 0).
		MovImm(arm.X1, 1).
		Label("loop").
		Add(arm.X0, arm.X0, arm.X1).
		Eor(arm.X2, arm.X0, arm.X1).
		LslI(arm.X2, arm.X2, 3).
		CmpI(arm.X0, 4000).
		BCondLabel(arm.NE, "loop").
		Hlt()
	code, _, err := a.Assemble(0x1000)
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	for i := 0; i < b.N; i++ {
		m := New(1 << 16)
		copy(m.Mem[0x1000:], code)
		m.CPUs[0].PC = 0x1000
		if err := m.Run(m.CPUs[0], 1_000_000); err != nil {
			b.Fatal(err)
		}
		insts += m.CPUs[0].Insts
	}
	b.ReportMetric(float64(insts)/float64(b.N), "siminsts/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/siminst")
}

// TestCostChangeTakesEffectAtReset: the machine charges the cost table it
// resolved at New, and resolves a changed table at the next Reset.
func TestCostChangeTakesEffectAtReset(t *testing.T) {
	m := New(1 << 16)
	run := func() uint64 {
		t.Helper()
		if err := m.Write(0x1000, straightLine(t, 5)); err != nil {
			t.Fatal(err)
		}
		c := m.CPUs[0]
		c.PC, c.Halted, c.Cycles = 0x1000, false, 0
		if err := m.Run(c, 10); err != nil {
			t.Fatal(err)
		}
		return c.Cycles
	}
	if got := run(); got != 4 {
		t.Fatalf("four ADDIs and an HLT cost %d cycles, want 4", got)
	}
	m.Cost.ALU = 10
	if got := run(); got != 4 {
		t.Errorf("before Reset: %d cycles, want the resolved table's 4", got)
	}
	m.Reset()
	if got := run(); got != 40 {
		t.Errorf("after Reset: %d cycles, want 40", got)
	}
}
