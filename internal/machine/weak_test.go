package machine

import (
	"testing"

	"repro/internal/isa/arm"
)

// sbProgram builds the store-buffering litmus shape as native Arm code:
//
//	T0: X=1; a=Y      T1: Y=1; b=X
//
// with optional DMBs between the store and load. Thread 0 runs on CPU0
// (entry sb0), thread 1 on CPU1 (entry sb1); results land in 0x9000/0x9008.
func sbProgram(t *testing.T, fenced bool) (*Machine, map[string]uint64) {
	t.Helper()
	a := arm.NewAssembler()
	emit := func(label string, myLoc, otherLoc, resultLoc uint64) {
		a.Label(label).
			MovImm(arm.X1, myLoc).
			MovImm(arm.X2, 1).
			Str(arm.X2, arm.X1, 0, 8)
		if fenced {
			a.Dmb(arm.BarrierFull)
		}
		a.MovImm(arm.X3, otherLoc).
			Ldr(arm.X4, arm.X3, 0, 8).
			MovImm(arm.X5, resultLoc).
			Str(arm.X4, arm.X5, 0, 8).
			Hlt()
	}
	emit("sb0", 0x8000, 0x8008, 0x9000)
	emit("sb1", 0x8008, 0x8000, 0x9008)
	code, syms, err := a.Assemble(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	m := New(1 << 16)
	copy(m.Mem[0x1000:], code)
	return m, syms
}

// runSB executes both threads under the given seed and returns (a, b).
func runSB(t *testing.T, fenced bool, seed int64, quantum int) (uint64, uint64) {
	t.Helper()
	m, syms := sbProgram(t, fenced)
	m.EnableWeakMode(NewSeededDrains(seed, 32))
	m.CPUs[0].PC = syms["sb0"]
	c1 := m.AddCPU()
	c1.PC = syms["sb1"]
	if err := m.RunAll(quantum, 100000); err != nil {
		t.Fatal(err)
	}
	if err := m.FlushAllWeak(); err != nil {
		t.Fatal(err)
	}
	av, _ := m.ReadMem(0x9000, 8)
	bv, _ := m.ReadMem(0x9008, 8)
	return av, bv
}

func TestWeakModeExhibitsStoreBuffering(t *testing.T) {
	// Without fences the weak outcome a=b=0 must appear for some seed.
	seen := false
	for seed := int64(0); seed < 64 && !seen; seed++ {
		a, b := runSB(t, false, seed, 2)
		if a == 0 && b == 0 {
			seen = true
		}
	}
	if !seen {
		t.Fatal("store-buffering outcome a=b=0 never observed in weak mode")
	}
}

func TestWeakModeFencesForbidStoreBuffering(t *testing.T) {
	// With DMB ISH between store and load, a=b=0 must never appear.
	for seed := int64(0); seed < 128; seed++ {
		for _, q := range []int{1, 2, 8} {
			a, b := runSB(t, true, seed, q)
			if a == 0 && b == 0 {
				t.Fatalf("seed %d quantum %d: fenced SB exhibited a=b=0", seed, q)
			}
		}
	}
}

// mpProgram builds message passing with optional DMB ISHST on the writer.
func runMP(t *testing.T, fenced bool, seed int64) (uint64, uint64) {
	t.Helper()
	a := arm.NewAssembler()
	a.Label("writer").
		MovImm(arm.X1, 0x8000). // X
		MovImm(arm.X2, 1).
		Str(arm.X2, arm.X1, 0, 8)
	if fenced {
		a.Dmb(arm.BarrierStore)
	}
	a.MovImm(arm.X3, 0x8008). // Y
					Str(arm.X2, arm.X3, 0, 8)
	// Keep the writer busy so its buffer drains on the random schedule
	// rather than the halt-time flush (HLT synchronizes, like thread
	// exit before a join).
	for i := 0; i < 24; i++ {
		a.AddI(arm.X9, arm.X9, 1)
	}
	a.Hlt()
	// The reader spins until it observes Y=1, then immediately reads X —
	// the classic message-passing receive.
	a.Label("reader").
		MovImm(arm.X1, 0x8008).
		MovImm(arm.X7, 0).
		Label("spin").
		AddI(arm.X7, arm.X7, 1).
		MovImm(arm.X8, 4096).
		Cmp(arm.X7, arm.X8).
		BCondLabel(arm.HI, "giveup").
		Ldr(arm.X4, arm.X1, 0, 8). // a = Y
		CbzLabel(arm.X4, "spin").
		Label("giveup").
		MovImm(arm.X2, 0x8000).
		Ldr(arm.X5, arm.X2, 0, 8). // b = X
		MovImm(arm.X6, 0x9000).
		Str(arm.X4, arm.X6, 0, 8).
		Str(arm.X5, arm.X6, 8, 8).
		Hlt()
	code, syms, err := a.Assemble(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	m := New(1 << 16)
	copy(m.Mem[0x1000:], code)
	m.EnableWeakMode(NewSeededDrains(seed, 16))
	m.CPUs[0].PC = syms["writer"]
	c1 := m.AddCPU()
	c1.PC = syms["reader"]
	if err := m.RunAll(1, 100000); err != nil {
		t.Fatal(err)
	}
	if err := m.FlushAllWeak(); err != nil {
		t.Fatal(err)
	}
	av, _ := m.ReadMem(0x9000, 8)
	bv, _ := m.ReadMem(0x9008, 8)
	return av, bv
}

func TestWeakModeExhibitsMessagePassingReorder(t *testing.T) {
	// Out-of-order drain lets Y=1 become visible before X=1: a=1, b=0.
	seen := false
	for seed := int64(0); seed < 256 && !seen; seed++ {
		a, b := runMP(t, false, seed)
		if a == 1 && b == 0 {
			seen = true
		}
	}
	if !seen {
		t.Fatal("MP weak outcome a=1,b=0 never observed in weak mode")
	}
}

func TestWeakModeDMBSTForbidsMPReorder(t *testing.T) {
	for seed := int64(0); seed < 256; seed++ {
		a, b := runMP(t, true, seed)
		if a == 1 && b == 0 {
			t.Fatalf("seed %d: DMB ISHST failed to order the stores", seed)
		}
	}
}

func TestWeakModeForwardsOwnStores(t *testing.T) {
	// A CPU must read its own buffered store (no stale memory value).
	a := arm.NewAssembler()
	a.MovImm(arm.X1, 0x8000).
		MovImm(arm.X2, 7).
		Str(arm.X2, arm.X1, 0, 8).
		Ldr(arm.X3, arm.X1, 0, 8).
		Hlt()
	code, _, err := a.Assemble(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	m := New(1 << 16)
	copy(m.Mem[0x1000:], code)
	m.EnableWeakMode(NewSeededDrains(1, 1)) // drain almost never
	m.CPUs[0].PC = 0x1000
	if err := m.Run(m.CPUs[0], 1000); err != nil {
		t.Fatal(err)
	}
	if m.CPUs[0].Regs[3] != 7 {
		t.Fatalf("own store not forwarded: %d", m.CPUs[0].Regs[3])
	}
}

func TestWeakModeCoherentDrainOrder(t *testing.T) {
	// Two buffered stores to the same address must drain in order: the
	// final memory value is the second store's.
	for seed := int64(0); seed < 64; seed++ {
		a := arm.NewAssembler()
		a.MovImm(arm.X1, 0x8000).
			MovImm(arm.X2, 1).
			Str(arm.X2, arm.X1, 0, 8).
			MovImm(arm.X2, 2).
			Str(arm.X2, arm.X1, 0, 8).
			Hlt()
		code, _, err := a.Assemble(0x1000)
		if err != nil {
			t.Fatal(err)
		}
		m := New(1 << 16)
		copy(m.Mem[0x1000:], code)
		m.EnableWeakMode(NewSeededDrains(seed, 128))
		m.CPUs[0].PC = 0x1000
		if err := m.Run(m.CPUs[0], 1000); err != nil {
			t.Fatal(err)
		}
		if err := m.FlushAllWeak(); err != nil {
			t.Fatal(err)
		}
		v, _ := m.ReadMem(0x8000, 8)
		if v != 2 {
			t.Fatalf("seed %d: same-address stores drained out of order: %d", seed, v)
		}
	}
}

func TestWeakModeAtomicsFlush(t *testing.T) {
	// A CAS after a buffered store to the same location must see it.
	a := arm.NewAssembler()
	a.MovImm(arm.X1, 0x8000).
		MovImm(arm.X2, 5).
		Str(arm.X2, arm.X1, 0, 8).
		MovImm(arm.X3, 5). // expected
		MovImm(arm.X4, 9).
		Casal(arm.X3, arm.X4, arm.X1, 8).
		Hlt()
	code, _, err := a.Assemble(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	m := New(1 << 16)
	copy(m.Mem[0x1000:], code)
	m.EnableWeakMode(NewSeededDrains(3, 1))
	m.CPUs[0].PC = 0x1000
	if err := m.Run(m.CPUs[0], 1000); err != nil {
		t.Fatal(err)
	}
	if m.CPUs[0].Regs[3] != 5 {
		t.Fatalf("casal read %d, want 5 (flushed store)", m.CPUs[0].Regs[3])
	}
	v, _ := m.ReadMem(0x8000, 8)
	if v != 9 {
		t.Fatalf("casal did not commit: %d", v)
	}
}
