package machine

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/isa/arm"
)

// TestDrainOldestOverlapChain is the regression for the weakMaybeDrain
// coherence bug: with three buffered stores A=[0x100,+8), B=[0x104,+8),
// C=[0x108,+8), draining C must retire A. A overlaps B, B overlaps C, but
// A does not overlap C — the historical single-hop redirect stopped at B
// and wrote it to memory before the older overlapping A.
func TestDrainOldestOverlapChain(t *testing.T) {
	m := New(1 << 12)
	m.EnableWeakMode(nil)
	c := m.CPUs[0]
	if err := m.weakStore(c, 0x100, 8, 0x1111111111111111); err != nil {
		t.Fatal(err)
	}
	if err := m.weakStore(c, 0x104, 8, 0x2222222222222222); err != nil {
		t.Fatal(err)
	}
	if err := m.weakStore(c, 0x108, 8, 0x3333333333333333); err != nil {
		t.Fatal(err)
	}
	if err := m.DrainWeak(c, 2); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadMem(0x100, 8); v != 0x1111111111111111 {
		t.Fatalf("drained store value %#x at 0x100, want A (0x1111...)", v)
	}
	if v, _ := m.ReadMem(0x108, 8); v != 0 {
		t.Fatalf("memory past A written (%#x at 0x108): a younger chain member drained", v)
	}
	buf := m.WeakBuffer(0)
	if len(buf) != 2 || buf[0].Addr != 0x104 || buf[1].Addr != 0x108 {
		t.Fatalf("buffer after drain = %+v, want [B, C]", buf)
	}
}

// TestDrainAnyOrderMatchesProgramOrderPerLocation drains a mixed buffer in
// many randomized orders and checks the final memory always equals the
// in-order flush: coherence redirection must make overlapping stores land
// in program order no matter which indices the chooser picks.
func TestDrainAnyOrderMatchesProgramOrderPerLocation(t *testing.T) {
	stores := []PendingStore{
		{Addr: 0x100, Size: 8, Val: 1},
		{Addr: 0x104, Size: 8, Val: 2},
		{Addr: 0x108, Size: 8, Val: 3},
		{Addr: 0x200, Size: 4, Val: 4},
		{Addr: 0x100, Size: 8, Val: 5},
		{Addr: 0x202, Size: 4, Val: 6},
	}
	ref := New(1 << 12)
	for _, p := range stores {
		if err := ref.WriteMem(p.Addr, p.Size, p.Val); err != nil {
			t.Fatal(err)
		}
	}
	for seed := int64(0); seed < 64; seed++ {
		m := New(1 << 12)
		m.EnableWeakMode(nil)
		c := m.CPUs[0]
		for _, p := range stores {
			if err := m.weakStore(c, p.Addr, p.Size, p.Val); err != nil {
				t.Fatal(err)
			}
		}
		rng := splitmix{state: uint64(seed)}
		for len(m.weak.buffers[c.ID]) > 0 {
			if err := m.DrainWeak(c, rng.intn(len(m.weak.buffers[c.ID]))); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(m.Mem, ref.Mem) {
			t.Fatalf("seed %d: out-of-order drain diverged from program-order flush", seed)
		}
	}
}

// TestWeakDrainHeads checks head enumeration: only chain heads are
// distinct drain transitions.
func TestWeakDrainHeads(t *testing.T) {
	m := New(1 << 12)
	m.EnableWeakMode(nil)
	c := m.CPUs[0]
	for _, p := range []PendingStore{
		{Addr: 0x100, Size: 8, Val: 1}, // head (chain with B, C)
		{Addr: 0x104, Size: 8, Val: 2},
		{Addr: 0x108, Size: 8, Val: 3},
		{Addr: 0x200, Size: 8, Val: 4}, // head (independent)
	} {
		if err := m.weakStore(c, p.Addr, p.Size, p.Val); err != nil {
			t.Fatal(err)
		}
	}
	heads := m.WeakDrainHeads(0)
	if fmt.Sprint(heads) != "[0 3]" {
		t.Fatalf("drain heads = %v, want [0 3]", heads)
	}
}

// TestWeakSnapshotRestore: snapshotting under weak mode must capture the
// store buffers and the chooser cursor, so a restored machine replays the
// exact continuation — including the random drain schedule.
func TestWeakSnapshotRestore(t *testing.T) {
	run := func(m *Machine, c *CPU) string {
		// Deterministic continuation: a fixed instruction-free drain walk.
		for i := 0; i < 64; i++ {
			if err := m.weakMaybeDrain(c); err != nil {
				t.Fatal(err)
			}
		}
		return fmt.Sprintf("%x %v", m.Mem[0x100:0x120], m.WeakBuffer(c.ID))
	}

	m := New(1 << 12)
	m.EnableWeakMode(NewRandomChooser(7, 48))
	c := m.CPUs[0]
	for i := 0; i < 6; i++ {
		if err := m.weakStore(c, 0x100+uint64(8*i), 8, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot(c)
	if snap.Weak == nil || len(snap.Weak.Buffers[0]) != 6 || !snap.Weak.HasCursor {
		t.Fatalf("snapshot dropped weak state: %+v", snap.Weak)
	}
	first := run(m, c)
	m.Restore(c, snap)
	if second := run(m, c); second != first {
		t.Fatalf("restored continuation diverged:\n first: %s\nsecond: %s", first, second)
	}
}

// opaqueChooser has no serializable cursor.
type opaqueChooser struct{}

func (opaqueChooser) NextCPU([]int) int             { return -1 }
func (opaqueChooser) Drain(int, []PendingStore) int { return -1 }

// TestSnapshotUnserializableChooserFailsLoudly: weak mode plus a chooser
// without a cursor cannot be represented — SnapshotErr reports it and
// Snapshot panics instead of silently dropping state.
func TestSnapshotUnserializableChooserFailsLoudly(t *testing.T) {
	m := New(1 << 12)
	m.EnableWeakMode(opaqueChooser{})
	if _, err := m.SnapshotErr(m.CPUs[0]); err == nil {
		t.Fatal("SnapshotErr accepted an un-serializable chooser")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot did not panic on un-serializable state")
		}
	}()
	m.Snapshot(m.CPUs[0])
}

// preferChooser always schedules the preferred CPU while it is runnable.
type preferChooser struct{ id int }

func (p preferChooser) NextCPU(runnable []int) int {
	for _, id := range runnable {
		if id == p.id {
			return id
		}
	}
	return -1
}
func (preferChooser) Drain(int, []PendingStore) int { return -1 }

// TestRunAllChooserScheduling: the chooser overrides the round-robin.
// CPU 1 stores a flag and halts; CPU 0 loads it. Preferring CPU 1 makes
// CPU 0 observe the flag; the default round-robin (CPU 0 first) does not.
func TestRunAllChooserScheduling(t *testing.T) {
	build := func() *Machine {
		a := arm.NewAssembler()
		a.Label("t0").MovImm(arm.X9, 0x800).Ldr(arm.X2, arm.X9, 0, 8).Hlt()
		a.Label("t1").MovImm(arm.X9, 0x800).MovImm(arm.X1, 1).Str(arm.X1, arm.X9, 0, 8).Hlt()
		code, syms, err := a.Assemble(0x1000)
		if err != nil {
			t.Fatal(err)
		}
		m := New(1 << 16)
		copy(m.Mem[0x1000:], code)
		m.CPUs[0].PC = syms["t0"]
		m.AddCPU().PC = syms["t1"]
		return m
	}

	m := build()
	m.SetChooser(preferChooser{id: 1})
	if err := m.RunAll(1, 10_000); err != nil {
		t.Fatal(err)
	}
	if m.CPUs[0].Regs[arm.X2] != 1 {
		t.Fatalf("preferred CPU 1 did not run first: CPU0 loaded %d", m.CPUs[0].Regs[arm.X2])
	}

	m = build()
	if err := m.RunAll(1, 10_000); err != nil {
		t.Fatal(err)
	}
	if m.CPUs[0].Regs[arm.X2] != 0 {
		t.Fatalf("default round-robin changed: CPU0 loaded %d, want 0", m.CPUs[0].Regs[arm.X2])
	}
}

// TestAccessLog: ReadMem/WriteMem record global accesses, buffered stores
// and forwarded loads record local ones, and TakeAccesses drains the log.
func TestAccessLog(t *testing.T) {
	m := New(1 << 12)
	m.EnableWeakMode(nil)
	c := m.CPUs[0]
	m.RecordAccesses(true)
	if err := m.weakStore(c, 0x100, 8, 7); err != nil {
		t.Fatal(err)
	}
	if v, err := m.weakLoad(c, 0x100, 8); err != nil || v != 7 {
		t.Fatalf("forwarded load = %d, %v", v, err)
	}
	if err := m.DrainWeak(c, 0); err != nil {
		t.Fatal(err)
	}
	got := m.TakeAccesses()
	want := []MemAccess{
		{Addr: 0x100, Size: 8, Write: true, Local: true},
		{Addr: 0x100, Size: 8, Write: false, Local: true},
		{Addr: 0x100, Size: 8, Write: true, Local: false},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("access log = %v, want %v", got, want)
	}
	if len(m.TakeAccesses()) != 0 {
		t.Fatal("TakeAccesses did not drain the log")
	}
}
