package machine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/isa/arm"
)

// TestDrainOldestOverlapChain is the regression for the seeded policy's
// coherence bug: with three buffered stores A=[0x100,+8), B=[0x104,+8),
// C=[0x108,+8), draining C must retire A. A overlaps B, B overlaps C, but
// A does not overlap C — the historical single-hop redirect stopped at B
// and wrote it to memory before the older overlapping A.
func TestDrainOldestOverlapChain(t *testing.T) {
	m := New(1 << 12)
	m.EnableWeakMode()
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
	if err := m.drain(c, 2); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadMem(0x100, 8); v != 0x1111111111111111 {
		t.Fatalf("drained store value %#x at 0x100, want A (0x1111...)", v)
	}
	if v, _ := m.ReadMem(0x108, 8); v != 0 {
		t.Fatalf("memory past A written (%#x at 0x108): a younger chain member drained", v)
	}
	buf := m.weak.buffers[0]
	if len(buf) != 2 || buf[0].Addr != 0x104 || buf[1].Addr != 0x108 {
		t.Fatalf("buffer after drain = %+v, want [B, C]", buf)
	}
}

// TestDrainAnyOrderMatchesProgramOrderPerLocation drains a mixed buffer in
// many randomized orders and checks the final memory always equals the
// in-order flush: coherence redirection must make overlapping stores land
// in program order no matter which indices the policy picks.
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
		m.EnableWeakMode()
		c := m.CPUs[0]
		for _, p := range stores {
			if err := m.weakStore(c, p.Addr, p.Size, p.Val); err != nil {
				t.Fatal(err)
			}
		}
		rng := splitmix{state: uint64(seed)}
		for len(m.weak.buffers[c.ID]) > 0 {
			if err := m.drain(c, rng.intn(len(m.weak.buffers[c.ID]))); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(m.Mem, ref.Mem) {
			t.Fatalf("seed %d: out-of-order drain diverged from program-order flush", seed)
		}
	}
}

// TestWeakDrainHeads pins Enabled's order contract and the chain-head
// rule: one exec per live CPU in ascending id, then per CPU in ascending id
// one drain per buffered store with no older overlapping store, in buffer
// order, named by Seq. Applying a head drain promotes the next store of
// its chain.
func TestWeakDrainHeads(t *testing.T) {
	m := New(1 << 12)
	m.EnableWeakMode()
	m.AddCPU().Halted = true
	m.AddCPU()
	store := func(cpu int, addr uint64) {
		t.Helper()
		if err := m.weakStore(m.CPUs[cpu], addr, 8, 1); err != nil {
			t.Fatal(err)
		}
	}
	store(2, 0x300) // seq 1
	store(0, 0x100) // seq 2: head (chain with seq 3, 4)
	store(0, 0x104) // seq 3
	store(0, 0x108) // seq 4
	store(0, 0x200) // seq 5: head (independent)
	want := []Transition{
		{Op: OpExec, CPU: 0}, {Op: OpExec, CPU: 2},
		{Op: OpDrain, CPU: 0, Seq: 2}, {Op: OpDrain, CPU: 0, Seq: 5},
		{Op: OpDrain, CPU: 2, Seq: 1},
	}
	if got := m.Enabled(nil); !slices.Equal(got, want) {
		t.Fatalf("Enabled = %v, want %v", got, want)
	}
	// Enabled appends: a caller's prefix survives.
	if got := m.Enabled([]Transition{{CPU: 9}}); len(got) != 6 || got[0].CPU != 9 {
		t.Fatalf("Enabled did not append to its argument: %v", got)
	}
	fp, err := m.Apply(Transition{Op: OpDrain, CPU: 0, Seq: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != 1 || fp[0] != (MemAccess{Addr: 0x100, Size: 8, Write: true}) {
		t.Fatalf("drain footprint = %v, want one global write at 0x100", fp)
	}
	want[2].Seq = 3
	if got := m.Enabled(nil); !slices.Equal(got, want) {
		t.Fatalf("after draining seq 2, Enabled = %v, want %v", got, want)
	}
}

// TestApplyRefusals: a transition Enabled would not list is an error and
// leaves the machine as it was.
func TestApplyRefusals(t *testing.T) {
	m := New(1 << 12)
	m.EnableWeakMode()
	m.AddCPU().Halted = true
	c := m.CPUs[0]
	for _, addr := range []uint64{0x100, 0x104} { // seq 1 heads seq 2's chain
		if err := m.weakStore(c, addr, 8, 7); err != nil {
			t.Fatal(err)
		}
	}
	before := fmt.Sprint(m.Mem[0x100:0x110], m.weak.buffers, *c, *m.CPUs[1])
	for name, tr := range map[string]Transition{
		"stale seq":          {Op: OpDrain, CPU: 0, Seq: 9},
		"seq of another cpu": {Op: OpDrain, CPU: 1, Seq: 1},
		"not a chain head":   {Op: OpDrain, CPU: 0, Seq: 2},
		"halted cpu":         {Op: OpExec, CPU: 1},
		"cpu out of range":   {Op: OpExec, CPU: 2},
		"negative cpu":       {Op: OpDrain, CPU: -1, Seq: 1},
		"unknown kind":       {Op: "?", CPU: 0},
	} {
		if _, err := m.Apply(tr, nil); err == nil {
			t.Errorf("%s: Apply(%v) succeeded", name, tr)
		}
	}
	if after := fmt.Sprint(m.Mem[0x100:0x110], m.weak.buffers, *c, *m.CPUs[1]); after != before {
		t.Fatalf("refused transitions changed the machine:\n before %s\n after  %s", before, after)
	}
	sc := New(1 << 12)
	if _, err := sc.Apply(Transition{Op: OpDrain, CPU: 0, Seq: 1}, nil); err == nil {
		t.Error("drain transition accepted without weak mode")
	}
}

// TestApplyExec: an exec transition runs through register-only
// instructions up to and including the next memory access, stops at a
// halt, and ends after maxInvisible instructions — no hang, no trap — on a
// spin that never touches memory: the CPU stays live for the next exec.
func TestApplyExec(t *testing.T) {
	m, syms := loadProgram(t, 0x1000, func(a *arm.Assembler) {
		a.MovImm(arm.X1, 0x8000).
			MovImm(arm.X0, 5).
			Str(arm.X0, arm.X1, 0, 8).
			AddI(arm.X0, arm.X0, 1).
			Ldr(arm.X2, arm.X1, 8, 8).
			AddI(arm.X0, arm.X0, 1).
			Hlt()
		a.Label("spin").BLabel("spin")
	})
	m.EnableWeakMode()
	c := m.CPUs[0]
	x := Transition{Op: OpExec, CPU: 0}
	// The buffered store is private to its CPU: an empty footprint.
	if fp, err := m.Apply(x, nil); err != nil || len(fp) != 0 || c.Insts != 3 {
		t.Fatalf("first exec: footprint %v, err %v, %d instructions; want none, nil, 3", fp, err, c.Insts)
	}
	fp, err := m.Apply(x, nil)
	if err != nil || len(fp) != 1 || fp[0] != (MemAccess{Addr: 0x8008, Size: 8}) || c.Insts != 5 {
		t.Fatalf("second exec: footprint %v, err %v, %d instructions; want the load at 0x8008, nil, 5", fp, err, c.Insts)
	}
	// The halt flushes the buffered store: a global write.
	fp, err = m.Apply(x, nil)
	if err != nil || !c.Halted || len(fp) != 1 || fp[0] != (MemAccess{Addr: 0x8000, Size: 8, Write: true}) {
		t.Fatalf("third exec: footprint %v, err %v, halted %v; want the flushed store, nil, true", fp, err, c.Halted)
	}
	if ts := m.Enabled(nil); len(ts) != 0 {
		t.Fatalf("halted machine still offers %v", ts)
	}

	c.Halted, c.PC = false, syms["spin"]
	start := c.Insts
	for i := 1; i <= 2; i++ {
		fp, err = m.Apply(x, nil)
		if err != nil || len(fp) != 0 || c.Halted || c.PC != syms["spin"] {
			t.Fatalf("spin exec %d: footprint %v, err %v, halted %v; want none, nil, live at spin", i, fp, err, c.Halted)
		}
		if got := c.Insts - start; got != uint64(i*maxInvisible) {
			t.Fatalf("spin exec %d: %d instructions retired in all, want %d", i, got, i*maxInvisible)
		}
	}
}

// TestWalk: equal seeds take equal paths, Walk reports the halt, the step
// cap and a visit that says stop, and an Apply failure reaches both the
// visitor and the caller.
func TestWalk(t *testing.T) {
	build := func() *Machine {
		m, syms := sbProgram(t, false)
		m.EnableWeakMode()
		m.CPUs[0].PC = syms["sb0"]
		m.AddCPU().PC = syms["sb1"]
		return m
	}
	walk := func(seed uint64) (path []Transition) {
		halted, err := build().Walk(seed, 1000, func(tr Transition, err error) bool {
			path = append(path, tr)
			return true
		})
		if !halted || err != nil {
			t.Fatalf("seed %d: halted=%v err=%v", seed, halted, err)
		}
		return path
	}
	distinct := map[string]bool{}
	for seed := uint64(0); seed < 32; seed++ {
		p := walk(seed)
		if again := walk(seed); !slices.Equal(p, again) {
			t.Fatalf("seed %d walked two different paths", seed)
		}
		distinct[fmt.Sprint(p)] = true
	}
	if len(distinct) < 8 {
		t.Errorf("32 seeds walked only %d distinct paths", len(distinct))
	}

	if halted, err := build().Walk(1, 3, nil); halted || err != nil {
		t.Errorf("step cap 3: halted=%v err=%v, want a quiet stop", halted, err)
	}
	n := 0
	if halted, err := build().Walk(1, 1000, func(Transition, error) bool { n++; return n < 2 }); halted || err != nil || n != 2 {
		t.Errorf("visit stopping at 2: halted=%v err=%v after %d visits", halted, err, n)
	}
	m := build()
	m.CPUs[1].PC = 1 << 40 // fetch faults
	var seen error
	_, err := m.Walk(0, 1000, func(tr Transition, err error) bool {
		if tr.CPU == 1 && tr.Op == OpExec {
			seen = err
		}
		return true
	})
	if err == nil || seen != err {
		t.Errorf("Apply failure: Walk returned %v, visit saw %v", err, seen)
	}
}

// TestWalkAll: a whole-guest walk runs a register-only loop longer than
// one exec transition to its halt, and stops a spin where RunAll stops it,
// with RunAll's trap: the per-CPU budget and the machine budget at the
// same instruction, the deadline by the same watchdog.
func TestWalkAll(t *testing.T) {
	m, syms := loadProgram(t, 0x1000, func(a *arm.Assembler) {
		a.MovImm(arm.X0, 0).
			MovImm(arm.X2, 3*maxInvisible).
			Label("loop").
			AddI(arm.X0, arm.X0, 1).
			Cmp(arm.X0, arm.X2).
			BCondLabel(arm.NE, "loop").
			Hlt()
		a.Label("spin").BLabel("spin")
	})
	img := append([]byte(nil), m.Mem[0x1000:0x1100]...)
	fresh := func(pc uint64) *Machine {
		m := New(1 << 20)
		copy(m.Mem[0x1000:], img)
		m.EnableWeakMode()
		m.CPUs[0].PC = pc
		return m
	}
	for seed := uint64(0); seed < 4; seed++ {
		m := fresh(0x1000)
		if err := m.WalkAll(seed, 1<<40); err != nil || !m.CPUs[0].Halted || m.CPUs[0].Regs[0] != 3*maxInvisible {
			t.Fatalf("seed %d: err %v, halted %v, x0 = %d; want nil, true, %d", seed, err, m.CPUs[0].Halted, m.CPUs[0].Regs[0], 3*maxInvisible)
		}
	}

	for _, tc := range []struct {
		name     string
		set      func(*Machine)
		maxSteps uint64
		msg      string
		steps    uint64 // 0: wall-clock dependent
	}{
		{"per-CPU", func(m *Machine) { m.StepBudget = 25_000 }, 1 << 40, "per-CPU step budget 25000 exhausted", 25_000},
		{"machine", func(*Machine) {}, 25_000, "machine step budget 25000 exhausted", 25_001},
		{"deadline", func(m *Machine) { m.Deadline = time.Millisecond }, 1 << 40, "wall-clock deadline 1ms exceeded", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			strong, weak := fresh(syms["spin"]), fresh(syms["spin"])
			strong.weak = nil
			tc.set(strong)
			tc.set(weak)
			for _, r := range []struct {
				name string
				err  error
			}{
				{"RunAll", strong.RunAll(64, tc.maxSteps)},
				{"WalkAll", weak.WalkAll(7, tc.maxSteps)},
			} {
				trap, ok := faults.As(r.err)
				if !ok || trap.Kind != faults.TrapBudget || trap.CPU != 0 || trap.Msg != tc.msg {
					t.Fatalf("%s: err = %v, want a TrapBudget on cpu0: %s", r.name, r.err, tc.msg)
				}
				if tc.steps != 0 && trap.Steps != tc.steps {
					t.Errorf("%s: trap at step %d, want %d", r.name, trap.Steps, tc.steps)
				}
			}
		})
	}
}

// TestShadowMachineSeesOwnStores: the shadow machine built from a
// weak-mode snapshot sees the snapshot CPU's own buffered stores applied in
// order — and no other CPU's — while the live machine's memory stays as
// it was.
func TestShadowMachineSeesOwnStores(t *testing.T) {
	m := New(1 << 12)
	m.EnableWeakMode()
	c0, c1 := m.CPUs[0], m.AddCPU()
	for _, st := range []struct {
		c    *CPU
		addr uint64
		v    uint64
	}{{c0, 0x100, 1}, {c0, 0x108, 2}, {c0, 0x100, 3}, {c1, 0x110, 4}} {
		if err := m.weakStore(st.c, st.addr, 8, st.v); err != nil {
			t.Fatal(err)
		}
	}
	sm := m.Snapshot(c0).ShadowMachine()
	for addr, want := range map[uint64]uint64{0x100: 3, 0x108: 2, 0x110: 0} {
		if got := binary.LittleEndian.Uint64(sm.Mem[addr:]); got != want {
			t.Errorf("shadow memory at %#x = %d, want %d", addr, got, want)
		}
	}
	if v := binary.LittleEndian.Uint64(m.Mem[0x100:]); v != 0 {
		t.Errorf("building the shadow wrote %d into the live machine's memory", v)
	}
}

// TestAccessLog: while the log is on (as Apply turns it), ReadMem/WriteMem
// record global accesses and buffered stores and forwarded loads record
// local ones.
func TestAccessLog(t *testing.T) {
	m := New(1 << 12)
	m.EnableWeakMode()
	c := m.CPUs[0]
	m.accLogOn = true
	if err := m.weakStore(c, 0x100, 8, 7); err != nil {
		t.Fatal(err)
	}
	if v, err := m.weakLoad(c, 0x100, 8); err != nil || v != 7 {
		t.Fatalf("forwarded load = %d, %v", v, err)
	}
	if err := m.drain(c, 0); err != nil {
		t.Fatal(err)
	}
	got := m.accLog
	want := []MemAccess{
		{Addr: 0x100, Size: 8, Write: true, Local: true},
		{Addr: 0x100, Size: 8, Write: false, Local: true},
		{Addr: 0x100, Size: 8, Write: true, Local: false},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("access log = %v, want %v", got, want)
	}
}
