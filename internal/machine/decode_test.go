package machine

import (
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/isa/arm"
)

// straightLine assembles n-1 increments of X1 and an HLT.
func straightLine(t *testing.T, n int) []byte {
	t.Helper()
	a := arm.NewAssembler()
	for i := 0; i < n-1; i++ {
		a.AddI(arm.X1, arm.X1, 1)
	}
	a.Hlt()
	code, _, err := a.Assemble(0)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// TestDecodeTableFootprint pins what a machine allocates to run a little
// code against what the map[uint64]arm.Inst decode cache it replaced
// allocated for the same runs (measured at 56226c7, go1.24 linux/amd64):
// the table's cost follows the code fetched, not the memory size. A
// pointer per page over all of Mem costs the 32 MiB machine 1 MB and
// fails the second case; 256-slot pages fail the first.
func TestDecodeTableFootprint(t *testing.T) {
	cases := []struct {
		name         string
		mem          int
		base         uint64
		insts        int
		parentsBytes uint64
	}{
		// explore's shape: the 64 KiB machine one Run builds (and resets).
		{"64KiB machine, 128 steps", 1 << 16, 0x1000, 128, 85_168},
		// core's shape: 32 MiB, code cache at three quarters, one block.
		{"32MiB machine, one 40-instruction block", 32 << 20, 24 << 20, 40, 33_559_712},
	}
	for _, tc := range cases {
		code := straightLine(t, tc.insts)
		// TotalAlloc is process-wide, so a runtime goroutine allocating
		// during the window inflates one reading (seen in ~1 of 25 package
		// runs); the smallest of three is the machine's own cost.
		best := ^uint64(0)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			m := New(tc.mem)
			copy(m.Mem[tc.base:], code)
			m.CPUs[0].PC = tc.base
			err := m.Run(m.CPUs[0], uint64(tc.insts)+1)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		if best > tc.parentsBytes {
			t.Errorf("%s: allocated %d bytes, the map-based cache allocated %d", tc.name, best, tc.parentsBytes)
		}
	}
}

// TestDecodeTableWindow: the page window follows fetches downward and
// upward, lookups outside it miss, and invalidation clears exactly the
// slots a patched word overlaps.
func TestDecodeTableWindow(t *testing.T) {
	var tab decodeTable
	at := func(pc uint64) arm.Inst { return arm.Inst{Op: arm.ADDI, Imm: int64(pc)} }
	pcs := []uint64{0x5000, 0x5004, 0x50FC, 0x5100, 0x2000, 0x9F00, 0}
	for i, pc := range pcs {
		if tab.lookup(pc) != nil {
			t.Fatalf("lookup(%#x) hit before insert", pc)
		}
		tab.insert(pc, at(pc))
		for _, seen := range pcs[:i+1] {
			if got := tab.lookup(seen); got == nil || *got != at(seen) {
				t.Fatalf("after insert(%#x): lookup(%#x) = %v", pc, seen, got)
			}
		}
	}
	if want := 0x9F00/decodePageBytes + 1; len(tab.pages) != want || tab.base != 0 {
		t.Errorf("window = %d pages from %d, want %d from 0", len(tab.pages), tab.base, want)
	}
	for _, pc := range []uint64{0x5008, 0xA000, 1 << 40, ^uint64(0) &^ 3} {
		if tab.lookup(pc) != nil {
			t.Errorf("lookup(%#x) hit a slot never inserted", pc)
		}
	}

	tab.invalidate(0x5004, 4)
	if tab.lookup(0x5004) != nil || tab.lookup(0x5000) == nil || tab.lookup(0x50FC) == nil {
		t.Error("invalidate(0x5004, 4) must clear that slot and no neighbour")
	}
	// A word written at a non-aligned address overlaps two slots, here
	// the last of one page and the first of the next.
	tab.invalidate(0x50FE, 4)
	if tab.lookup(0x50FC) != nil || tab.lookup(0x5100) != nil {
		t.Error("invalidate(0x50FE, 4) must clear both slots the word overlaps")
	}
	// A range wider than the window clears every slot in the window and
	// touches nothing outside it.
	tab.insert(0x5000, at(0x5000))
	tab.invalidate(0x4000, 1<<40)
	if tab.lookup(0x5000) != nil || tab.lookup(0x2000) == nil {
		t.Error("invalidate(0x4000, 1<<40) must clear 0x5000 and keep 0x2000")
	}
	tab.invalidate(1<<40, 4) // outside the window: nothing to forget
	tab.invalidateAll()
	for _, pc := range pcs {
		if tab.lookup(pc) != nil {
			t.Errorf("lookup(%#x) hit after invalidateAll", pc)
		}
	}
}

// TestUnalignedPCDecodesUncached: a PC that is not a multiple of four
// still executes the word at that address, bypassing the table.
func TestUnalignedPCDecodesUncached(t *testing.T) {
	m := New(1 << 16)
	copy(m.Mem[0x1002:], straightLine(t, 3))
	c := m.CPUs[0]
	c.PC = 0x1002
	if err := m.Run(c, 10); err != nil {
		t.Fatal(err)
	}
	if c.Regs[1] != 2 || !c.Halted {
		t.Errorf("X1 = %d halted = %v, want 2 true", c.Regs[1], c.Halted)
	}
	if len(m.decode.pages) != 0 {
		t.Errorf("unaligned fetches cached %d pages", len(m.decode.pages))
	}
	c.PC, c.Halted = uint64(len(m.Mem))-2, false
	if err := m.step(c); !faults.IsKind(err, faults.TrapUnmapped) {
		t.Errorf("fetch straddling the end of memory: err = %v, want a TrapUnmapped", err)
	}
}

// TestStoreClearsArmedMonitors: the armed-monitor count that lets stores
// skip the monitor scan tracks LDXR, STXR and intervening stores.
func TestStoreClearsArmedMonitors(t *testing.T) {
	m, c0 := freshCPU(t)
	c1 := m.AddCPU()
	ldxr := arm.Inst{Op: arm.LDXR, Rd: arm.X2, Rn: arm.X1, Size: 8}
	stxr := arm.Inst{Op: arm.STXR, Rd: arm.X3, Rn: arm.X1, Rm: arm.X2, Size: 8}
	c0.Regs[1], c1.Regs[1] = 0x800, 0x800

	execOne(t, c0, m, ldxr)
	execOne(t, c1, m, ldxr)
	execOne(t, c0, m, ldxr) // re-arming must not double-count
	if m.armed != 2 {
		t.Fatalf("armed = %d after two CPUs took a monitor, want 2", m.armed)
	}
	if err := m.WriteMem(0x804, 4, 1); err != nil {
		t.Fatal(err)
	}
	if m.armed != 0 || c0.monValid || c1.monValid {
		t.Fatalf("overlapping store left armed = %d, monitors %v %v", m.armed, c0.monValid, c1.monValid)
	}
	execOne(t, c0, m, stxr)
	if c0.Regs[3] != 1 {
		t.Error("STXR succeeded after an intervening store")
	}
}

// TestDecodeTableRuns: a run reaches up to and including the next run end,
// stops short of a slot that is not valid, and ends at the page end; a
// rewritten or invalidated slot changes the runs through it at once.
func TestDecodeTableRuns(t *testing.T) {
	const base = 0x4000
	var tab decodeTable
	slot := func(s int) uint64 { return base + uint64(s)*arm.InstBytes }
	set := func(s int, op arm.Op) { tab.insert(slot(s), arm.Inst{Op: op}) }
	for s, op := range []arm.Op{arm.ADDI, arm.B, arm.ADDI, arm.ADDI, arm.ADDI, arm.ADDI, arm.HLT} {
		set(s, op)
	}
	set(62, arm.ADDI)
	set(63, arm.ADDI)
	check := func(when string, want map[int]int) {
		t.Helper()
		for s, n := range want {
			if _, _, got := tab.runAt(slot(s)); got != n {
				t.Errorf("%s: run at slot %d has %d slots, want %d", when, s, got, n)
			}
		}
	}
	check("inserted", map[int]int{0: 2, 1: 1, 2: 5, 6: 1, 7: 0, 62: 2, 63: 1})
	tab.invalidate(slot(4), arm.InstBytes)
	check("slot 4 invalidated", map[int]int{2: 2, 4: 0, 5: 2})
	set(4, arm.B)
	check("slot 4 rewritten to a B", map[int]int{2: 3, 4: 1, 5: 2})
	set(1, arm.ADDI)
	check("slot 1's B rewritten", map[int]int{0: 5, 1: 4})
	for _, pc := range []uint64{slot(2) + 2, base - decodePageBytes, base + decodePageBytes} {
		if _, _, n := tab.runAt(pc); n != 0 {
			t.Errorf("runAt(%#x) = %d slots, want none", pc, n)
		}
	}
}
