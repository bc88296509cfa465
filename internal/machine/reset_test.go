package machine

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/isa/arm"
)

// resetBase is where both of TestResetEqualsNew's programs are loaded, so
// the second overwrites code the first left in the decode table.
const resetBase = 0x1000

// assembleThreads assembles one code sequence per thread at resetBase and
// returns the code and each thread's entry.
func assembleThreads(t *testing.T, threads ...func(a *arm.Assembler)) ([]byte, []uint64) {
	t.Helper()
	a := arm.NewAssembler()
	labels := []string{"t0", "t1", "t2", "t3"}[:len(threads)]
	for i, emit := range threads {
		a.Label(labels[i])
		emit(a)
	}
	code, syms, err := a.Assemble(resetBase)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]uint64, len(labels))
	for i, l := range labels {
		entries[i] = syms[l]
	}
	return code, entries
}

// cas emits a CAS of [addr] from 0 to v.
func cas(a *arm.Assembler, addr, v uint64) {
	a.MovImm(arm.X2, addr).MovImm(arm.X5, 0).MovImm(arm.X6, v).
		Raw(arm.Inst{Op: arm.CAS, Rd: arm.X5, Rm: arm.X6, Rn: arm.X2, Size: 8})
}

// store emits a plain store of v to [addr].
func store(a *arm.Assembler, addr, v uint64) {
	a.MovImm(arm.X2, addr).MovImm(arm.X1, v).Str(arm.X1, arm.X2, 0, 8)
}

// dirtyProgram leaves, when each thread is run up to its HLT but not
// through it, both CPUs with buffered stores, CPU0's exclusive monitor
// armed, a line owner for the CAS line, and a DMB and two atomics counted.
// CPU1's store is to a page nothing else writes, so draining it is the only
// thing that marks that page.
func dirtyProgram(t *testing.T) ([]byte, []uint64) {
	return assembleThreads(t,
		func(a *arm.Assembler) {
			a.Dmb(arm.BarrierFull)
			cas(a, 0x8200, 1)
			a.MovImm(arm.X3, 0x8100).Raw(arm.Inst{Op: arm.LDXR, Rd: arm.X7, Rn: arm.X3, Size: 8})
			store(a, 0x8000, 0xAA)
			store(a, 0x8010, 0xBB)
			a.Hlt()
		},
		func(a *arm.Assembler) {
			cas(a, 0x8200, 2)
			store(a, 0x7008, 0xCC)
			a.Hlt()
		})
}

// cleanProgram is an SB shape whose threads also contend on one CAS line
// and run an exclusive pair, so stale line owners, monitors or store
// buffers change its registers, cycles or memory. Each thread opens with a
// short loop, so some fetches are served from the decode table.
func cleanProgram(t *testing.T) ([]byte, []uint64) {
	thread := func(mine, other, result uint64) func(a *arm.Assembler) {
		return func(a *arm.Assembler) {
			loop := fmt.Sprintf("loop%x", mine)
			a.MovImm(arm.X10, 3).Label(loop).SubI(arm.X10, arm.X10, 1).CbnzLabel(arm.X10, loop)
			store(a, mine, 1)
			a.MovImm(arm.X3, other).Ldr(arm.X4, arm.X3, 0, 8)
			cas(a, 0x8200, mine)
			a.MovImm(arm.X3, 0x8100).
				Raw(arm.Inst{Op: arm.LDXR, Rd: arm.X7, Rn: arm.X3, Size: 8}).
				AddI(arm.X7, arm.X7, 1).
				Raw(arm.Inst{Op: arm.STXR, Rd: arm.X8, Rm: arm.X7, Rn: arm.X3, Size: 8})
			a.MovImm(arm.X3, result).Str(arm.X4, arm.X3, 0, 8)
			a.Hlt()
		}
	}
	return assembleThreads(t, thread(0x8000, 0x8008, 0x9000), thread(0x8008, 0x8000, 0x9008))
}

// loadThreads loads code and parks one CPU per entry on it, in weak mode
// with no drain policy — the way opcheck starts a compiled litmus program.
func loadThreads(t *testing.T, m *Machine, code []byte, entries []uint64) {
	t.Helper()
	if err := m.Write(resetBase, code); err != nil {
		t.Fatal(err)
	}
	m.EnableWeakMode()
	for i, e := range entries {
		c := m.CPUs[0]
		if i > 0 {
			c = m.AddCPU()
		}
		c.PC = e
	}
}

// TestResetEqualsNew: a machine dirtied in every field Reset touches and
// then reset is the machine New builds — field by field, and in every
// transition, register, cycle and byte of a weak-mode run of another
// program loaded over the first one's cached code. Memory is dirtied by
// each writer that marks pages: Write (the code, a range over three pages,
// the partial last page of a size that is not a multiple of the page size),
// WriteMem (a CAS, a store straddling two pages) and a weak drain.
func TestResetEqualsNew(t *testing.T) {
	const mem = 1<<16 + 0x900
	m := New(mem)
	code, entries := dirtyProgram(t)
	loadThreads(t, m, code, entries)
	for _, tr := range []Transition{
		{Op: OpExec, CPU: 0}, {Op: OpExec, CPU: 0}, {Op: OpExec, CPU: 0}, {Op: OpExec, CPU: 0},
		{Op: OpExec, CPU: 1}, {Op: OpExec, CPU: 1},
	} {
		if _, err := m.Apply(tr); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Apply(Transition{Op: OpDrain, CPU: 1, Seq: m.weak.buffers[1][0].Seq}); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0xAFF0, bytes.Repeat([]byte{0xEE}, 0x1020)); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteMem(0xDFFC, 8, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(mem-3, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Code, drain, CAS, the range, the straddling store, the last page.
	if got, want := WrittenPages(m), []uint64{0x1, 0x7, 0x8, 0xA, 0xB, 0xC, 0xD, 0xE, 0x10}; !slices.Equal(got, want) {
		t.Errorf("written pages %#x, want %#x", got, want)
	}
	m.Output = append(m.Output, "dirty"...)
	if err := m.Wait(m.CPUs[0], m.CPUs[1]); err != nil {
		t.Fatal(err)
	}
	dirty := len(m.CPUs) >= 2 && m.CPUs[0].Waiting() && len(m.weak.buffers[0]) == 2 && len(m.weak.buffers[1]) == 0 &&
		m.weak.nextSeq > 0 && m.armed == 1 && len(m.lineOwner) > 0 && m.DMBExec[arm.BarrierFull] > 0 &&
		m.AtomicExec == 2 && len(m.accLog) > 0 && len(m.decode.pages) > 0 && m.decode.pages[0].valid != 0
	if !dirty {
		t.Fatalf("dirtying left cpus=%d buffers=%v seq=%d armed=%d owners=%d dmb=%v atomics=%d acclog=%d",
			len(m.CPUs), m.weak.buffers, m.weak.nextSeq, m.armed, len(m.lineOwner), m.DMBExec, m.AtomicExec, len(m.accLog))
	}

	if n := testing.AllocsPerRun(10, m.Reset); n != 0 {
		t.Errorf("Reset allocated %v times per call, want 0", n)
	}
	fresh := New(mem)
	switch {
	case !bytes.Equal(m.Mem, fresh.Mem):
		t.Errorf("Reset left %d bytes non-zero", len(m.Mem)-bytes.Count(m.Mem, []byte{0}))
	case !slices.Equal(m.written, fresh.written):
		t.Errorf("Reset left pages %#x in the written-page set", WrittenPages(m))
	case len(m.CPUs) != 1 || *m.CPUs[0] != *fresh.CPUs[0]:
		t.Errorf("Reset left %d CPUs, the first %+v", len(m.CPUs), *m.CPUs[0])
	case len(m.Output) != 0 || m.DMBExec != fresh.DMBExec || m.AtomicExec != 0:
		t.Errorf("Reset left output %q, DMBs %v, atomics %d", m.Output, m.DMBExec, m.AtomicExec)
	case len(m.lineOwner) != 0 || m.armed != 0:
		t.Errorf("Reset left %d line owners, armed %d", len(m.lineOwner), m.armed)
	case m.weak != nil || len(m.accLog) != 0:
		t.Errorf("Reset left weak mode %v, %d logged accesses", m.weak != nil, len(m.accLog))
	}
	for i, p := range m.decode.pages {
		if p.valid != 0 {
			t.Errorf("Reset left decode page %d valid (%#x)", i, p.valid)
		}
	}

	// Run both the same way: at each state the Enabled lists must agree;
	// take the same seeded choice on both.
	checked := CheckFetches(t, m)
	code, entries = cleanProgram(t)
	loadThreads(t, m, code, entries)
	loadThreads(t, fresh, code, entries)
	rng := splitmix{state: 7}
	var ta, tb []Transition
	for step := 0; ; step++ {
		ta, tb = m.Enabled(ta[:0]), fresh.Enabled(tb[:0])
		if !slices.Equal(ta, tb) {
			t.Fatalf("step %d: reset machine enables %v, a new one %v", step, ta, tb)
		}
		if len(ta) == 0 {
			break
		}
		tr := ta[rng.intn(len(ta))]
		fa, erra := m.Apply(tr)
		fb, errb := fresh.Apply(tr)
		if erra != nil || errb != nil || !slices.Equal(fa, fb) {
			t.Fatalf("step %d %v: footprints %v / %v, errors %v / %v", step, tr, fa, fb, erra, errb)
		}
	}
	for i, c := range m.CPUs {
		f := fresh.CPUs[i]
		if c.Regs != f.Regs || c.Cycles != f.Cycles || c.Insts != f.Insts || c.PC != f.PC {
			t.Errorf("cpu%d: reset machine X=%v cycles=%d insts=%d, new one X=%v cycles=%d insts=%d",
				i, c.Regs[:9], c.Cycles, c.Insts, f.Regs[:9], f.Cycles, f.Insts)
		}
	}
	if !bytes.Equal(m.Mem, fresh.Mem) {
		t.Error("memory after the run differs")
	}
	if *checked == 0 {
		t.Error("no fetch was served from the reset machine's decode table")
	}
}

// TestWrittenPageSet: on a 32 MiB machine, k pages written through Write
// and WriteMem are exactly the k pages in the set; Reset zeroes them
// without allocating and empties the set.
func TestWrittenPageSet(t *testing.T) {
	const mem, k = 32 << 20, 37
	m := New(mem)
	rng := splitmix{state: 3}
	var pages []uint64
	for len(pages) < k {
		if p := uint64(rng.intn(mem / pageBytes)); !slices.Contains(pages, p) {
			pages = append(pages, p)
		}
	}
	slices.Sort(pages)
	dirty := func() {
		for i, p := range pages {
			addr := p<<pageShift + uint64(i%8)*64
			var err error
			if i%2 == 0 {
				err = m.Write(addr, []byte{0xA5, 0x5A})
			} else {
				err = m.WriteMem(addr, 8, uint64(i)+1)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	dirty()
	if err := m.Write(mem, nil); err != nil {
		t.Fatalf("empty write at the end of memory: %v", err)
	}
	if got := WrittenPages(m); !slices.Equal(got, pages) {
		t.Fatalf("written pages %#x, want %#x", got, pages)
	}
	if n := m.pagesWritten(); n != k {
		t.Errorf("pagesWritten = %d, want %d", n, k)
	}
	if n := testing.AllocsPerRun(10, func() { dirty(); m.Reset() }); n != 0 {
		t.Errorf("Reset allocated %v times per call, want 0", n)
	}
	if got := WrittenPages(m); len(got) != 0 {
		t.Errorf("Reset left pages %#x in the set", got)
	}
	if !bytes.Equal(m.Mem, make([]byte, mem)) {
		t.Error("Reset left memory non-zero")
	}
}
