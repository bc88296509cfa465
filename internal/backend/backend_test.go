package backend

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa/arm"
	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/mapping"
	"repro/internal/memmodel"
	"repro/internal/tcg"
)

// execute generates code for blk, loads it at 0x100000 in a fresh machine,
// seeds the global host registers, runs to the TB-exit trap, and returns
// the machine and next guest PC.
func execute(t *testing.T, blk *tcg.Block, globals []uint64, seedMem func([]byte)) (*machine.Machine, uint64, Stats) {
	t.Helper()
	code, st, err := Generate(blk, 0x100000, Config{CAS: CASCasal})
	if err != nil {
		t.Fatalf("generate: %v\n%s", err, blk)
	}
	m := machine.New(1 << 21)
	if seedMem != nil {
		seedMem(m.Mem)
	}
	copy(m.Mem[0x100000:], code)

	var nextPC uint64
	done := false
	m.Syscall = func(mm *machine.Machine, c *machine.CPU, imm uint16) error {
		switch imm {
		case SvcTBExit:
			nextPC = c.Regs[18]
			c.Halted = true
		case SvcHalt:
			c.Halted = true
		}
		done = true
		return nil
	}
	c := m.CPUs[0]
	c.PC = 0x100000
	for i := 0; i < tcg.NumGlobals && i < len(globals); i++ {
		c.Regs[i] = globals[i]
	}
	if err := m.Run(c, 1_000_000); err != nil {
		t.Fatalf("run: %v\n%s", err, blk)
	}
	if !done {
		t.Fatalf("block never exited\n%s", blk)
	}
	return m, nextPC, st
}

func TestSimpleBlockExecution(t *testing.T) {
	blk := tcg.NewBlock()
	a, b, c := blk.Temp(), blk.Temp(), blk.Temp()
	blk.MovI(a, 6)
	blk.MovI(b, 7)
	blk.Alu(tcg.OpMul, c, a, b)
	blk.Mov(0, c) // global 0
	blk.Exit(0xCAFE)

	m, next, _ := execute(t, blk, nil, nil)
	if m.CPUs[0].Regs[0] != 42 {
		t.Fatalf("global0 = %d", m.CPUs[0].Regs[0])
	}
	if next != 0xCAFE {
		t.Fatalf("next pc = %#x", next)
	}
}

func TestMemoryOps(t *testing.T) {
	blk := tcg.NewBlock()
	addr, v, out := blk.Temp(), blk.Temp(), blk.Temp()
	blk.MovI(addr, 0x8000)
	blk.MovI(v, 0xDEAD)
	blk.St(addr, 8, v, 8)
	blk.Ld(out, addr, 8, 8)
	blk.Mov(1, out)
	blk.Ld(out, addr, 8, 1) // byte load: 0xAD
	blk.Mov(2, out)
	blk.Exit(0)

	m, _, _ := execute(t, blk, nil, nil)
	if m.CPUs[0].Regs[1] != 0xDEAD || m.CPUs[0].Regs[2] != 0xAD {
		t.Fatalf("loads: %#x %#x", m.CPUs[0].Regs[1], m.CPUs[0].Regs[2])
	}
}

func TestLargeOffsetGoesThroughScratch(t *testing.T) {
	blk := tcg.NewBlock()
	addr, v, out := blk.Temp(), blk.Temp(), blk.Temp()
	blk.MovI(addr, 0x8000)
	blk.MovI(v, 77)
	blk.St(addr, 0x10000, v, 8) // offset > imm12
	blk.Ld(out, addr, 0x10000, 8)
	blk.Mov(0, out)
	blk.Exit(0)
	m, _, _ := execute(t, blk, nil, nil)
	if m.CPUs[0].Regs[0] != 77 {
		t.Fatalf("large-offset store/load: %d", m.CPUs[0].Regs[0])
	}
}

// TestFenceLowering: for both CAS lowerings, the host code generated for
// every IR fence kind followed by an IR CAS carries exactly the barriers
// and the RMW the verified IR→Arm table yields (mapping.Scheme.Apply, the
// function Theorem 1 is checked on) for the same litmus ops — and both are
// Figure 7b written out: Frr/Frw/Frm → DMBLD, Fww → DMBST, Fwr/Fwm/Fmr/
// Fmw/Fmm/Fsc → DMBFF, Facq/Frel → nothing, then casal or
// DMBFF;ldxr/stxr;DMBFF.
func TestFenceLowering(t *testing.T) {
	const fences = "DMBLD DMBLD DMBLD DMBST DMBFF DMBFF DMBFF DMBFF DMBFF DMBFF "
	figure7b := map[CASLowering]string{
		CASCasal:           fences + "casal",
		CASExclusiveFenced: fences + "DMBFF ldxr/stxr DMBFF",
	}
	rmwNames := map[memmodel.RMWClass]string{memmodel.RMWAmo: "casal", memmodel.RMWLxSx: "ldxr/stxr"}
	dmbNames := map[arm.Barrier]string{
		arm.BarrierFull: "DMBFF", arm.BarrierLoad: "DMBLD", arm.BarrierStore: "DMBST"}
	for cas, tab := range map[CASLowering]*mapping.Scheme{
		CASCasal: mapping.ArmVerified, CASExclusiveFenced: mapping.ArmVerifiedLxSx,
	} {
		blk := tcg.NewBlock()
		var ops []litmus.Op
		for f := memmodel.FenceFrr; f <= memmodel.FenceFsc; f++ {
			blk.Mb(f)
			ops = append(ops, litmus.Fence{K: f})
		}
		addr, exp, nv, old := blk.Temp(), blk.Temp(), blk.Temp(), blk.Temp()
		blk.Emit(tcg.Inst{Op: tcg.OpCAS, Dst: old, A: addr, B: exp, C: nv, Size: 8})
		ops = append(ops, litmus.CAS{Loc: "X", New: 1})
		blk.Exit(0)

		var want []string
		wantStats := map[memmodel.Fence]int{}
		lowered := tab.Apply(&litmus.Program{Threads: [][]litmus.Op{ops}})
		for _, op := range lowered.Threads[0] {
			switch o := op.(type) {
			case litmus.Fence:
				want = append(want, o.K.String())
				wantStats[o.K]++
			case litmus.CAS:
				want = append(want, rmwNames[o.Class])
			}
		}

		code, st, err := Generate(blk, 0x100000, Config{CAS: cas})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for off := 0; off < len(code); off += arm.InstBytes {
			in, err := arm.DecodeAt(code, off)
			if err != nil {
				t.Fatal(err)
			}
			switch in.Op {
			case arm.DMB:
				got = append(got, dmbNames[in.Barrier])
			case arm.CASAL:
				got = append(got, rmwNames[memmodel.RMWAmo])
			case arm.LDXR:
				got = append(got, rmwNames[memmodel.RMWLxSx])
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("cas=%v: host code has %v, the table yields %v", cas, got, want)
		}
		if fig := strings.Fields(figure7b[cas]); !slices.Equal(got, fig) {
			t.Errorf("cas=%v: host code has %v, Figure 7b says %v", cas, got, fig)
		}
		if full := map[CASLowering]int{CASCasal: 6, CASExclusiveFenced: 8}[cas]; st.DMBLoad != 3 ||
			st.DMBStore != 1 || st.DMBFull != full {
			t.Errorf("cas=%v: stats %+v, Figure 7b says 3 DMBLD, 1 DMBST, %d DMBFF", cas, st, full)
		}
		if st.DMBFull != wantStats[memmodel.FenceDMBFF] || st.DMBLoad != wantStats[memmodel.FenceDMBLD] ||
			st.DMBStore != wantStats[memmodel.FenceDMBST] {
			t.Errorf("cas=%v: stats %+v, the table yields %v", cas, st, wantStats)
		}
	}
}

func TestCASLowerings(t *testing.T) {
	for _, cfg := range []Config{{CAS: CASCasal}, {CAS: CASExclusiveFenced}} {
		blk := tcg.NewBlock()
		addr, exp, nv, old := blk.Temp(), blk.Temp(), blk.Temp(), blk.Temp()
		blk.MovI(addr, 0x8000)
		blk.MovI(exp, 0)
		blk.MovI(nv, 9)
		blk.Emit(tcg.Inst{Op: tcg.OpCAS, Dst: old, A: addr, B: exp, C: nv, Size: 8})
		blk.Mov(0, old)
		// Failed CAS second time.
		blk.Emit(tcg.Inst{Op: tcg.OpCAS, Dst: old, A: addr, B: exp, C: nv, Size: 8})
		blk.Mov(1, old)
		blk.Exit(0)

		code, st, err := Generate(blk, 0x100000, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := machine.New(1 << 21)
		copy(m.Mem[0x100000:], code)
		m.Syscall = func(mm *machine.Machine, c *machine.CPU, imm uint16) error {
			c.Halted = true
			return nil
		}
		c := m.CPUs[0]
		c.PC = 0x100000
		if err := m.Run(c, 10000); err != nil {
			t.Fatal(err)
		}
		if c.Regs[0] != 0 {
			t.Fatalf("cfg %v: first CAS old = %d, want 0", cfg, c.Regs[0])
		}
		if c.Regs[1] != 9 {
			t.Fatalf("cfg %v: second CAS old = %d, want 9", cfg, c.Regs[1])
		}
		got, _ := m.ReadMem(0x8000, 8)
		if got != 9 {
			t.Fatalf("cfg %v: memory = %d", cfg, got)
		}
		if cfg.CAS == CASCasal && st.Casal != 2 {
			t.Fatalf("casal stats: %+v", st)
		}
		if cfg.CAS == CASExclusiveFenced && (st.ExclLoop != 2 || st.DMBFull != 4) {
			t.Fatalf("exclusive stats: %+v", st)
		}
	}
}

func TestUnknownCASLoweringIsAnError(t *testing.T) {
	blk := tcg.NewBlock()
	blk.Exit(0)
	for _, cas := range []CASLowering{-1, 2} {
		if _, _, err := Generate(blk, 0, Config{CAS: cas}); err == nil {
			t.Errorf("CASLowering(%d) has no table; Generate must say so", cas)
		}
	}
}

func TestBrcondAndLabels(t *testing.T) {
	blk := tcg.NewBlock()
	l := blk.NewLabel()
	a, b := blk.Temp(), blk.Temp()
	blk.MovI(a, 5)
	blk.MovI(b, 5)
	blk.Brcond(tcg.CondEQ, a, b, l)
	blk.MovI(0, 111) // skipped
	blk.Exit(1)
	blk.SetLabel(l)
	blk.MovI(0, 222)
	blk.Exit(2)

	m, next, _ := execute(t, blk, nil, nil)
	if m.CPUs[0].Regs[0] != 222 || next != 2 {
		t.Fatalf("branch taken path: g0=%d next=%d", m.CPUs[0].Regs[0], next)
	}
}

func TestHelperCallConvention(t *testing.T) {
	blk := tcg.NewBlock()
	a, b, res := blk.Temp(), blk.Temp(), blk.Temp()
	blk.MovI(a, 11)
	blk.MovI(b, 31)
	blk.Emit(tcg.Inst{Op: tcg.OpCall, Helper: tcg.HelperXAdd, Dst: res, A: a, B: b, Size: 8})
	blk.Mov(0, res)
	blk.Exit(0)

	code, st, err := Generate(blk, 0x100000, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Helper != 1 {
		t.Fatalf("helper stats: %+v", st)
	}
	m := machine.New(1 << 21)
	copy(m.Mem[0x100000:], code)
	var gotHelper tcg.Helper
	var gotSize uint8
	m.OnBLR = func(mm *machine.Machine, c *machine.CPU, target uint64) (bool, error) {
		h, size, ok := HelperOf(target)
		if !ok {
			return false, nil
		}
		gotHelper, gotSize = h, size
		// args in X18/X28; return in X18
		c.Regs[18] = c.Regs[18] + c.Regs[28]
		return true, nil
	}
	m.Syscall = func(mm *machine.Machine, c *machine.CPU, imm uint16) error {
		c.Halted = true
		return nil
	}
	c := m.CPUs[0]
	c.PC = 0x100000
	if err := m.Run(c, 10000); err != nil {
		t.Fatal(err)
	}
	if gotHelper != tcg.HelperXAdd || gotSize != 8 {
		t.Fatalf("helper dispatch: %d size %d", gotHelper, gotSize)
	}
	if c.Regs[0] != 42 {
		t.Fatalf("helper result: %d", c.Regs[0])
	}
}

func TestHelperAddrRoundTrip(t *testing.T) {
	for _, h := range []tcg.Helper{0, 1, 2, 100} {
		for _, size := range []uint8{0, 1, 2, 4, 8} {
			addr := HelperAddr(h, size)
			gh, gs, ok := HelperOf(addr)
			if !ok || gh != h || gs != size {
				t.Fatalf("round trip %d/%d → %d/%d/%v", h, size, gh, gs, ok)
			}
		}
	}
	if _, _, ok := HelperOf(0x1234); ok {
		t.Fatal("low address is not a helper")
	}
}

func TestOutOfLocalRegisters(t *testing.T) {
	blk := tcg.NewBlock()
	var last tcg.Temp
	for i := 0; i < 12; i++ { // more than the 8 local host regs
		last = blk.Temp()
		blk.MovI(last, int64(i))
	}
	blk.Mov(0, last)
	blk.Exit(0)
	if _, _, err := Generate(blk, 0, Config{}); err == nil {
		t.Fatal("exceeding local registers must error")
	}
}

// TestDifferentialAgainstInterp cross-checks the backend against the IR
// reference interpreter on random straight-line blocks.
func TestDifferentialAgainstInterp(t *testing.T) {
	ops := []tcg.Opcode{tcg.OpAdd, tcg.OpSub, tcg.OpMul, tcg.OpAnd, tcg.OpOr,
		tcg.OpXor, tcg.OpShl, tcg.OpShr, tcg.OpUDiv, tcg.OpURem}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		blk := tcg.NewBlock()
		temps := []tcg.Temp{0, 1, 2, 3}
		for i := 0; i < 4; i++ {
			temps = append(temps, blk.Temp())
		}
		addr := blk.Temp()
		blk.MovI(addr, 0x8000)
		pick := func() tcg.Temp { return temps[rng.Intn(len(temps))] }
		for i := 0; i < 12+rng.Intn(12); i++ {
			switch rng.Intn(7) {
			case 0:
				blk.MovI(pick(), int64(rng.Intn(1000)))
			case 1:
				blk.Mov(pick(), pick())
			case 2:
				blk.Alu(ops[rng.Intn(len(ops))], pick(), pick(), pick())
			case 3:
				blk.Ld(pick(), addr, int64(rng.Intn(8))*8, 8)
			case 4:
				blk.St(addr, int64(rng.Intn(8))*8, pick(), 8)
			case 5:
				blk.Emit(tcg.Inst{Op: tcg.OpSetcond, Cond: tcg.Cond(rng.Intn(10)),
					Dst: pick(), A: pick(), B: pick()})
			case 6:
				blk.Emit(tcg.Inst{Op: tcg.OpNot, Dst: pick(), A: pick()})
			}
		}
		blk.Exit(0x42)

		// Reference run.
		it := tcg.NewInterp(blk, 1<<21)
		for g := 0; g < tcg.NumGlobals; g++ {
			it.Temps[g] = uint64(g) * 7919
		}
		for i := 0x8000; i < 0x8040; i++ {
			it.Mem.(tcg.Flat)[i] = byte(i * 13)
		}
		if err := it.Run(blk); err != nil {
			t.Fatalf("seed %d: interp: %v", seed, err)
		}

		// Machine run.
		globals := make([]uint64, tcg.NumGlobals)
		for g := range globals {
			globals[g] = uint64(g) * 7919
		}
		m, next, _ := execute(t, blk, globals, func(mem []byte) {
			for i := 0x8000; i < 0x8040; i++ {
				mem[i] = byte(i * 13)
			}
		})
		if next != 0x42 {
			t.Fatalf("seed %d: next pc %#x", seed, next)
		}
		for g := 0; g < tcg.NumGlobals; g++ {
			if m.CPUs[0].Regs[g] != it.Temps[g] {
				t.Fatalf("seed %d: global %d: machine %#x interp %#x\n%s",
					seed, g, m.CPUs[0].Regs[g], it.Temps[g], blk)
			}
		}
		for i := 0x8000; i < 0x8040; i++ {
			if m.Mem[i] != it.Mem.(tcg.Flat)[i] {
				t.Fatalf("seed %d: mem[%#x]: machine %d interp %d", seed, i, m.Mem[i], it.Mem.(tcg.Flat)[i])
			}
		}
	}
}
