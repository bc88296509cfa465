// Package opcheck bridges the repository's two views of weak memory: it
// compiles litmus programs to native Arm code, samples their executions on
// the simulated machine's operational weak-memory mode (seeded random walks
// over the machine's transition system, machine.Walk), and checks that
// every outcome actually observed is admitted by the
// Armed-Cats axiomatic model — the soundness direction of the
// operational/axiomatic correspondence. (Completeness against the broad
// architectural models cannot hold: the store-buffer machine deliberately
// models only the store-side relaxations. internal/models/opref is the
// exact axiomatic twin of the machine, and internal/explore measures
// two-sided coverage against it over this package's compiler.)
package opcheck

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/guestimg"
	"repro/internal/isa/arm"
	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/memmodel"
)

// ErrUnsupported marks programs outside the compilable subset (exotic
// access attributes, out-of-range immediates). Campaign drivers
// distinguish "this test cannot run operationally" (errors.Is
// ErrUnsupported → skip) from a genuine compile/execution failure.
var ErrUnsupported = errors.New("opcheck: unsupported operation")

// Layout constants for compiled litmus programs.
const (
	textBase   = 0x1000
	locBase    = 0x8000 // shared locations, 8 bytes each
	resultBase = 0x9000 // per-thread result slots
	maskBase   = 0xA000 // per-thread executed-register masks
	memSize    = 1 << 16
)

// maxImm12 bounds the immediates CmpI/ORRI can encode.
const maxImm12 = 0xFFF

// Compiled is a litmus program lowered to native Arm threads.
type Compiled struct {
	img     *guestimg.Image
	entries []uint64
	// regs[t] lists thread t's registers by name.
	regs     [][]regSlot
	locAddrs map[litmus.Loc]uint64
	program  *litmus.Program
}

// Program returns the litmus program this was compiled from.
func (c *Compiled) Program() *litmus.Program { return c.program }

// regSlot is where a thread publishes one litmus register.
type regSlot struct {
	reg  litmus.Reg
	addr uint64 // result slot
	bit  int    // the register's bit in the thread's executed mask
}

func maskAddr(t int) uint64 { return maskBase + uint64(t)*8 }

// threadCompiler carries the per-thread lowering state.
//
// Register plan: litmus registers get X9..X20; X1 is the value scratch,
// X2 the address scratch, X4 the executed-register mask, X5..X8 CAS/index
// temporaries. The mask mirrors
// litmus.OutcomeOf exactly: a register appears in the outcome iff the
// statement that assigns it actually executed (an If body not taken
// leaves its registers out), so each assignment ORs the register's bit
// into X4 and the epilogue publishes the mask beside the result slots.
type threadCompiler struct {
	c       *Compiled
	a       *arm.Assembler
	t       int
	regMap  map[litmus.Reg]arm.Reg
	slots   []regSlot
	nextReg arm.Reg
	labels  int
	slotCur *uint64
}

func (tc *threadCompiler) newLabel() string {
	tc.labels++
	return fmt.Sprintf("t%dl%d", tc.t, tc.labels)
}

func (tc *threadCompiler) allocReg(r litmus.Reg) (arm.Reg, error) {
	if hw, ok := tc.regMap[r]; ok {
		return hw, nil
	}
	if tc.nextReg > arm.X20 {
		return 0, fmt.Errorf("opcheck: thread %d: too many registers", tc.t)
	}
	hw := tc.nextReg
	tc.nextReg++
	tc.regMap[r] = hw
	tc.slots = append(tc.slots, regSlot{reg: r, addr: *tc.slotCur, bit: int(hw - arm.X9)})
	*tc.slotCur += 8
	return hw, nil
}

// markAssigned records into the executed mask that hw's litmus register
// was assigned on this path.
func (tc *threadCompiler) markAssigned(hw arm.Reg) {
	tc.a.Raw(arm.Inst{Op: arm.ORRI, Rd: arm.X4, Rn: arm.X4, Imm: 1 << (hw - arm.X9)})
}

// selectLoc materializes Loc0/Loc1 chosen by the low bit of idx into X2.
func (tc *threadCompiler) selectLoc(idx arm.Reg, loc0, loc1 litmus.Loc) {
	join := tc.newLabel()
	tc.a.AndI(arm.X5, idx, 1)
	tc.a.MovImm(arm.X2, tc.c.locAddrs[loc0])
	tc.a.CbzLabel(arm.X5, join)
	tc.a.MovImm(arm.X2, tc.c.locAddrs[loc1])
	tc.a.Label(join)
}

func (tc *threadCompiler) compileOps(ops []litmus.Op) error {
	a, t := tc.a, tc.t
	for _, op := range ops {
		switch o := op.(type) {
		case litmus.Store:
			if o.Acq || o.AcqPC || o.SC {
				return fmt.Errorf("%w: store attrs on thread %d", ErrUnsupported, t)
			}
			a.MovImm(arm.X2, tc.c.locAddrs[o.Loc])
			a.MovImm(arm.X1, uint64(o.Val))
			if o.Rel {
				a.Stlr(arm.X1, arm.X2)
			} else {
				a.Str(arm.X1, arm.X2, 0, 8)
			}
		case litmus.StoreReg:
			hw, ok := tc.regMap[o.Src]
			if !ok {
				return fmt.Errorf("opcheck: thread %d stores undefined reg %s", t, o.Src)
			}
			if o.Acq || o.AcqPC || o.SC {
				return fmt.Errorf("%w: store attrs on thread %d", ErrUnsupported, t)
			}
			a.MovImm(arm.X2, tc.c.locAddrs[o.Loc])
			if o.Rel {
				a.Stlr(hw, arm.X2)
			} else {
				a.Str(hw, arm.X2, 0, 8)
			}
		case litmus.Load:
			if o.Rel || o.SC {
				return fmt.Errorf("%w: load attrs on thread %d", ErrUnsupported, t)
			}
			hw, err := tc.allocReg(o.Dst)
			if err != nil {
				return err
			}
			a.MovImm(arm.X2, tc.c.locAddrs[o.Loc])
			tc.emitLoad(hw, o.Attr)
			tc.markAssigned(hw)
		case litmus.LoadIdx:
			if o.Rel || o.SC {
				return fmt.Errorf("%w: load attrs on thread %d", ErrUnsupported, t)
			}
			hwIdx, ok := tc.regMap[o.Idx]
			if !ok {
				return fmt.Errorf("opcheck: thread %d indexes undefined reg %s", t, o.Idx)
			}
			hw, err := tc.allocReg(o.Dst)
			if err != nil {
				return err
			}
			tc.selectLoc(hwIdx, o.Loc0, o.Loc1)
			tc.emitLoad(hw, o.Attr)
			tc.markAssigned(hw)
		case litmus.StoreIdx:
			if o.Acq || o.AcqPC || o.SC {
				return fmt.Errorf("%w: store attrs on thread %d", ErrUnsupported, t)
			}
			hwIdx, ok := tc.regMap[o.Idx]
			if !ok {
				return fmt.Errorf("opcheck: thread %d indexes undefined reg %s", t, o.Idx)
			}
			tc.selectLoc(hwIdx, o.Loc0, o.Loc1)
			a.MovImm(arm.X1, uint64(o.Val))
			if o.Rel {
				a.Stlr(arm.X1, arm.X2)
			} else {
				a.Str(arm.X1, arm.X2, 0, 8)
			}
		case litmus.CAS:
			if err := tc.compileCAS(o); err != nil {
				return err
			}
		case litmus.Fence:
			// An Arm fence is its own DMB. For the other levels' the
			// shared StoreFlush classification keeps compiler, machine and
			// op-ref model agreeing on which fences drain the buffer:
			// store-side fences lower to DMB ISH, pure load-side ones to
			// DMB ISHLD (an operational no-op — loads are in order).
			bar, ok := arm.BarrierOf(o.K)
			if !ok {
				bar = arm.BarrierLoad
				if o.K.StoreFlush() {
					bar = arm.BarrierFull
				}
			}
			a.Dmb(bar)
		case litmus.MovImm:
			hw, err := tc.allocReg(o.Dst)
			if err != nil {
				return err
			}
			a.MovImm(hw, uint64(o.Val))
			tc.markAssigned(hw)
		case litmus.If:
			hw, ok := tc.regMap[o.Reg]
			if !ok {
				return fmt.Errorf("opcheck: thread %d branches on undefined reg %s", t, o.Reg)
			}
			if o.Val < 0 || o.Val > maxImm12 {
				return fmt.Errorf("%w: If immediate %d", ErrUnsupported, o.Val)
			}
			skip := tc.newLabel()
			a.CmpI(hw, o.Val)
			// Branch around the body when the condition is false.
			cond := arm.EQ
			if o.Eq {
				cond = arm.NE
			}
			a.BCondLabel(cond, skip)
			if err := tc.compileOps(o.Body); err != nil {
				return err
			}
			a.Label(skip)
		default:
			return fmt.Errorf("%w: %T", ErrUnsupported, op)
		}
	}
	return nil
}

// emitLoad loads [X2] into hw with the access's acquire flavour.
func (tc *threadCompiler) emitLoad(hw arm.Reg, attr litmus.Attr) {
	switch {
	case attr.Acq:
		tc.a.Ldar(hw, arm.X2)
	case attr.AcqPC:
		tc.a.Raw(arm.Inst{Op: arm.LDAPR, Rd: hw, Rn: arm.X2, Size: 8})
	default:
		tc.a.Ldr(hw, arm.X2, 0, 8)
	}
}

// compileCAS lowers a litmus CAS: the amo class to a single CAS/CASAL,
// the lxsx class to a load/store-exclusive retry loop — mirroring the two
// RMW families of §2.4. X5 carries expect-in/old-out, X6 the new value,
// X7 the comparison copy, X8 the exclusive status.
func (tc *threadCompiler) compileCAS(o litmus.CAS) error {
	a := tc.a
	a.MovImm(arm.X2, tc.c.locAddrs[o.Loc])
	a.MovImm(arm.X5, uint64(o.Expect))
	a.MovImm(arm.X6, uint64(o.New))
	switch o.Class {
	case memmodel.RMWLxSx:
		retry, done := tc.newLabel(), tc.newLabel()
		a.Mov(arm.X7, arm.X5)
		a.Label(retry)
		ld := arm.LDXR
		if o.Acq || o.AcqPC || o.SC {
			ld = arm.LDAXR
		}
		a.Raw(arm.Inst{Op: ld, Rd: arm.X5, Rn: arm.X2, Size: 8})
		a.Cmp(arm.X5, arm.X7)
		a.BCondLabel(arm.NE, done)
		st := arm.STXR
		if o.Rel || o.SC {
			st = arm.STLXR
		}
		a.Raw(arm.Inst{Op: st, Rd: arm.X8, Rm: arm.X6, Rn: arm.X2, Size: 8})
		a.CbnzLabel(arm.X8, retry)
		a.Label(done)
	default: // amo (single-instruction CAS), the RMW1 family
		op := arm.CAS
		if o.Acq || o.AcqPC || o.Rel || o.SC {
			op = arm.CASAL
		}
		a.Raw(arm.Inst{Op: op, Rd: arm.X5, Rm: arm.X6, Rn: arm.X2, Size: 8})
	}
	if o.Dst != "" {
		hw, err := tc.allocReg(o.Dst)
		if err != nil {
			return err
		}
		a.Mov(hw, arm.X5)
		tc.markAssigned(hw)
	}
	return nil
}

// Compile lowers a litmus program to one Arm code sequence per thread.
// Loaded registers are written to result slots — and the executed-register
// mask to the thread's mask slot — before the thread halts.
func Compile(p *litmus.Program) (*Compiled, error) {
	c := &Compiled{
		locAddrs: make(map[litmus.Loc]uint64),
		program:  p,
	}
	for i, loc := range p.Locations() {
		c.locAddrs[loc] = locBase + uint64(i)*8
	}

	a := arm.NewAssembler()
	slotCur := uint64(resultBase)
	for t, ops := range p.Threads {
		label := fmt.Sprintf("t%d", t)
		a.Label(label)
		tc := &threadCompiler{
			c: c, a: a, t: t,
			regMap:  make(map[litmus.Reg]arm.Reg),
			nextReg: arm.X9,
			slotCur: &slotCur,
		}
		a.MovImm(arm.X4, 0)
		if err := tc.compileOps(ops); err != nil {
			return nil, err
		}
		// Publish loaded registers in name order (determinism: the
		// instruction stream must be a pure function of the program, or
		// recorded exploration traces would not replay across processes),
		// then the executed mask, and halt.
		sort.Slice(tc.slots, func(i, j int) bool { return tc.slots[i].reg < tc.slots[j].reg })
		for _, s := range tc.slots {
			a.MovImm(arm.X2, s.addr)
			a.Str(tc.regMap[s.reg], arm.X2, 0, 8)
		}
		c.regs = append(c.regs, tc.slots)
		a.MovImm(arm.X2, maskAddr(t))
		a.Str(arm.X4, arm.X2, 0, 8)
		a.Hlt()
	}

	code, syms, err := a.Assemble(textBase)
	if err != nil {
		return nil, err
	}
	c.img = &guestimg.Image{Segments: []guestimg.Segment{{Addr: textBase, Data: code}}, Symbols: syms}
	for t := range p.Threads {
		c.entries = append(c.entries, syms[fmt.Sprintf("t%d", t)])
	}
	return c, nil
}

// NewMachine builds a fresh weak-mode machine with the program loaded and
// one CPU per thread parked at its entry. It has no drain policy: which CPU
// moves and which store drains is its driver's choice, one transition
// (machine.Enabled/Apply) at a time.
func (c *Compiled) NewMachine() (*machine.Machine, error) {
	m := machine.New(memSize)
	if err := c.Reset(m); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset returns m, a machine NewMachine built (for this program or
// another), to the initial state NewMachine builds for this one, keeping
// m's allocations: drivers that run a program many times start every run
// after the first this way.
func (c *Compiled) Reset(m *machine.Machine) error {
	m.Reset()
	if err := c.img.Load(m); err != nil {
		return err
	}
	m.EnableWeakMode()
	for t, entry := range c.entries {
		cpu := m.CPUs[0]
		if t > 0 {
			cpu = m.AddCPU()
		}
		cpu.PC = entry
	}
	return nil
}

// Outcome reads the machine's final state — registers then memory — and
// renders it through litmus.NewOutcome, so it compares with the axiomatic
// side's outcomes. Every CPU of m must have halted (which drains its store
// buffer). Registers whose assignment did not execute (untaken If bodies)
// are excluded via the per-thread executed masks, matching litmus.OutcomeOf.
func (c *Compiled) Outcome(m *machine.Machine) (litmus.Outcome, error) {
	regs := make([]map[litmus.Reg]int64, len(c.regs))
	for t, slots := range c.regs {
		mask, err := m.ReadMem(maskAddr(t), 8)
		if err != nil {
			return "", err
		}
		regs[t] = make(map[litmus.Reg]int64, len(slots))
		for _, s := range slots {
			if mask&(1<<s.bit) == 0 {
				continue
			}
			v, err := m.ReadMem(s.addr, 8)
			if err != nil {
				return "", err
			}
			regs[t][s.reg] = int64(v)
		}
	}
	mem := make(map[string]int64, len(c.locAddrs))
	for loc, addr := range c.locAddrs {
		v, err := m.ReadMem(addr, 8)
		if err != nil {
			return "", err
		}
		mem[string(loc)] = int64(v)
	}
	return litmus.NewOutcome(regs, mem), nil
}

// AppendOutcomeKey appends to key the raw final state Outcome reads —
// every thread's executed-register mask, every result slot and every
// location, as they lie in memory — and returns the extended key. Outcome
// is a pure function of it, so a caller that meets the same final state
// many times (explore's leaves) can memoise Outcome by key. Every CPU of m
// must have halted.
func (c *Compiled) AppendOutcomeKey(key []byte, m *machine.Machine) ([]byte, error) {
	slots := 0
	for _, r := range c.regs {
		slots += len(r)
	}
	for _, span := range [...]struct{ addr, words uint64 }{
		{maskBase, uint64(len(c.regs))},
		{resultBase, uint64(slots)},
		{locBase, uint64(len(c.locAddrs))},
	} {
		b, err := m.Read(span.addr, 8*span.words)
		if err != nil {
			return key, err
		}
		key = append(key, b...)
	}
	return key, nil
}

// WalkSteps bounds one sampled execution: compiled litmus programs halt
// within a few dozen transitions unless an exclusive pair livelocks.
const WalkSteps = 4096

// Walk is the program's one sampler: walk seed is m reset to the initial
// state, then machine.Walk from seed, at most WalkSteps transitions long
// (visit as machine.Walk's). Observe and explore's walk mode both draw
// their runs from it, so walk i of either is the same run.
func (c *Compiled) Walk(m *machine.Machine, seed int, visit func(machine.Transition, error) bool) (halted bool, err error) {
	if err := c.Reset(m); err != nil {
		return false, err
	}
	return m.Walk(uint64(seed), WalkSteps, visit)
}

// machines holds the machines Observe and explore's runs have finished
// with: a borrowed machine is reset to a program's initial state whatever
// program it last ran, as Reset's contract allows, so a run that finds one
// here skips machine.New's 64 KiB.
var machines sync.Pool

// BorrowMachine returns a machine from the pool shared by every Observe and
// explore run, or a new one: a machine NewMachine built, for some program.
// Reset or Walk puts it in a program's initial state. ReturnMachine gives
// it back.
func BorrowMachine() *machine.Machine {
	if m, _ := machines.Get().(*machine.Machine); m != nil {
		return m
	}
	return machine.New(memSize)
}

// ReturnMachine puts m, borrowed by BorrowMachine, back in the pool. The
// caller must not use m afterwards.
func ReturnMachine(m *machine.Machine) { machines.Put(m) }

// Observe samples 3n executions — walks 0..3n-1, all on one machine
// borrowed from the pool — and collects the distinct outcomes.
func (c *Compiled) Observe(n int) (litmus.OutcomeSet, error) {
	m := BorrowMachine()
	defer ReturnMachine(m)
	return c.observe(m, n)
}

// observe is Observe on the machine m, a machine NewMachine built (for
// this program or another).
func (c *Compiled) observe(m *machine.Machine, n int) (litmus.OutcomeSet, error) {
	out := make(litmus.OutcomeSet)
	for seed := 0; seed < 3*n; seed++ {
		halted, err := c.Walk(m, seed, nil)
		if err != nil {
			return nil, err
		}
		if !halted {
			return nil, fmt.Errorf("opcheck: %q seed %d still running after %d transitions", c.program.Name, seed, WalkSteps)
		}
		o, err := c.Outcome(m)
		if err != nil {
			return nil, err
		}
		out[o] = true
	}
	return out, nil
}

// CheckSound verifies that every operationally observed outcome of p is
// admitted by model m, returning the offending outcomes (empty = sound).
// The admitted set is enumerated through the process-wide cache by
// default; extra litmus options append after it (last wins), so campaign
// drivers can substitute a bounded per-test cache.
func CheckSound(p *litmus.Program, m memmodel.Model, seeds int, opts ...litmus.Option) ([]litmus.Outcome, error) {
	c, err := Compile(p)
	if err != nil {
		return nil, err
	}
	observed, err := c.Observe(seeds)
	if err != nil {
		return nil, err
	}
	all := append([]litmus.Option{litmus.WithCache(litmus.DefaultCache)}, opts...)
	admitted, err := litmus.Enumerate(p, m, all...)
	if err != nil {
		return nil, fmt.Errorf("opcheck: enumerating %q under %s: %w", p.Name, m.Name(), err)
	}
	var bad []litmus.Outcome
	for o := range observed {
		if !admitted[o] {
			bad = append(bad, o)
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
	return bad, nil
}
