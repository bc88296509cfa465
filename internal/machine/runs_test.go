package machine_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/isa/arm"
	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/opcheck"
	"repro/internal/portasm"
	"repro/internal/workloads"
)

// outcome is what a run leaves that the run-at-a-time interpreter must not
// change: exit, output, per-CPU cycles and instruction counts, the dynamic
// barrier and atomic counts, and the trap, if any.
type outcome struct {
	Exit       uint64
	Output     string
	Cycles     []uint64
	Insts      []uint64
	DMBExec    [3]uint64
	AtomicExec uint64
	Err        string
	Trap       faults.Trap
}

func observe(m *machine.Machine, exit uint64, err error) outcome {
	o := outcome{Exit: exit, Output: string(m.Output), DMBExec: m.DMBExec, AtomicExec: m.AtomicExec}
	for _, c := range m.CPUs {
		o.Cycles = append(o.Cycles, c.Cycles)
		o.Insts = append(o.Insts, c.Insts)
	}
	if err != nil {
		o.Err = err.Error()
		if t, ok := faults.As(err); ok {
			o.Trap = *t
			o.Trap.Err = nil
		}
	}
	return o
}

// runGuest runs b's guest image through core.New under the risotto
// variant, per-instruction or per-run.
func runGuest(t *testing.T, b *portasm.Builder, perInst bool, opts ...core.Option) (outcome, *machine.Machine) {
	t.Helper()
	img, err := b.BuildGuest("main")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(img, append([]core.Option{core.WithVariant(core.VariantRisotto)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if perInst {
		machine.PerInstruction(rt.M)
	}
	exit, err := rt.Run()
	return observe(rt.M, exit, err), rt.M
}

// guest is a guest image builder and the core options it runs with.
type guest struct {
	name string
	b    func() (*portasm.Builder, error)
	opts []core.Option
}

// kernel builds the registered kernel name at threads threads, scale 1.
func kernel(name string, threads int) func() (*portasm.Builder, error) {
	return func() (*portasm.Builder, error) {
		k, err := workloads.KernelByName(name)
		if err != nil {
			return nil, err
		}
		return k.Build(threads, 1)
	}
}

// hotloopGuests is hotloop's five guests at threads threads.
func hotloopGuests(threads int) []guest {
	return []guest{
		{"histogram", kernel("histogram", threads), nil},
		{"kmeans", kernel("kmeans", threads), nil},
		{"freqmine", kernel("freqmine", threads), nil},
		{"casbench", func() (*portasm.Builder, error) { return workloads.CASBench(threads, 1, 2000) }, nil},
		{"sha256", func() (*portasm.Builder, error) { return workloads.DigestProgram("sha256", 1024, 16) },
			[]core.Option{core.WithHostLinker(workloads.IDLAll, nil)}},
	}
}

// TestRunsMatchInstructions holds the run-at-a-time interpreter to the
// per-instruction one on hotloop's guests and on every kernel at 2 and 16
// threads, and on budget traps that land inside a run: the same trap, at
// the same PC, after the same number of steps.
func TestRunsMatchInstructions(t *testing.T) {
	guests := hotloopGuests(2)
	for _, k := range workloads.Registry() {
		for _, threads := range []int{2, 16} {
			guests = append(guests, guest{fmt.Sprintf("%s/%d", k.Name, threads), kernel(k.Name, threads), nil})
		}
	}
	for _, g := range guests {
		t.Run(g.name, func(t *testing.T) {
			b, err := g.b()
			if err != nil {
				t.Fatal(err)
			}
			want, _ := runGuest(t, b, true, g.opts...)
			if want.Err != "" {
				t.Fatalf("per-instruction run failed: %s", want.Err)
			}
			if got, _ := runGuest(t, b, false, g.opts...); !reflect.DeepEqual(got, want) {
				t.Errorf("per-run outcome differs:\n got  %+v\n want %+v", got, want)
			}
		})
	}

	// A budget trap inside a run is the per-instruction path's: the
	// clipped run stops at the instruction where the budget runs out.
	b, err := kernel("kmeans", 2)()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("StepBudget", func(t *testing.T) {
		midRun := 0
		for budget := uint64(5000); budget < 5016; budget++ {
			want, _ := runGuest(t, b, true, core.WithStepBudget(budget))
			got, m := runGuest(t, b, false, core.WithStepBudget(budget))
			if want.Trap.Kind != faults.TrapBudget || want.Trap.Steps != budget {
				t.Fatalf("budget %d: per-instruction run ended with %q, want a budget trap at %d steps", budget, want.Err, budget)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("budget %d: per-run outcome differs:\n got  %+v\n want %+v", budget, got, want)
			}
			midRun += follows(m, want.Trap.PC)
		}
		if midRun == 0 {
			t.Error("no budget trapped inside a run")
		}
	})
	t.Run("maxSteps", func(t *testing.T) {
		img, err := b.BuildNative("main")
		if err != nil {
			t.Fatal(err)
		}
		run := func(perInst bool, maxSteps uint64) (outcome, *machine.Machine) {
			m := machine.New(portasm.NativeMemSize)
			m.Syscall = machine.NativeSyscall
			if err := img.Load(m); err != nil {
				t.Fatal(err)
			}
			if perInst {
				machine.PerInstruction(m)
			}
			m.CPUs[0].PC, m.CPUs[0].Regs[27] = img.Entry, portasm.NativeMainSP
			return observe(m, 0, m.RunAll(7, maxSteps)), m
		}
		midRun := 0
		for maxSteps := uint64(3000); maxSteps < 3016; maxSteps++ {
			want, _ := run(true, maxSteps)
			got, m := run(false, maxSteps)
			if want.Trap.Kind != faults.TrapBudget || want.Trap.Steps != maxSteps+1 {
				t.Fatalf("maxSteps %d: per-instruction run ended with %q, want a budget trap", maxSteps, want.Err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("maxSteps %d: per-run outcome differs:\n got  %+v\n want %+v", maxSteps, got, want)
			}
			midRun += follows(m, want.Trap.PC)
		}
		if midRun == 0 {
			t.Error("no maxSteps trapped inside a run")
		}
	})
}

// walkStep is one transition of a weak walk as visit sees it, with the
// moving CPU's instruction and cycle counts after it.
type walkStep struct {
	T             machine.Transition
	Err           string
	Insts, Cycles uint64
}

// weakWalk is what a weak walk leaves that running exec transitions a run
// at a time must not change: every transition, whether the walk halted,
// and the outcome.
type weakWalk struct {
	Trace   []walkStep
	Halted  bool
	Outcome outcome
}

// walkWeak walks m through drive, recording every transition the visit
// func drive passes on sees.
func walkWeak(m *machine.Machine, drive func(*machine.Machine, func(machine.Transition, error) bool) (bool, error)) weakWalk {
	var w weakWalk
	halted, err := drive(m, func(t machine.Transition, err error) bool {
		s := walkStep{T: t, Insts: m.CPUs[t.CPU].Insts, Cycles: m.CPUs[t.CPU].Cycles}
		if err != nil {
			s.Err = err.Error()
		}
		w.Trace = append(w.Trace, s)
		return true
	})
	w.Halted, w.Outcome = halted, observe(m, 0, err)
	return w
}

// firstExecs returns, per CPU, the instruction count after its first exec
// transition.
func firstExecs(w weakWalk) map[int]uint64 {
	first := map[int]uint64{}
	for _, s := range w.Trace {
		if _, ok := first[s.T.CPU]; !ok && s.T.Op == machine.OpExec {
			first[s.T.CPU] = s.Insts
		}
	}
	return first
}

// TestWeakRunsMatchInstructions holds exec transitions run a run at a time
// to exec transitions run an instruction at a time, the path the
// transition system was defined by: the same transitions, per-CPU counts,
// barrier and atomic counts and trap, per seed. It covers the litmus
// corpus through opcheck's sampler, hotloop's guests on the weak host, and
// hand-built programs for the places where an exec transition ends or goes
// on: after each instruction that accessed memory, past a failed STXR and
// a DMB on an empty buffer, at maxInvisible, and at a step budget inside a
// run.
func TestWeakRunsMatchInstructions(t *testing.T) {
	t.Run("corpus", func(t *testing.T) {
		compiled := 0
		for _, p := range litmus.Named() {
			c, err := opcheck.Compile(p)
			if errors.Is(err, opcheck.ErrUnsupported) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			compiled++
			var ms [2]*machine.Machine
			for i := range ms {
				if ms[i], err = c.NewMachine(); err != nil {
					t.Fatal(err)
				}
			}
			machine.PerInstruction(ms[0])
			for seed := range 8 {
				drive := func(m *machine.Machine, visit func(machine.Transition, error) bool) (bool, error) {
					return c.Walk(m, seed, visit)
				}
				want, got := walkWeak(ms[0], drive), walkWeak(ms[1], drive)
				if !want.Halted {
					t.Fatalf("%s seed %d: per-instruction walk did not halt: %s", p.Name, seed, want.Outcome.Err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s seed %d: per-run walk differs:\n got  %+v\n want %+v", p.Name, seed, got, want)
				}
			}
		}
		if compiled < len(litmus.Named())/2 {
			t.Fatalf("opcheck compiled %d of the %d corpus programs", compiled, len(litmus.Named()))
		}
	})

	// On the weak host a guest is a WalkAll, which shows no transition:
	// the exec transitions it took are its quanta.
	t.Run("guests", func(t *testing.T) {
		for _, g := range hotloopGuests(2) {
			b, err := g.b()
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{1, 2, 3} {
				run := func(perInst bool) (outcome, uint64) {
					sc := obs.NewScope("")
					o, _ := runGuest(t, b, perInst, append([]core.Option{core.WithWeakMemory(seed), core.WithObs(sc)}, g.opts...)...)
					return o, sc.Registry().Snapshot().Counter("machine.sched.quanta")
				}
				want, wantQ := run(true)
				if want.Err != "" || wantQ == 0 {
					t.Fatalf("%s seed %d: per-instruction run failed after %d execs: %s", g.name, seed, wantQ, want.Err)
				}
				if got, gotQ := run(false); !reflect.DeepEqual(got, want) || gotQ != wantQ {
					t.Errorf("%s seed %d: per-run outcome differs:\n got  %+v, %d execs\n want %+v, %d execs", g.name, seed, got, gotQ, want, wantQ)
				}
			}
		}
	})

	// Each hand-built program runs on two CPUs, CPU i with X1 = 0x800 +
	// 0x100*i, from codeBase.
	const codeBase = 0x1000
	hand := func(t *testing.T, emit func(a *arm.Assembler)) func(perInst bool) *machine.Machine {
		a := arm.NewAssembler()
		emit(a)
		code, _, err := a.Assemble(codeBase)
		if err != nil {
			t.Fatal(err)
		}
		return func(perInst bool) *machine.Machine {
			m := machine.New(1 << 16)
			if err := m.Write(codeBase, code); err != nil {
				t.Fatal(err)
			}
			m.EnableWeakMode()
			m.AddCPU()
			for i, c := range m.CPUs {
				c.PC, c.Regs[1] = codeBase, 0x800+0x100*uint64(i)
			}
			if perInst {
				machine.PerInstruction(m)
			}
			return m
		}
	}
	walk := func(seed uint64) func(*machine.Machine, func(machine.Transition, error) bool) (bool, error) {
		return func(m *machine.Machine, visit func(machine.Transition, error) bool) (bool, error) {
			return m.Walk(seed, 1<<20, visit)
		}
	}
	// both walks the program from seeds 0..7 both ways, requires the same
	// walk, and returns the per-run walks.
	both := func(t *testing.T, mk func(bool) *machine.Machine) []weakWalk {
		t.Helper()
		var walks []weakWalk
		for seed := range uint64(8) {
			want, got := walkWeak(mk(true), walk(seed)), walkWeak(mk(false), walk(seed))
			if !want.Halted {
				t.Fatalf("seed %d: per-instruction walk did not halt: %s", seed, want.Outcome.Err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: per-run walk differs:\n got  %+v\n want %+v", seed, got, want)
			}
			walks = append(walks, got)
		}
		return walks
	}

	// Every instruction that may access memory, each between register-only
	// ones: each access ends its transition, so a run that went past one
	// would merge two transitions.
	t.Run("accesses", func(t *testing.T) {
		both(t, hand(t, func(a *arm.Assembler) {
			x1, x2, x3, x4, x5 := arm.X1, arm.X2, arm.X3, arm.X4, arm.X5
			a.MovImm(x2, 7)
			for _, in := range []arm.Inst{
				{Op: arm.STR, Rd: x2, Rn: x1, Size: 8},
				{Op: arm.LDR, Rd: x3, Rn: x1, Size: 8},
				{Op: arm.LDAR, Rd: x3, Rn: x1, Size: 8},
				{Op: arm.LDAPR, Rd: x3, Rn: x1, Size: 8},
				{Op: arm.STLR, Rd: x2, Rn: x1, Size: 8},
				{Op: arm.LDXR, Rd: x4, Rn: x1, Size: 8},
				{Op: arm.STXR, Rd: x5, Rn: x1, Rm: x2, Size: 8},
				{Op: arm.LDAXR, Rd: x4, Rn: x1, Size: 8},
				{Op: arm.STLXR, Rd: x5, Rn: x1, Rm: x2, Size: 8},
				{Op: arm.CAS, Rd: x4, Rn: x1, Rm: x2, Size: 8},
				{Op: arm.CASAL, Rd: x4, Rn: x1, Rm: x2, Size: 8},
				{Op: arm.LDADDAL, Rd: x2, Rn: x1, Rm: x4, Size: 8},
				{Op: arm.SWPAL, Rd: x2, Rn: x1, Rm: x4, Size: 8},
				{Op: arm.STR, Rd: x2, Rn: x1, Size: 8},
				{Op: arm.DMB, Barrier: arm.BarrierFull},
				{Op: arm.STR, Rd: x2, Rn: x1, Size: 8},
				{Op: arm.DMB, Barrier: arm.BarrierStore},
			} {
				a.AddI(arm.X9, arm.X9, 1).Raw(in).AddI(arm.X9, arm.X9, 1)
			}
			a.Hlt()
		}))
	})

	// A STXR without a monitor fails and a DMB on an empty buffer flushes
	// nothing: neither accesses memory, so the first exec transition goes
	// on to the STR, the seventh instruction.
	t.Run("silent", func(t *testing.T) {
		walks := both(t, hand(t, func(a *arm.Assembler) {
			a.Raw(arm.Inst{Op: arm.STXR, Rd: arm.X5, Rn: arm.X1, Rm: arm.X2, Size: 8}).AddI(arm.X9, arm.X9, 1)
			a.Dmb(arm.BarrierFull).AddI(arm.X9, arm.X9, 1)
			a.Dmb(arm.BarrierLoad).AddI(arm.X9, arm.X9, 1)
			a.Str(arm.X2, arm.X1, 0, 8).Hlt()
		}))
		for _, w := range walks {
			if first := firstExecs(w); first[0] != 7 || first[1] != 7 {
				t.Fatalf("first exec transitions end after %v instructions, want 7 on each CPU", first)
			}
		}
	})

	// A register-only loop longer than maxInvisible: the first exec
	// transition is clipped there.
	t.Run("maxInvisible", func(t *testing.T) {
		walks := both(t, hand(t, func(a *arm.Assembler) {
			a.MovImm(arm.X6, machine.MaxInvisible)
			a.Label("loop").SubI(arm.X6, arm.X6, 1).AddI(arm.X9, arm.X9, 1).CbnzLabel(arm.X6, "loop")
			a.Str(arm.X2, arm.X1, 0, 8).Hlt()
		}))
		for _, w := range walks {
			if first := firstExecs(w); first[0] != machine.MaxInvisible || first[1] != machine.MaxInvisible {
				t.Fatalf("first exec transitions end after %v instructions, want %d on each CPU", first, machine.MaxInvisible)
			}
		}
	})

	// A per-CPU step budget that runs out inside a run, a transition's
	// run included: the same trap, on the same CPU and PC, after the same
	// steps.
	t.Run("StepBudget", func(t *testing.T) {
		mk := hand(t, func(a *arm.Assembler) {
			a.Label("loop")
			for range 6 {
				a.AddI(arm.X9, arm.X9, 1)
			}
			a.Str(arm.X9, arm.X1, 0, 8)
			for range 5 {
				a.AddI(arm.X9, arm.X9, 1)
			}
			a.Ldr(arm.X3, arm.X1, 8, 8).BLabel("loop")
		})
		midRun := 0
		for budget := uint64(100); budget < 116; budget++ {
			for seed := range uint64(2) {
				budgeted := func(perInst bool) *machine.Machine {
					m := mk(perInst)
					m.StepBudget = budget
					return m
				}
				m := budgeted(false)
				want, got := walkWeak(budgeted(true), walk(seed)), walkWeak(m, walk(seed))
				if tr := want.Outcome.Trap; tr.Kind != faults.TrapBudget || tr.Steps != budget {
					t.Fatalf("budget %d seed %d: per-instruction walk ended with %q, want a budget trap at %d steps", budget, seed, want.Outcome.Err, budget)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("budget %d seed %d: per-run walk differs:\n got  %+v\n want %+v", budget, seed, got, want)
				}
				pc := want.Outcome.Trap.PC
				if inst, err := arm.DecodeAt(m.Mem, int(pc-arm.InstBytes)); err == nil && !machine.EndsRun(inst.Op) && !machine.MayAccess(inst.Op) {
					midRun++
				}
			}
		}
		if midRun == 0 {
			t.Error("no budget trapped inside a run")
		}
	})
}

// follows reports 1 if pc is inside a run: the word before it decodes to
// an instruction that does not end a run, in the same decode page.
func follows(m *machine.Machine, pc uint64) int {
	if pc%256 == 0 {
		return 0
	}
	inst, err := arm.DecodeAt(m.Mem, int(pc-arm.InstBytes))
	if err != nil || machine.EndsRun(inst.Op) {
		return 0
	}
	return 1
}

// TestPatchedRunIsNotStale caches a straight-line run, writes a B into its
// third slot, and enters the code twice: at the patched slot and at the
// run's start. Both entries must take the branch; a run that did not end
// at the new B would execute the rest of the old run at the branch target.
func TestPatchedRunIsNotStale(t *testing.T) {
	const base = 0x1000
	a := arm.NewAssembler()
	for i := 0; i < 4; i++ {
		a.AddI(arm.X1, arm.X1, 1)
	}
	a.Hlt()
	a.Label("target")
	a.AddI(arm.X2, arm.X2, 1)
	a.Hlt()
	code, _, err := a.Assemble(base)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(1 << 16)
	if err := m.Write(base, code); err != nil {
		t.Fatal(err)
	}
	c := m.CPUs[0]
	run := func(pc uint64) {
		t.Helper()
		c.PC, c.Halted = pc, false
		if err := m.Run(c, 100); err != nil {
			t.Fatal(err)
		}
	}
	run(base)
	if c.Regs[1] != 4 || c.Regs[2] != 0 {
		t.Fatalf("straight-line run: X1 = %d X2 = %d, want 4 0", c.Regs[1], c.Regs[2])
	}

	// B from slot 2 to slot 5, the target.
	patch, err := arm.EncodeTo(nil, arm.Inst{Op: arm.B, Off: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(base+2*arm.InstBytes, patch); err != nil {
		t.Fatal(err)
	}
	run(base + 2*arm.InstBytes)
	if c.Regs[1] != 4 || c.Regs[2] != 1 {
		t.Errorf("entered at the patch: X1 = %d X2 = %d, want 4 1", c.Regs[1], c.Regs[2])
	}
	run(base)
	if c.Regs[1] != 6 || c.Regs[2] != 2 {
		t.Errorf("entered at the run's start: X1 = %d X2 = %d, want 6 2", c.Regs[1], c.Regs[2])
	}
	if c.Insts != 5+3+5 {
		t.Errorf("Insts = %d, want 13", c.Insts)
	}
}
