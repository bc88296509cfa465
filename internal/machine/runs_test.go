package machine_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/isa/arm"
	"repro/internal/machine"
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

// TestRunsMatchInstructions holds the run-at-a-time interpreter to the
// per-instruction one on hotloop's guests and on every kernel at 2 and 16
// threads, and on budget traps that land inside a run: the same trap, at
// the same PC, after the same number of steps.
func TestRunsMatchInstructions(t *testing.T) {
	type guest struct {
		name string
		b    func() (*portasm.Builder, error)
		opts []core.Option
	}
	kernel := func(name string, threads int) func() (*portasm.Builder, error) {
		return func() (*portasm.Builder, error) {
			k, err := workloads.KernelByName(name)
			if err != nil {
				return nil, err
			}
			return k.Build(threads, 1)
		}
	}
	guests := []guest{
		{"histogram", kernel("histogram", 2), nil},
		{"kmeans", kernel("kmeans", 2), nil},
		{"freqmine", kernel("freqmine", 2), nil},
		{"casbench", func() (*portasm.Builder, error) { return workloads.CASBench(2, 1, 2000) }, nil},
		{"sha256", func() (*portasm.Builder, error) { return workloads.DigestProgram("sha256", 1024, 16) },
			[]core.Option{core.WithHostLinker(workloads.IDLAll, nil)}},
	}
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
