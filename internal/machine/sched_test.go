package machine

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/isa/arm"
	"repro/internal/obs"
)

// joinProgram builds a two-CPU native program: CPU 0 joins CPU 1 and halts
// with the worker's exit code in X0; CPU 1 counts X1 down from iters and
// exits with code 7 (iters 0 = never: the worker spins forever). The
// "join" symbol is the SVC itself.
func joinProgram(t *testing.T, iters uint64) (*Machine, map[string]uint64) {
	t.Helper()
	m, syms := loadProgram(t, 0x1000, func(a *arm.Assembler) {
		a.Label("main").
			MovImm(arm.X8, SysJoin).
			MovImm(arm.X0, 1).
			Label("join").
			Svc(0).
			Hlt()
		a.Label("worker").
			MovImm(arm.X1, iters).
			Label("loop").
			SubI(arm.X1, arm.X1, 1).
			CbnzLabel(arm.X1, "loop").
			MovImm(arm.X8, SysExit).
			MovImm(arm.X0, 7).
			Svc(0)
	})
	m.CPUs[0].PC = syms["main"]
	m.AddCPU().PC = syms["worker"]
	return m, syms
}

// spinningJoin is the join the machine had before Wait: rewind and refund,
// then burn the rest of the quantum retrying. The tests run it beside
// NativeSyscall to show that waiting changes nothing but the retries.
func spinningJoin(m *Machine, c *CPU, imm uint16) error {
	if c.Regs[8] == SysJoin && !m.CPUs[c.Regs[0]].Halted {
		c.PC -= 4
		c.Cycles -= m.Cost.Svc
		return nil
	}
	return NativeSyscall(m, c, imm)
}

// TestBlockedJoinYieldsQuantum: a blocked join parks the joiner until the
// worker halts, and nothing else moves. The decision log — every
// instruction fetched, in order, less the join SVC's fetches while the
// worker runs (the spinning join's retries, the waiting join's one parked
// attempt) — every CPU's cycles, registers and exit code and MaxCycles
// equal the spinning join's, and the joiner executes its straight line
// only: two set-up instructions, the SVC and the HLT.
func TestBlockedJoinYieldsQuantum(t *testing.T) {
	const iters, quantum = 5000, 64
	t.Run("round-robin", func(t *testing.T) {
		run := func(sys func(*Machine, *CPU, uint16) error) (*Machine, []uint64, uint64) {
			m, syms := joinProgram(t, iters)
			m.Syscall = sys
			m.SetObs(obs.NewScope("test"))
			var log []uint64
			m.fetchCheck = func(pc uint64, _ *arm.Inst) {
				if pc != syms["join"] || m.CPUs[1].Halted {
					log = append(log, pc)
				}
			}
			if err := m.RunAll(quantum, 10_000_000); err != nil {
				t.Fatal(err)
			}
			return m, log, m.quanta.Load()
		}
		spin, spinLog, spinQuanta := run(spinningJoin)
		wait, waitLog, quanta := run(NativeSyscall)

		if !slices.Equal(waitLog, spinLog) {
			t.Errorf("decision logs differ: %d fetches, spinning join's %d", len(waitLog), len(spinLog))
		}
		for i := range spin.CPUs {
			s, w := spin.CPUs[i], wait.CPUs[i]
			if w.Cycles != s.Cycles || w.ExitCode != s.ExitCode || w.Regs != s.Regs {
				t.Errorf("cpu%d: cycles/exit/regs = %d/%d/%v, spinning join gave %d/%d/%v",
					i, w.Cycles, w.ExitCode, w.Regs, s.Cycles, s.ExitCode, s.Regs)
			}
		}
		if wait.MaxCycles() != spin.MaxCycles() {
			t.Errorf("MaxCycles = %d, spinning join gave %d", wait.MaxCycles(), spin.MaxCycles())
		}
		if got := wait.CPUs[0].Regs[0]; got != 7 {
			t.Errorf("join returned %d, want the worker's exit code 7", got)
		}
		if wait.CPUs[1].Insts != spin.CPUs[1].Insts {
			t.Errorf("worker executed %d instructions, spinning join's %d", wait.CPUs[1].Insts, spin.CPUs[1].Insts)
		}
		if n := wait.CPUs[0].Insts; n != 4 {
			t.Errorf("joiner executed %d instructions, want its straight line's 4", n)
		}
		if quanta >= spinQuanta {
			t.Errorf("%d quanta, spinning join's %d: the joiner still takes turns", quanta, spinQuanta)
		}
		if spin.CPUs[0].Insts < 10*wait.CPUs[0].Insts {
			t.Errorf("spinning joiner executed only %d instructions against %d: the program no longer blocks long enough to test anything",
				spin.CPUs[0].Insts, wait.CPUs[0].Insts)
		}
	})
}

// TestBlockedJoinRefundsItsCharge: a join that waits takes back exactly
// what its SVC was charged — the cost resolved when the machine was built,
// not a later edit of Cost, which takes effect at the next Reset — so the
// joiner's cycles are those of a join whose worker had already halted.
func TestBlockedJoinRefundsItsCharge(t *testing.T) {
	run := func(workerFirst bool) *CPU {
		m, _ := loadProgram(t, 0x1000, func(a *arm.Assembler) {
			a.MovSym(arm.X0, "worker").
				MovImm(arm.X1, 0).
				MovImm(arm.X2, 0x8000).
				MovImm(arm.X8, SysSpawn).
				Svc(0).
				MovImm(arm.X8, SysJoin).
				Svc(0).
				Hlt()
			a.Label("worker").
				MovImm(arm.X1, 500).
				Label("loop").
				SubI(arm.X1, arm.X1, 1).
				CbnzLabel(arm.X1, "loop").
				MovImm(arm.X8, SysExit).
				MovImm(arm.X0, 7).
				Svc(0)
		})
		m.Cost.Svc = 1000
		main := m.CPUs[0]
		if workerFirst {
			for len(m.CPUs) < 2 {
				if err := m.step(main); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Run(m.CPUs[1], 10_000); err != nil || !m.CPUs[1].Halted {
				t.Fatalf("worker alone: err %v, halted %v", err, m.CPUs[1].Halted)
			}
		}
		if err := m.RunAll(64, 1_000_000); err != nil {
			t.Fatal(err)
		}
		if main.Regs[0] != 7 {
			t.Fatalf("join returned %d, want the worker's exit code 7", main.Regs[0])
		}
		return main
	}
	blocked, straight := run(false), run(true)
	if blocked.Cycles != straight.Cycles || blocked.Insts != straight.Insts {
		t.Errorf("blocked joiner: %d cycles, %d instructions; one whose worker had halted: %d, %d",
			blocked.Cycles, blocked.Insts, straight.Cycles, straight.Insts)
	}
}

// TestBlockedJoinWatchdogs: a join that can never complete is bounded — by
// the budget of the CPU it waits on, or, when it would wait on itself,
// refused at once.
func TestBlockedJoinWatchdogs(t *testing.T) {
	t.Run("step budget fires on the worker", func(t *testing.T) {
		m, _ := joinProgram(t, 0)
		m.StepBudget = 10_000
		err := m.RunAll(64, 1<<40)
		trap, ok := faults.As(err)
		if !ok || trap.Kind != faults.TrapBudget {
			t.Fatalf("err = %v, want a TrapBudget", err)
		}
		if trap.CPU != 1 {
			t.Errorf("budget trap on cpu%d, want the runaway worker cpu1", trap.CPU)
		}
		if n := m.CPUs[0].Insts; n != 2 {
			t.Errorf("joiner executed %d instructions, want its 2 set-up instructions", n)
		}
	})
	// A self-join, and cpu0 and cpu1 joining each other, fail on the join
	// that closes the cycle, under RunAll and under a walk, before any CPU
	// runs on.
	t.Run("join cycles fail at once", func(t *testing.T) {
		drivers := map[string]func(*Machine) error{
			"RunAll": func(m *Machine) error { return m.RunAll(64, 1<<40) },
			"Walk": func(m *Machine) error {
				_, err := m.Walk(1, 1<<20, nil)
				return err
			},
		}
		for _, cycle := range []bool{false, true} {
			for name, drive := range drivers {
				m, syms := joinProgram(t, 1)
				m.StepBudget = 1000
				c := m.CPUs[0]
				if cycle {
					c = m.CPUs[1]
				}
				c.PC, c.Regs[8], c.Regs[0] = syms["join"], SysJoin, 0
				err := drive(m)
				if err == nil || !strings.Contains(err.Error(), "would wait on itself") ||
					!strings.Contains(err.Error(), "cpu 0") || (cycle && !strings.Contains(err.Error(), "cpu 1")) {
					t.Errorf("cycle=%v %s: err = %v, want a join that would wait on itself, naming both CPUs", cycle, name, err)
				}
				for _, c := range m.CPUs {
					if c.Insts >= 10 {
						t.Errorf("cycle=%v %s: cpu%d executed %d instructions before the join failed", cycle, name, c.ID, c.Insts)
					}
				}
			}
		}
	})
}

// TestStuckMachineIsAnError: live CPUs of which none can move end RunAll
// and a walk with an error, never as a finished run. Wait refuses the
// cycle that parks them all, so the test builds it by hand.
func TestStuckMachineIsAnError(t *testing.T) {
	drivers := map[string]func(*Machine) error{
		"RunAll": func(m *Machine) error { return m.RunAll(64, 1<<20) },
		"Walk": func(m *Machine) error {
			halted, err := m.Walk(1, 1<<20, nil)
			if halted {
				t.Error("Walk reports a stuck machine halted")
			}
			return err
		},
	}
	for name, drive := range drivers {
		m, _ := joinProgram(t, 1)
		m.CPUs[0].waitOn, m.CPUs[1].waitOn = m.CPUs[1], m.CPUs[0]
		if err := drive(m); err == nil || !strings.Contains(err.Error(), "no CPU can move") {
			t.Errorf("%s: err = %v, want the stuck machine's error", name, err)
		}
	}
}

// TestBlockedJoinIsOneTransition: on the weak machine's walk a joiner that
// reaches the join before its worker halts parks: from its blocked SVC
// until the worker halts, Enabled offers no exec for it, and it executes
// the same instructions on every seed. Main spawns the worker, stores, and
// joins; the worker stores twice and exits 7.
func TestBlockedJoinIsOneTransition(t *testing.T) {
	blocked := 0
	var straight uint64 // main's instructions on seed 0
	for seed := uint64(0); seed < 64; seed++ {
		m, syms := loadProgram(t, 0x1000, func(a *arm.Assembler) {
			a.MovSym(arm.X0, "worker").
				MovImm(arm.X1, 0).
				MovImm(arm.X2, 0x8000).
				MovImm(arm.X8, SysSpawn).
				Svc(0).
				MovImm(arm.X3, 0x9000).
				Str(arm.X3, arm.X3, 0, 8).
				MovImm(arm.X8, SysJoin).
				Label("join").
				Svc(0).
				Hlt()
			a.Label("worker").
				MovImm(arm.X3, 0x9008).
				Str(arm.X3, arm.X3, 0, 8).
				Str(arm.X3, arm.X3, 8, 8).
				MovImm(arm.X8, SysExit).
				MovImm(arm.X0, 7).
				Svc(0)
		})
		m.EnableWeakMode()
		main := m.CPUs[0]
		parked := false
		var ts []Transition
		visit := func(tr Transition, err error) bool {
			if err != nil {
				return false
			}
			if tr == (Transition{Op: OpExec, CPU: 0}) && main.PC == syms["join"] && !m.CPUs[1].Halted {
				parked = true
				blocked++
			}
			if parked && m.CPUs[1].Halted {
				parked = false
			}
			ts = m.Enabled(ts[:0])
			if listed := slices.Contains(ts, Transition{Op: OpExec, CPU: 0}); listed == parked && !main.Halted {
				t.Errorf("seed %d: main parked=%v, yet Enabled lists its exec=%v (%v)", seed, parked, listed, ts)
			}
			return true
		}
		if halted, err := m.Walk(seed, 10_000, visit); !halted || err != nil {
			t.Fatalf("seed %d: walk halted=%v err=%v", seed, halted, err)
		}
		if main.Regs[0] != 7 {
			t.Fatalf("seed %d: join returned %d, want the worker's exit code 7", seed, main.Regs[0])
		}
		if seed == 0 {
			straight = main.Insts
		} else if main.Insts != straight {
			t.Errorf("seed %d: main ran %d instructions, seed 0 %d", seed, main.Insts, straight)
		}
	}
	if blocked == 0 {
		t.Fatal("main never reached the join before the worker exited: the test blocks nothing")
	}
	t.Logf("%d of 64 seeds blocked in the join", blocked)
}

// TestFaultNativeWriteWrappingLength: a write syscall whose length wraps
// ptr+n past 2^64 is an unmapped-access trap, not a slice-bounds panic.
func TestFaultNativeWriteWrappingLength(t *testing.T) {
	for _, n := range []uint64{^uint64(0), ^uint64(0) - 0x7FFF, 1 << 63} {
		m, _ := loadProgram(t, 0x1000, func(a *arm.Assembler) {
			a.MovImm(arm.X8, SysWrite).
				MovImm(arm.X0, 0x8000).
				MovImm(arm.X1, n).
				Svc(0).
				Hlt()
		})
		err := m.Run(m.CPUs[0], 100)
		trap, ok := faults.As(err)
		if !ok || trap.Kind != faults.TrapUnmapped {
			t.Fatalf("n=%#x: err = %v, want a TrapUnmapped", n, err)
		}
		if trap.Addr != 0x8000 || trap.CPU != 0 {
			t.Errorf("n=%#x: trap addr/cpu = %#x/%d, want 0x8000/0", n, trap.Addr, trap.CPU)
		}
		if len(m.Output) != 0 {
			t.Errorf("n=%#x: refused write still produced %d bytes", n, len(m.Output))
		}
	}
}
