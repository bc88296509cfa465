package machine

import (
	"testing"
	"time"

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

// spinningJoin is the join the machine had before Yield: rewind and refund,
// then burn the rest of the quantum retrying. The tests run it beside
// NativeSyscall to show that yielding changes nothing but the retry count.
func spinningJoin(m *Machine, c *CPU, imm uint16) error {
	if c.Regs[8] == SysJoin && !m.CPUs[c.Regs[0]].Halted {
		c.PC -= 4
		c.Cycles -= m.Cost.Svc
		return nil
	}
	return NativeSyscall(m, c, imm)
}

// TestBlockedJoinYieldsQuantum: a blocked join costs the joiner one retry
// per rotation, and nothing else moves — the number of scheduler quanta,
// every CPU's cycles, exit codes and MaxCycles equal the spinning join's.
func TestBlockedJoinYieldsQuantum(t *testing.T) {
	const iters, quantum = 5000, 64
	t.Run("round-robin", func(t *testing.T) {
		run := func(sys func(*Machine, *CPU, uint16) error) (*Machine, uint64) {
			m, _ := joinProgram(t, iters)
			m.Syscall = sys
			m.SetObs(obs.NewScope("test"))
			if err := m.RunAll(quantum, 10_000_000); err != nil {
				t.Fatal(err)
			}
			return m, m.quanta.Load()
		}
		spin, spinQuanta := run(spinningJoin)
		yield, quanta := run(NativeSyscall)

		if quanta != spinQuanta {
			t.Errorf("quantum count changed: %d quanta, spinning join took %d", quanta, spinQuanta)
		}
		for i := range spin.CPUs {
			s, y := spin.CPUs[i], yield.CPUs[i]
			if y.Cycles != s.Cycles || y.ExitCode != s.ExitCode || y.Regs != s.Regs {
				t.Errorf("cpu%d: cycles/exit/regs = %d/%d/%v, spinning join gave %d/%d/%v",
					i, y.Cycles, y.ExitCode, y.Regs, s.Cycles, s.ExitCode, s.Regs)
			}
		}
		if yield.MaxCycles() != spin.MaxCycles() {
			t.Errorf("MaxCycles = %d, spinning join gave %d", yield.MaxCycles(), spin.MaxCycles())
		}
		if got := yield.CPUs[0].Regs[0]; got != 7 {
			t.Errorf("join returned %d, want the worker's exit code 7", got)
		}
		if yield.CPUs[1].Insts != spin.CPUs[1].Insts {
			t.Errorf("worker executed %d instructions, spinning join's %d", yield.CPUs[1].Insts, spin.CPUs[1].Insts)
		}
		// Two set-up instructions, the successful SVC and the HLT, plus at
		// most one blocked retry per quantum — the ones that yielded.
		if bound := 4 + quanta; yield.CPUs[0].Insts > bound {
			t.Errorf("joiner executed %d instructions over %d quanta, want ≤ %d", yield.CPUs[0].Insts, quanta, bound)
		}
		if retries := yield.CPUs[0].Insts - 4; yield.yields.Load() != retries {
			t.Errorf("%d quanta ended by a yield, want one per blocked retry (%d)", yield.yields.Load(), retries)
		}
		if spin.CPUs[0].Insts < 10*yield.CPUs[0].Insts {
			t.Errorf("spinning joiner executed only %d instructions against %d: the program no longer blocks long enough to test anything",
				spin.CPUs[0].Insts, yield.CPUs[0].Insts)
		}
	})
}

// TestBlockedJoinWatchdogs: the budgets that used to fire on a joiner's
// spins still bound a join that can never complete.
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
		if n := m.CPUs[0].Insts; n > 2+10_000/64+1 {
			t.Errorf("joiner executed %d instructions: it is spinning again", n)
		}
	})
	t.Run("deadline bounds a self-join", func(t *testing.T) {
		m, syms := joinProgram(t, 1)
		c := m.CPUs[0]
		c.PC, c.Regs[8], c.Regs[0] = syms["join"], SysJoin, 0
		m.Deadline = 20 * time.Millisecond
		start := time.Now()
		err := m.RunAll(64, 1<<40)
		if !faults.IsKind(err, faults.TrapBudget) {
			t.Fatalf("err = %v, want a TrapBudget from the deadline", err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("self-join ran %v past a 20ms deadline", d)
		}
	})
}

// TestBlockedJoinIsOneTransition: on the weak machine's walk a blocked
// join ends its exec transition, so a joiner that reaches the join before
// its worker halts costs one SVC per retry instead of spinning into the
// invisible-instruction bound. Main spawns the worker, stores, and joins;
// the worker stores twice and exits 7.
func TestBlockedJoinIsOneTransition(t *testing.T) {
	blocked := 0
	var straight uint64 // main's instructions less its blocked retries
	for seed := uint64(0); seed < 64; seed++ {
		m, _ := loadProgram(t, 0x1000, func(a *arm.Assembler) {
			a.MovSym(arm.X0, "worker").
				MovImm(arm.X1, 0).
				MovImm(arm.X2, 0x8000).
				MovImm(arm.X8, SysSpawn).
				Svc(0).
				MovImm(arm.X3, 0x9000).
				Str(arm.X3, arm.X3, 0, 8).
				MovImm(arm.X8, SysJoin).
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
		m.SetObs(obs.NewScope("test"))
		if halted, err := m.Walk(seed, 10_000, nil); !halted || err != nil {
			t.Fatalf("seed %d: walk halted=%v err=%v", seed, halted, err)
		}
		main, retries := m.CPUs[0], m.yields.Load()
		if main.Regs[0] != 7 {
			t.Fatalf("seed %d: join returned %d, want the worker's exit code 7", seed, main.Regs[0])
		}
		if retries > 0 {
			blocked++
		}
		if seed == 0 {
			straight = main.Insts - retries
		} else if main.Insts-retries != straight {
			t.Errorf("seed %d: main ran %d instructions with %d blocked joins, want %d + one per block",
				seed, main.Insts, retries, straight)
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
