package machine

import "fmt"

// Native syscall ABI for Arm programs built with internal/isa/arm's
// assembler (the "native" series of the benchmarks): syscall number in X8,
// arguments in X0..X2, result in X0 — mirroring the Linux arm64 convention.
//
// Translated guest programs do NOT use these numbers: the DBT runtime in
// internal/core installs its own handler that reads the *guest* register
// file (see core's syscall dispatch).
const (
	// SysExit halts the calling CPU; X0 is the exit code.
	SysExit = 93
	// SysWrite appends Mem[X0:X0+X1] to Machine.Output.
	SysWrite = 64
	// SysSpawn starts a new CPU at PC=X0 with X0=arg(X1) and the stack
	// pointer register (X27 by convention) set to X2. Returns the CPU id.
	SysSpawn = 220
	// SysJoin blocks until CPU X0 halts (the scheduler re-executes the
	// SVC once per rotation until then). Returns the target's exit code.
	SysJoin = 221
)

// NativeSyscall is the Machine.Syscall handler implementing the native ABI.
func NativeSyscall(m *Machine, c *CPU, imm uint16) error {
	switch c.Regs[8] {
	case SysExit:
		c.ExitCode = c.Regs[0]
		c.Halted = true
		return nil
	case SysWrite:
		ptr, n := c.Regs[0], c.Regs[1]
		b, err := m.Read(ptr, n)
		if err != nil {
			return err
		}
		m.Output = append(m.Output, b...)
		c.Regs[0] = n
		return nil
	case SysSpawn:
		nc := m.AddCPU()
		nc.PC = c.Regs[0]
		nc.Regs[0] = c.Regs[1]
		nc.Regs[27] = c.Regs[2] // stack pointer convention
		c.Regs[0] = uint64(nc.ID)
		return nil
	case SysJoin:
		id := c.Regs[0]
		if id >= uint64(len(m.CPUs)) {
			return fmt.Errorf("join syscall: no cpu %d", id)
		}
		t := m.CPUs[id]
		if !t.Halted {
			// Rewind to the SVC so the scheduler retries. A blocked join
			// models a futex wait: refund the trap cost so the joiner
			// does not accrue simulated time while parked, and give up
			// the rest of the quantum.
			c.PC -= 4
			c.Cycles -= m.Cost.Svc
			m.Yield()
			return nil
		}
		c.Regs[0] = t.ExitCode
		return nil
	default:
		return fmt.Errorf("native syscall: unknown number %d (svc #%d)", c.Regs[8], imm)
	}
}
