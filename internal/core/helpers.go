package core

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/faults"
	"repro/internal/frontend"
	"repro/internal/isa/x86"
	"repro/internal/machine"
	"repro/internal/tcg"
)

// Guest syscall numbers (in guest RAX; arguments in RDI, RSI, RDX). The
// numbers mirror the native ABI in internal/machine for convenience.
const (
	GuestSysExit  = 93
	GuestSysWrite = 64
	GuestSysSpawn = 220
	GuestSysJoin  = 221
	GuestSysAlloc = 222
)

// handleBLR intercepts helper calls emitted by the backend (BLR into the
// HelperBase region). Helper arguments arrive in X18/X28 per the backend
// convention; results return in X18. Guest registers are read and written
// directly through their host-register mapping.
func (rt *Runtime) handleBLR(m *machine.Machine, c *machine.CPU, target uint64) (bool, error) {
	h, size, ok := backend.HelperOf(target)
	if !ok {
		return false, nil
	}
	rt.met.helperCalls.Inc()

	switch h {
	case tcg.HelperCmpXchg, tcg.HelperXAdd, tcg.HelperXchg:
		old, err := rt.atomicHelper(c, h, size, c.Regs[18], c.Regs[28])
		if err != nil {
			return true, err
		}
		c.Regs[18] = old
		return true, nil

	case frontend.HelperSyscall:
		rt.met.syscalls.Inc()
		return true, rt.guestSyscall(m, c)
	}
	return false, faults.New(faults.TrapHostCall,
		"core: unknown helper %d (target %#x)", h, target).WithCPU(c.ID)
}

// atomicHelper is the one body of the QEMU-style RMW helpers, shared by the
// compiled path (handleBLR) and the interpreter tier (interpHelper): read
// *addr, store the helper's new value, return the old one. The helper body
// (GCC __atomic builtin) performs a casal on the host (§3.1, GCC ≥ 10
// behaviour). CmpXchg stores val only when old equals guest RAX; XAdd
// stores old+val; Xchg stores val.
func (rt *Runtime) atomicHelper(c *machine.CPU, h tcg.Helper, size uint8, addr, val uint64) (old uint64, err error) {
	m := rt.M
	if err := rt.drainFor(c); err != nil {
		return 0, err
	}
	c.Cycles += helperBodyCost
	m.ChargeAtomic(c, addr)
	old, err = m.ReadMem(addr, size)
	if err != nil {
		return 0, err
	}
	switch h {
	case tcg.HelperCmpXchg:
		if old != truncateTo(*guestReg(c, x86.RAX), size) {
			return old, nil
		}
	case tcg.HelperXAdd:
		val += old
	}
	return old, m.WriteMem(addr, size, val)
}

// guestSyscall implements the guest OS interface. User-mode emulation
// executes syscalls natively on the host (§2.2); here "the host" is the
// simulated machine's runtime.
func (rt *Runtime) guestSyscall(m *machine.Machine, c *machine.CPU) error {
	nr := *guestReg(c, x86.RAX)
	a0 := *guestReg(c, x86.RDI)
	a1 := *guestReg(c, x86.RSI)
	a2 := *guestReg(c, x86.RDX)

	switch nr {
	case GuestSysExit:
		// Thread exit synchronizes (a joiner must observe the thread's
		// writes), so drain any weak-mode store buffer.
		if err := m.FlushWeak(c); err != nil {
			return err
		}
		c.ExitCode = a0
		c.Halted = true
		return nil

	case GuestSysWrite:
		if err := rt.drainFor(c); err != nil {
			return err
		}
		b, err := m.Read(a0, a1)
		if err != nil {
			return fmt.Errorf("guest write: %w", err)
		}
		m.Output = append(m.Output, b...)
		*guestReg(c, x86.RAX) = a1
		return nil

	case GuestSysSpawn:
		// a0 = guest function, a1 = argument (→ RDI); the runtime
		// allocates the stack itself.
		_ = a2
		sp, err := rt.newStack()
		if err != nil {
			return err
		}
		nc := m.AddCPU()
		*guestReg(nc, x86.RDI) = a1
		*guestReg(nc, x86.RSP) = sp
		if err := rt.startThread(nc, a0); err != nil {
			return err
		}
		*guestReg(c, x86.RAX) = uint64(nc.ID)
		return nil

	case GuestSysJoin:
		id := a0
		if id >= uint64(len(m.CPUs)) {
			return fmt.Errorf("guest join: no cpu %d", id)
		}
		t := m.CPUs[id]
		if !t.Halted {
			// A futex wait: the machine runs the helper call (or the
			// interpreter tier's stub) again once t halts.
			if err := m.Wait(c, t); err != nil {
				return fmt.Errorf("guest join: %w", err)
			}
			return nil
		}
		*guestReg(c, x86.RAX) = t.ExitCode
		return nil

	case GuestSysAlloc:
		// A size near 2^64 (a negative guest value) wraps either the
		// 16-byte round-up (n < a0) or heapCur+n, so compare n against the
		// remaining room instead of forming the sum.
		n := (a0 + 0xF) &^ 0xF
		if n < a0 || n >= rt.heapRoom() {
			return fmt.Errorf("guest alloc: heap exhausted")
		}
		*guestReg(c, x86.RAX) = rt.heapCur
		rt.heapCur += n
		return nil
	}
	return fmt.Errorf("guest syscall: unknown number %d", nr)
}

// drainFor drains c's weak-mode store buffer before a runtime service —
// a host call, an RMW helper, a write syscall, the interpreter tier —
// reads or writes guest memory on c's behalf. Services access memory
// directly, not through c's buffer: without the drain a host call reads a
// stale return address, a write syscall prints what the other CPUs see,
// and a helper RMW's store is later overwritten by an older buffered
// store to the same address. It is the rule exec applies before CASAL; on
// a strong machine it does nothing.
func (rt *Runtime) drainFor(c *machine.CPU) error { return rt.M.FlushWeak(c) }

func truncateTo(v uint64, size uint8) uint64 {
	if size >= 8 {
		return v
	}
	return v & (1<<(8*size) - 1)
}
