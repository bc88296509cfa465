package machine

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/isa/arm"
)

// exec executes a decoded instruction on c, charging its cost and advancing
// the PC.
func (m *Machine) exec(c *CPU, inst *arm.Inst) error {
	c.Insts++
	c.Cycles += m.cost.op[inst.Op]
	next := c.PC + arm.InstBytes

	switch inst.Op {
	case arm.NOP:
	case arm.HLT:
		if m.weak != nil {
			if err := m.weakFlush(c); err != nil {
				return cpuErr(c, err)
			}
		}
		c.Halted = true
		return nil

	case arm.MOVZ:
		c.setReg(inst.Rd, uint64(inst.Imm)<<(16*inst.Shift))
	case arm.MOVK:
		mask := uint64(0xFFFF) << (16 * inst.Shift)
		v := c.reg(inst.Rd)&^mask | uint64(inst.Imm)<<(16*inst.Shift)
		c.setReg(inst.Rd, v)

	case arm.ADD:
		c.setReg(inst.Rd, c.reg(inst.Rn)+c.reg(inst.Rm))
	case arm.SUB:
		c.setReg(inst.Rd, c.reg(inst.Rn)-c.reg(inst.Rm))
	case arm.MUL:
		c.setReg(inst.Rd, c.reg(inst.Rn)*c.reg(inst.Rm))
	case arm.UDIV:
		d := c.reg(inst.Rm)
		if d == 0 {
			c.setReg(inst.Rd, 0) // Arm semantics: division by zero yields 0
		} else {
			c.setReg(inst.Rd, c.reg(inst.Rn)/d)
		}
	case arm.UREM:
		d := c.reg(inst.Rm)
		if d == 0 {
			c.setReg(inst.Rd, c.reg(inst.Rn))
		} else {
			c.setReg(inst.Rd, c.reg(inst.Rn)%d)
		}
	case arm.AND:
		c.setReg(inst.Rd, c.reg(inst.Rn)&c.reg(inst.Rm))
	case arm.ORR:
		c.setReg(inst.Rd, c.reg(inst.Rn)|c.reg(inst.Rm))
	case arm.EOR:
		c.setReg(inst.Rd, c.reg(inst.Rn)^c.reg(inst.Rm))
	case arm.LSL:
		c.setReg(inst.Rd, shiftL(c.reg(inst.Rn), c.reg(inst.Rm)))
	case arm.LSR:
		c.setReg(inst.Rd, shiftR(c.reg(inst.Rn), c.reg(inst.Rm)))
	case arm.ASR:
		c.setReg(inst.Rd, shiftAR(c.reg(inst.Rn), c.reg(inst.Rm)))
	case arm.SUBS:
		c.setReg(inst.Rd, c.setFlagsSub(c.reg(inst.Rn), c.reg(inst.Rm)))
	case arm.MVN:
		c.setReg(inst.Rd, ^c.reg(inst.Rn))
	case arm.NEG:
		c.setReg(inst.Rd, -c.reg(inst.Rn))

	case arm.ADDI:
		c.setReg(inst.Rd, c.reg(inst.Rn)+uint64(inst.Imm))
	case arm.SUBI:
		c.setReg(inst.Rd, c.reg(inst.Rn)-uint64(inst.Imm))
	case arm.ANDI:
		c.setReg(inst.Rd, c.reg(inst.Rn)&uint64(inst.Imm))
	case arm.ORRI:
		c.setReg(inst.Rd, c.reg(inst.Rn)|uint64(inst.Imm))
	case arm.EORI:
		c.setReg(inst.Rd, c.reg(inst.Rn)^uint64(inst.Imm))
	case arm.LSLI:
		c.setReg(inst.Rd, shiftL(c.reg(inst.Rn), uint64(inst.Imm)))
	case arm.LSRI:
		c.setReg(inst.Rd, shiftR(c.reg(inst.Rn), uint64(inst.Imm)))
	case arm.ASRI:
		c.setReg(inst.Rd, shiftAR(c.reg(inst.Rn), uint64(inst.Imm)))
	case arm.SUBSI:
		c.setReg(inst.Rd, c.setFlagsSub(c.reg(inst.Rn), uint64(inst.Imm)))

	case arm.CSET:
		if c.cond(inst.Cond) {
			c.setReg(inst.Rd, 1)
		} else {
			c.setReg(inst.Rd, 0)
		}

	case arm.LDR:
		addr := c.reg(inst.Rn) + uint64(inst.Imm)
		var v uint64
		var err error
		if m.weak != nil {
			v, err = m.weakLoad(c, addr, inst.Size)
		} else {
			v, err = m.ReadMem(addr, inst.Size)
		}
		if err != nil {
			return cpuErr(c, err)
		}
		c.setReg(inst.Rd, v)
	case arm.STR:
		addr := c.reg(inst.Rn) + uint64(inst.Imm)
		var err error
		if m.weak != nil {
			err = m.weakStore(c, addr, inst.Size, c.reg(inst.Rd))
		} else {
			err = m.WriteMem(addr, inst.Size, c.reg(inst.Rd))
		}
		if err != nil {
			return cpuErr(c, err)
		}

	case arm.LDAR, arm.LDAPR:
		var v uint64
		var err error
		if m.weak != nil {
			v, err = m.weakLoad(c, c.reg(inst.Rn), inst.Size)
		} else {
			v, err = m.ReadMem(c.reg(inst.Rn), inst.Size)
		}
		if err != nil {
			return cpuErr(c, err)
		}
		c.setReg(inst.Rd, v)
	case arm.STLR:
		// Release: order all prior stores before this one.
		if m.weak != nil {
			if err := m.weakFlush(c); err != nil {
				return cpuErr(c, err)
			}
		}
		if err := m.WriteMem(c.reg(inst.Rn), inst.Size, c.reg(inst.Rd)); err != nil {
			return cpuErr(c, err)
		}

	case arm.LDXR, arm.LDAXR:
		if m.weak != nil {
			if err := m.weakFlush(c); err != nil {
				return cpuErr(c, err)
			}
		}
		addr := c.reg(inst.Rn)
		if err := checkAtomicAlign(addr, inst.Size); err != nil {
			return cpuErr(c, err)
		}
		v, err := m.ReadMem(addr, inst.Size)
		if err != nil {
			return cpuErr(c, err)
		}
		c.setReg(inst.Rd, v)
		m.arm(c, addr, inst.Size)
	case arm.STXR, arm.STLXR:
		addr := c.reg(inst.Rn)
		if err := checkAtomicAlign(addr, inst.Size); err != nil {
			return cpuErr(c, err)
		}
		if c.monValid && c.monAddr == addr && c.monSize == inst.Size {
			if err := m.WriteMem(addr, inst.Size, c.reg(inst.Rm)); err != nil {
				return cpuErr(c, err)
			}
			c.setReg(inst.Rd, 0) // success
		} else {
			c.setReg(inst.Rd, 1) // failure
		}
		m.disarm(c)

	case arm.CAS, arm.CASAL:
		if m.weak != nil {
			if err := m.weakFlush(c); err != nil {
				return cpuErr(c, err)
			}
		}
		addr := c.reg(inst.Rn)
		if err := checkAtomicAlign(addr, inst.Size); err != nil {
			return cpuErr(c, err)
		}
		c.Cycles += m.atomicTouch(c, addr)
		old, err := m.ReadMem(addr, inst.Size)
		if err != nil {
			return cpuErr(c, err)
		}
		if old == truncate(c.reg(inst.Rd), inst.Size) {
			if err := m.WriteMem(addr, inst.Size, c.reg(inst.Rm)); err != nil {
				return cpuErr(c, err)
			}
		}
		c.setReg(inst.Rd, old)
	case arm.LDADDAL:
		if m.weak != nil {
			if err := m.weakFlush(c); err != nil {
				return cpuErr(c, err)
			}
		}
		addr := c.reg(inst.Rn)
		if err := checkAtomicAlign(addr, inst.Size); err != nil {
			return cpuErr(c, err)
		}
		c.Cycles += m.atomicTouch(c, addr)
		old, err := m.ReadMem(addr, inst.Size)
		if err != nil {
			return cpuErr(c, err)
		}
		if err := m.WriteMem(addr, inst.Size, old+c.reg(inst.Rd)); err != nil {
			return cpuErr(c, err)
		}
		c.setReg(inst.Rm, old)
	case arm.SWPAL:
		if m.weak != nil {
			if err := m.weakFlush(c); err != nil {
				return cpuErr(c, err)
			}
		}
		addr := c.reg(inst.Rn)
		if err := checkAtomicAlign(addr, inst.Size); err != nil {
			return cpuErr(c, err)
		}
		c.Cycles += m.atomicTouch(c, addr)
		old, err := m.ReadMem(addr, inst.Size)
		if err != nil {
			return cpuErr(c, err)
		}
		if err := m.WriteMem(addr, inst.Size, c.reg(inst.Rd)); err != nil {
			return cpuErr(c, err)
		}
		c.setReg(inst.Rm, old)

	case arm.DMB:
		// The table charges 0 for DMB; the flavour-specific cost is here.
		if int(inst.Barrier) < len(m.DMBExec) {
			c.Cycles += m.cost.dmb[inst.Barrier]
			m.DMBExec[inst.Barrier]++
		} else {
			c.Cycles += m.cost.dmb[arm.BarrierFull]
		}
		if m.weak != nil {
			if err := m.weakBarrier(c, inst.Barrier); err != nil {
				return cpuErr(c, err)
			}
		}

	case arm.B:
		next = branchTarget(c.PC, inst.Off)
	case arm.BL:
		c.setReg(arm.LR, c.PC+arm.InstBytes)
		next = branchTarget(c.PC, inst.Off)
	case arm.BCOND:
		if c.cond(inst.Cond) {
			next = branchTarget(c.PC, inst.Off)
		}
	case arm.CBZ:
		if c.reg(inst.Rd) == 0 {
			next = branchTarget(c.PC, inst.Off)
		}
	case arm.CBNZ:
		if c.reg(inst.Rd) != 0 {
			next = branchTarget(c.PC, inst.Off)
		}
	case arm.BR:
		next = c.reg(inst.Rn)
	case arm.BLR:
		target := c.reg(inst.Rn)
		c.setReg(arm.LR, c.PC+arm.InstBytes)
		if m.OnBLR != nil {
			handled, err := m.OnBLR(m, c, target)
			if err != nil {
				return cpuErr(c, err)
			}
			if handled {
				// Continue at the link address; the hook may have
				// redirected the PC itself (e.g. to halt).
				if c.Halted {
					return nil
				}
				next = c.reg(arm.LR)
				break
			}
		}
		next = target
	case arm.RET:
		next = c.reg(arm.LR)

	case arm.SVC:
		c.PC = next
		if m.Syscall == nil {
			return fmt.Errorf("cpu%d: svc #%d with no syscall handler", c.ID, inst.Imm)
		}
		if err := m.Syscall(m, c, uint16(inst.Imm)); err != nil {
			return cpuErr(c, err)
		}
		return nil

	default:
		return cpuErr(c, faults.New(faults.TrapDecode, "unimplemented op %v", inst.Op))
	}

	c.PC = next
	return nil
}

func cpuErr(c *CPU, err error) error {
	if t, ok := faults.As(err); ok {
		t.WithCPU(c.ID).WithHostPC(c.PC)
	}
	return fmt.Errorf("cpu%d at pc=%#x: %w", c.ID, c.PC, err)
}

// checkAtomicAlign faults exclusives and single-copy atomics on addresses
// that are not naturally aligned — Arm raises an alignment fault for
// these regardless of SCTLR configuration.
func checkAtomicAlign(addr uint64, size uint8) error {
	if size > 1 && addr%uint64(size) != 0 {
		t := faults.New(faults.TrapMisaligned,
			"atomic access [%#x,+%d) not naturally aligned", addr, size)
		t.Addr = addr
		return t
	}
	return nil
}

func branchTarget(pc uint64, off int32) uint64 {
	return uint64(int64(pc) + int64(off)*arm.InstBytes)
}

func shiftL(v, by uint64) uint64 {
	if by >= 64 {
		return 0
	}
	return v << by
}

func shiftR(v, by uint64) uint64 {
	if by >= 64 {
		return 0
	}
	return v >> by
}

// shiftAR saturates like the logical shifts: counts ≥ 64 yield the sign
// fill, matching the IR semantics (foldALU) and the guest ISA spec.
func shiftAR(v, by uint64) uint64 {
	if by >= 64 {
		return uint64(int64(v) >> 63)
	}
	return uint64(int64(v) >> by)
}

func truncate(v uint64, size uint8) uint64 {
	if size >= 8 {
		return v
	}
	return v & (1<<(8*size) - 1)
}
