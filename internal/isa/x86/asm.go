package x86

import "fmt"

// Assembler builds guest code with symbolic labels. Branch and call targets
// are label names resolved at Assemble time; every label also becomes a
// symbol in the returned symbol table, so function entry points fall out
// for free.
type Assembler struct {
	entries []entry
	labels  map[string]int // label -> entry index it precedes
	err     error
}

type entry struct {
	inst   Inst
	target string // non-empty for label-relative branches/calls
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{labels: make(map[string]int)}
}

// Label defines a label at the current position.
func (a *Assembler) Label(name string) *Assembler {
	if _, dup := a.labels[name]; dup && a.err == nil {
		a.err = fmt.Errorf("x86 asm: duplicate label %q", name)
	}
	a.labels[name] = len(a.entries)
	return a
}

// Raw appends an already-built instruction.
func (a *Assembler) Raw(inst Inst) *Assembler {
	a.entries = append(a.entries, entry{inst: inst})
	return a
}

func (a *Assembler) branch(inst Inst, target string) *Assembler {
	a.entries = append(a.entries, entry{inst: inst, target: target})
	return a
}

// --- Data movement -------------------------------------------------------

// MovRI emits dst = imm.
func (a *Assembler) MovRI(dst Reg, imm int64) *Assembler {
	return a.Raw(Inst{Op: MOVri, Dst: dst, Imm: imm})
}

// MovSym emits dst = address-of(label), resolved at assembly.
func (a *Assembler) MovSym(dst Reg, label string) *Assembler {
	return a.branch(Inst{Op: MOVri, Dst: dst}, label)
}

// MovRR emits dst = src.
func (a *Assembler) MovRR(dst, src Reg) *Assembler {
	return a.Raw(Inst{Op: MOVrr, Dst: dst, Src: src})
}

// Load emits dst = [mem] with the given access size.
func (a *Assembler) Load(dst Reg, mem Mem, size uint8) *Assembler {
	return a.Raw(Inst{Op: LOAD, Dst: dst, Mem: mem, Size: size})
}

// Store emits [mem] = src with the given access size.
func (a *Assembler) Store(mem Mem, src Reg, size uint8) *Assembler {
	return a.Raw(Inst{Op: STORE, Src: src, Mem: mem, Size: size})
}

// StoreI emits [mem] = imm (sign-extended to size).
func (a *Assembler) StoreI(mem Mem, imm int32, size uint8) *Assembler {
	return a.Raw(Inst{Op: STOREi, Mem: mem, Imm: int64(imm), Size: size})
}

// Lea emits dst = &mem.
func (a *Assembler) Lea(dst Reg, mem Mem) *Assembler {
	return a.Raw(Inst{Op: LEA, Dst: dst, Mem: mem})
}

// --- ALU ------------------------------------------------------------------

// AddRR emits dst += src.
func (a *Assembler) AddRR(dst, src Reg) *Assembler { return a.Raw(Inst{Op: ADDrr, Dst: dst, Src: src}) }

// AddRI emits dst += imm.
func (a *Assembler) AddRI(dst Reg, imm int32) *Assembler {
	return a.Raw(Inst{Op: ADDri, Dst: dst, Imm: int64(imm)})
}

// SubRR emits dst -= src.
func (a *Assembler) SubRR(dst, src Reg) *Assembler { return a.Raw(Inst{Op: SUBrr, Dst: dst, Src: src}) }

// SubRI emits dst -= imm.
func (a *Assembler) SubRI(dst Reg, imm int32) *Assembler {
	return a.Raw(Inst{Op: SUBri, Dst: dst, Imm: int64(imm)})
}

// MulRR emits dst *= src.
func (a *Assembler) MulRR(dst, src Reg) *Assembler {
	return a.Raw(Inst{Op: IMULrr, Dst: dst, Src: src})
}

// MulRI emits dst *= imm.
func (a *Assembler) MulRI(dst Reg, imm int32) *Assembler {
	return a.Raw(Inst{Op: IMULri, Dst: dst, Imm: int64(imm)})
}

// UDivRR emits dst /= src (unsigned).
func (a *Assembler) UDivRR(dst, src Reg) *Assembler {
	return a.Raw(Inst{Op: UDIVrr, Dst: dst, Src: src})
}

// URemRR emits dst %= src (unsigned).
func (a *Assembler) URemRR(dst, src Reg) *Assembler {
	return a.Raw(Inst{Op: UREMrr, Dst: dst, Src: src})
}

// AndRR emits dst &= src.
func (a *Assembler) AndRR(dst, src Reg) *Assembler { return a.Raw(Inst{Op: ANDrr, Dst: dst, Src: src}) }

// AndRI emits dst &= imm.
func (a *Assembler) AndRI(dst Reg, imm int32) *Assembler {
	return a.Raw(Inst{Op: ANDri, Dst: dst, Imm: int64(imm)})
}

// OrRR emits dst |= src.
func (a *Assembler) OrRR(dst, src Reg) *Assembler { return a.Raw(Inst{Op: ORrr, Dst: dst, Src: src}) }

// OrRI emits dst |= imm.
func (a *Assembler) OrRI(dst Reg, imm int32) *Assembler {
	return a.Raw(Inst{Op: ORri, Dst: dst, Imm: int64(imm)})
}

// XorRR emits dst ^= src.
func (a *Assembler) XorRR(dst, src Reg) *Assembler { return a.Raw(Inst{Op: XORrr, Dst: dst, Src: src}) }

// XorRI emits dst ^= imm.
func (a *Assembler) XorRI(dst Reg, imm int32) *Assembler {
	return a.Raw(Inst{Op: XORri, Dst: dst, Imm: int64(imm)})
}

// ShlRI emits dst <<= imm.
func (a *Assembler) ShlRI(dst Reg, imm int32) *Assembler {
	return a.Raw(Inst{Op: SHLri, Dst: dst, Imm: int64(imm)})
}

// ShrRI emits dst >>= imm (logical).
func (a *Assembler) ShrRI(dst Reg, imm int32) *Assembler {
	return a.Raw(Inst{Op: SHRri, Dst: dst, Imm: int64(imm)})
}

// SarRI emits dst >>= imm (arithmetic).
func (a *Assembler) SarRI(dst Reg, imm int32) *Assembler {
	return a.Raw(Inst{Op: SARri, Dst: dst, Imm: int64(imm)})
}

// ShlRR emits dst <<= src.
func (a *Assembler) ShlRR(dst, src Reg) *Assembler { return a.Raw(Inst{Op: SHLrr, Dst: dst, Src: src}) }

// ShrRR emits dst >>= src (logical).
func (a *Assembler) ShrRR(dst, src Reg) *Assembler { return a.Raw(Inst{Op: SHRrr, Dst: dst, Src: src}) }

// Neg emits dst = -dst.
func (a *Assembler) Neg(dst Reg) *Assembler { return a.Raw(Inst{Op: NEGr, Dst: dst}) }

// Not emits dst = ^dst.
func (a *Assembler) Not(dst Reg) *Assembler { return a.Raw(Inst{Op: NOTr, Dst: dst}) }

// --- Flags and control flow ----------------------------------------------

// CmpRR compares dst with src, setting flags.
func (a *Assembler) CmpRR(dst, src Reg) *Assembler { return a.Raw(Inst{Op: CMPrr, Dst: dst, Src: src}) }

// CmpRI compares dst with imm, setting flags.
func (a *Assembler) CmpRI(dst Reg, imm int32) *Assembler {
	return a.Raw(Inst{Op: CMPri, Dst: dst, Imm: int64(imm)})
}

// TestRR ANDs dst with src, setting flags.
func (a *Assembler) TestRR(dst, src Reg) *Assembler {
	return a.Raw(Inst{Op: TESTrr, Dst: dst, Src: src})
}

// Jmp emits an unconditional branch to a label.
func (a *Assembler) Jmp(label string) *Assembler {
	return a.branch(Inst{Op: JMP}, label)
}

// Jcc emits a conditional branch to a label.
func (a *Assembler) Jcc(c Cond, label string) *Assembler {
	return a.branch(Inst{Op: JCC, Cond: c}, label)
}

// Call emits a call to a label (function symbol or PLT entry).
func (a *Assembler) Call(label string) *Assembler {
	return a.branch(Inst{Op: CALL}, label)
}

// CallR emits an indirect call through reg.
func (a *Assembler) CallR(reg Reg) *Assembler { return a.Raw(Inst{Op: CALLr, Dst: reg}) }

// Ret emits a return.
func (a *Assembler) Ret() *Assembler { return a.Raw(Inst{Op: RET}) }

// Push emits a stack push of reg.
func (a *Assembler) Push(reg Reg) *Assembler { return a.Raw(Inst{Op: PUSH, Dst: reg}) }

// Pop emits a stack pop into reg.
func (a *Assembler) Pop(reg Reg) *Assembler { return a.Raw(Inst{Op: POP, Dst: reg}) }

// --- Concurrency ----------------------------------------------------------

// MFence emits a full memory fence.
func (a *Assembler) MFence() *Assembler { return a.Raw(Inst{Op: MFENCE}) }

// CmpXchg emits LOCK CMPXCHG [mem], src (expected value in RAX).
func (a *Assembler) CmpXchg(mem Mem, src Reg, size uint8) *Assembler {
	return a.Raw(Inst{Op: CMPXCHG, Mem: mem, Src: src, Size: size})
}

// XAdd emits LOCK XADD [mem], src.
func (a *Assembler) XAdd(mem Mem, src Reg, size uint8) *Assembler {
	return a.Raw(Inst{Op: XADD, Mem: mem, Src: src, Size: size})
}

// Xchg emits an atomic exchange of [mem] and src.
func (a *Assembler) Xchg(mem Mem, src Reg, size uint8) *Assembler {
	return a.Raw(Inst{Op: XCHGmr, Mem: mem, Src: src, Size: size})
}

// Syscall emits a trap to the runtime.
func (a *Assembler) Syscall() *Assembler { return a.Raw(Inst{Op: SYSCALL}) }

// Nop emits a no-op.
func (a *Assembler) Nop() *Assembler { return a.Raw(Inst{Op: NOP}) }

// --- Assembly -------------------------------------------------------------

// Assemble lays the program out at base, resolves label references, and
// returns the encoded bytes plus the symbol table (label → absolute
// address).
func (a *Assembler) Assemble(base uint64) ([]byte, map[string]uint64, error) {
	if a.err != nil {
		return nil, nil, a.err
	}
	// First pass: addresses.
	addr := base
	addrs := make([]uint64, len(a.entries)+1)
	for i, e := range a.entries {
		addrs[i] = addr
		addr += uint64(EncodedLen(e.inst.Op))
	}
	addrs[len(a.entries)] = addr

	syms := make(map[string]uint64, len(a.labels))
	for name, idx := range a.labels {
		syms[name] = addrs[idx]
	}

	// Second pass: fixups and encoding.
	var code []byte
	for i, e := range a.entries {
		inst := e.inst
		if e.target != "" {
			tgt, ok := syms[e.target]
			if !ok {
				return nil, nil, fmt.Errorf("x86 asm: undefined label %q", e.target)
			}
			if inst.Op == MOVri {
				inst.Imm = int64(tgt)
			} else {
				end := addrs[i+1]
				inst.Rel = int32(int64(tgt) - int64(end))
			}
		}
		code = Encode(code, inst)
	}
	return code, syms, nil
}

// Mem0 builds a base-register-only memory operand.
func Mem0(base Reg) Mem { return Mem{Base: base, Index: RegNone, Scale: 1} }

// MemD builds a base+displacement memory operand.
func MemD(base Reg, disp int32) Mem { return Mem{Base: base, Index: RegNone, Scale: 1, Disp: disp} }

// MemIdx builds a base+index*scale+disp memory operand.
func MemIdx(base, index Reg, scale uint8, disp int32) Mem {
	return Mem{Base: base, Index: index, Scale: scale, Disp: disp}
}
