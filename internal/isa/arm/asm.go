package arm

import "fmt"

// Assembler builds host code with symbolic labels, used both by tests and
// by the native-workload builders (the "native" series of Figure 12 runs
// Arm code produced here directly, without translation).
type Assembler struct {
	insts   []Inst
	targets []string // parallel: label target for branch fixup ("" if none)
	labels  map[string]int
	err     error
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{labels: make(map[string]int)}
}

// Label defines a label at the current position.
func (a *Assembler) Label(name string) *Assembler {
	if _, dup := a.labels[name]; dup && a.err == nil {
		a.err = fmt.Errorf("arm asm: duplicate label %q", name)
	}
	a.labels[name] = len(a.insts)
	return a
}

// Raw appends an instruction without label fixup.
func (a *Assembler) Raw(inst Inst) *Assembler {
	a.insts = append(a.insts, inst)
	a.targets = append(a.targets, "")
	return a
}

func (a *Assembler) branch(inst Inst, label string) *Assembler {
	a.insts = append(a.insts, inst)
	a.targets = append(a.targets, label)
	return a
}

// MovImm loads an arbitrary 64-bit constant using MOVZ/MOVK sequences.
func (a *Assembler) MovImm(rd Reg, v uint64) *Assembler {
	a.Raw(Inst{Op: MOVZ, Rd: rd, Imm: int64(v & 0xFFFF), Shift: 0})
	for s := uint8(1); s <= 3; s++ {
		chunk := v >> (16 * s) & 0xFFFF
		if chunk != 0 {
			a.Raw(Inst{Op: MOVK, Rd: rd, Imm: int64(chunk), Shift: s})
		}
	}
	return a
}

// MovSym loads the address of a label into rd (MOVZ+MOVK pair; symbols
// must fit in 32 bits, which all simulated addresses do).
func (a *Assembler) MovSym(rd Reg, label string) *Assembler {
	a.branch(Inst{Op: MOVZ, Rd: rd}, label)
	return a.Raw(Inst{Op: MOVK, Rd: rd, Shift: 1}) // patched together with the MOVZ
}

// Mov emits rd = rn (as ORR rd, xzr, rn).
func (a *Assembler) Mov(rd, rn Reg) *Assembler {
	return a.Raw(Inst{Op: ORR, Rd: rd, Rn: XZR, Rm: rn})
}

// Add emits rd = rn + rm.
func (a *Assembler) Add(rd, rn, rm Reg) *Assembler {
	return a.Raw(Inst{Op: ADD, Rd: rd, Rn: rn, Rm: rm})
}

// Sub emits rd = rn - rm.
func (a *Assembler) Sub(rd, rn, rm Reg) *Assembler {
	return a.Raw(Inst{Op: SUB, Rd: rd, Rn: rn, Rm: rm})
}

// Mul emits rd = rn * rm.
func (a *Assembler) Mul(rd, rn, rm Reg) *Assembler {
	return a.Raw(Inst{Op: MUL, Rd: rd, Rn: rn, Rm: rm})
}

// UDiv emits rd = rn / rm (unsigned; 0 on division by zero, as on Arm).
func (a *Assembler) UDiv(rd, rn, rm Reg) *Assembler {
	return a.Raw(Inst{Op: UDIV, Rd: rd, Rn: rn, Rm: rm})
}

// URem emits rd = rn % rm (unsigned).
func (a *Assembler) URem(rd, rn, rm Reg) *Assembler {
	return a.Raw(Inst{Op: UREM, Rd: rd, Rn: rn, Rm: rm})
}

// And emits rd = rn & rm.
func (a *Assembler) And(rd, rn, rm Reg) *Assembler {
	return a.Raw(Inst{Op: AND, Rd: rd, Rn: rn, Rm: rm})
}

// Eor emits rd = rn ^ rm.
func (a *Assembler) Eor(rd, rn, rm Reg) *Assembler {
	return a.Raw(Inst{Op: EOR, Rd: rd, Rn: rn, Rm: rm})
}

// AddI emits rd = rn + imm12.
func (a *Assembler) AddI(rd, rn Reg, imm int64) *Assembler {
	return a.Raw(Inst{Op: ADDI, Rd: rd, Rn: rn, Imm: imm})
}

// SubI emits rd = rn - imm12.
func (a *Assembler) SubI(rd, rn Reg, imm int64) *Assembler {
	return a.Raw(Inst{Op: SUBI, Rd: rd, Rn: rn, Imm: imm})
}

// LslI emits rd = rn << imm.
func (a *Assembler) LslI(rd, rn Reg, imm int64) *Assembler {
	return a.Raw(Inst{Op: LSLI, Rd: rd, Rn: rn, Imm: imm})
}

// LsrI emits rd = rn >> imm (logical).
func (a *Assembler) LsrI(rd, rn Reg, imm int64) *Assembler {
	return a.Raw(Inst{Op: LSRI, Rd: rd, Rn: rn, Imm: imm})
}

// AndI emits rd = rn & imm12.
func (a *Assembler) AndI(rd, rn Reg, imm int64) *Assembler {
	return a.Raw(Inst{Op: ANDI, Rd: rd, Rn: rn, Imm: imm})
}

// Cmp emits SUBS xzr, rn, rm.
func (a *Assembler) Cmp(rn, rm Reg) *Assembler {
	return a.Raw(Inst{Op: SUBS, Rd: XZR, Rn: rn, Rm: rm})
}

// CmpI emits SUBS xzr, rn, #imm12.
func (a *Assembler) CmpI(rn Reg, imm int64) *Assembler {
	return a.Raw(Inst{Op: SUBSI, Rd: XZR, Rn: rn, Imm: imm})
}

// Cset emits rd = cond ? 1 : 0.
func (a *Assembler) Cset(rd Reg, c Cond) *Assembler {
	return a.Raw(Inst{Op: CSET, Rd: rd, Cond: c})
}

// Ldr emits rt = [rn + off] with the given size.
func (a *Assembler) Ldr(rt, rn Reg, off int64, size uint8) *Assembler {
	return a.Raw(Inst{Op: LDR, Rd: rt, Rn: rn, Imm: off, Size: size})
}

// Str emits [rn + off] = rt with the given size.
func (a *Assembler) Str(rt, rn Reg, off int64, size uint8) *Assembler {
	return a.Raw(Inst{Op: STR, Rd: rt, Rn: rn, Imm: off, Size: size})
}

// Ldar emits a 64-bit acquire load.
func (a *Assembler) Ldar(rt, rn Reg) *Assembler {
	return a.Raw(Inst{Op: LDAR, Rd: rt, Rn: rn, Size: 8})
}

// Stlr emits a 64-bit release store.
func (a *Assembler) Stlr(rt, rn Reg) *Assembler {
	return a.Raw(Inst{Op: STLR, Rd: rt, Rn: rn, Size: 8})
}

// Casal emits the acquire-release compare-and-swap (RMW1^AL).
func (a *Assembler) Casal(rs, rt, rn Reg, size uint8) *Assembler {
	return a.Raw(Inst{Op: CASAL, Rd: rs, Rm: rt, Rn: rn, Size: size})
}

// Dmb emits a barrier.
func (a *Assembler) Dmb(b Barrier) *Assembler {
	return a.Raw(Inst{Op: DMB, Barrier: b})
}

// BLabel emits an unconditional branch to a label.
func (a *Assembler) BLabel(label string) *Assembler {
	return a.branch(Inst{Op: B}, label)
}

// BCondLabel emits a conditional branch to a label.
func (a *Assembler) BCondLabel(c Cond, label string) *Assembler {
	return a.branch(Inst{Op: BCOND, Cond: c}, label)
}

// CbzLabel / CbnzLabel emit compare-with-zero branches.
func (a *Assembler) CbzLabel(rt Reg, label string) *Assembler {
	return a.branch(Inst{Op: CBZ, Rd: rt}, label)
}

// CbnzLabel emits a compare-nonzero-and-branch.
func (a *Assembler) CbnzLabel(rt Reg, label string) *Assembler {
	return a.branch(Inst{Op: CBNZ, Rd: rt}, label)
}

// BlLabel emits a call to a label.
func (a *Assembler) BlLabel(label string) *Assembler {
	return a.branch(Inst{Op: BL}, label)
}

// Ret emits a return through X30.
func (a *Assembler) Ret() *Assembler { return a.Raw(Inst{Op: RET}) }

// Svc emits a runtime trap.
func (a *Assembler) Svc(imm int64) *Assembler { return a.Raw(Inst{Op: SVC, Imm: imm}) }

// Hlt stops the CPU.
func (a *Assembler) Hlt() *Assembler { return a.Raw(Inst{Op: HLT}) }

// Nop emits a no-op.
func (a *Assembler) Nop() *Assembler { return a.Raw(Inst{Op: NOP}) }

// Assemble lays the program out at base, resolves labels, and returns the
// encoded bytes and the symbol table.
func (a *Assembler) Assemble(base uint64) ([]byte, map[string]uint64, error) {
	if a.err != nil {
		return nil, nil, a.err
	}
	syms := make(map[string]uint64, len(a.labels))
	for name, idx := range a.labels {
		syms[name] = base + uint64(idx*InstBytes)
	}
	var code []byte
	for i, inst := range a.insts {
		if tgt := a.targets[i]; tgt != "" {
			addr, ok := syms[tgt]
			if !ok {
				return nil, nil, fmt.Errorf("arm asm: undefined label %q", tgt)
			}
			if inst.Op == MOVZ {
				// MovSym pair: this MOVZ takes the low 16 bits; the
				// following MOVK (shift 1) takes bits 16..31.
				if addr>>32 != 0 {
					return nil, nil, fmt.Errorf("arm asm: symbol %q address %#x exceeds 32 bits", tgt, addr)
				}
				inst.Imm = int64(addr & 0xFFFF)
				a.insts[i+1].Imm = int64(addr >> 16 & 0xFFFF)
			} else {
				inst.Off = int32((int64(addr) - int64(base+uint64(i*InstBytes))) / InstBytes)
			}
		}
		var err error
		code, err = EncodeTo(code, inst)
		if err != nil {
			return nil, nil, fmt.Errorf("arm asm: inst %d (%v): %w", i, inst, err)
		}
	}
	return code, syms, nil
}
