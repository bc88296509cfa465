// Package tcg implements Risotto-Go's analogue of QEMU's Tiny Code
// Generator intermediate representation: an assembly-like op list over
// typed temporaries, with the concurrency primitives formalized in
// internal/models/tcgmm (plain ld/st, the directional fence family, and
// SC-semantics atomic RMWs), plus the optimizer passes whose correctness
// §5.4 of the paper establishes — constant propagation and folding (which
// subsumes false-dependency elimination), dead code elimination, the
// fence-aware redundant-access eliminations of Figure 10, and fence
// merging.
package tcg

import (
	"fmt"
	"strings"

	"repro/internal/memmodel"
)

// Temp identifies an IR temporary. Temps below NumGlobals are globals
// carrying guest state across translation blocks; the rest are
// block-local.
type Temp int32

// Global temporaries: guest GPRs plus the two comparison-flag slots the
// frontend uses to materialize x86 flags.
const (
	// TempGuestReg0 is the first guest GPR; guest register i is Temp(i).
	TempGuestReg0 Temp = 0
	// TempCCDst and TempCCSrc hold the operands of the most recent
	// flag-setting guest instruction.
	TempCCDst Temp = 16
	TempCCSrc Temp = 17
	// NumGlobals is the number of global temps.
	NumGlobals = 18
)

// Cond is an IR comparison condition.
type Cond uint8

// IR conditions; LTU/LEU/GTU/GEU are unsigned.
const (
	CondEQ Cond = iota
	CondNE
	CondLT
	CondLE
	CondGT
	CondGE
	CondLTU
	CondLEU
	CondGTU
	CondGEU
)

var condNames = []string{"eq", "ne", "lt", "le", "gt", "ge", "ltu", "leu", "gtu", "geu"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cc?%d", uint8(c))
}

// Eval applies the condition to two values.
func (c Cond) Eval(a, b uint64) bool {
	switch c {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLT:
		return int64(a) < int64(b)
	case CondLE:
		return int64(a) <= int64(b)
	case CondGT:
		return int64(a) > int64(b)
	case CondGE:
		return int64(a) >= int64(b)
	case CondLTU:
		return a < b
	case CondLEU:
		return a <= b
	case CondGTU:
		return a > b
	case CondGEU:
		return a >= b
	}
	return false
}

// Helper identifies a runtime helper reached through the helper-call
// mechanism (QEMU-style RMW emulation, guest syscalls).
type Helper uint16

// Helpers provided by the Risotto runtime (internal/core).
const (
	// HelperCmpXchg: old = cmpxchg(addr=arg0, new=arg1, expected=guest
	// RAX). QEMU's RMW path (§2.3, §3.1).
	HelperCmpXchg Helper = iota
	// HelperXAdd: old = xadd(addr=arg0, add=arg1).
	HelperXAdd
	// HelperXchg: old = xchg(addr=arg0, new=arg1).
	HelperXchg
)

// Opcode is an IR operation.
type Opcode uint8

// IR opcodes. ALU ops are three-address over temps; constants enter via
// OpMovI.
const (
	OpNop Opcode = iota
	// OpMovI: Dst = Imm.
	OpMovI
	// OpMov: Dst = A.
	OpMov
	OpAdd
	OpSub
	OpMul
	OpUDiv
	OpURem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpSar
	OpNeg
	OpNot
	// OpSetcond: Dst = Cond(A, B) ? 1 : 0.
	OpSetcond

	// OpLd: Dst = mem[A + Imm], Size bytes, zero-extended. Generates an R
	// event in the IR model.
	OpLd
	// OpSt: mem[A + Imm] = B, Size bytes. Generates a W event.
	OpSt
	// OpMb: fence of flavour Fence.
	OpMb
	// OpCAS: Dst = old value of mem[A]; if old == B then mem[A] = C.
	// SC semantics (Rsc/Wsc events). Risotto's new IR instruction (§6.3).
	OpCAS
	// OpXAdd: Dst = old; mem[A] += B. SC semantics.
	OpXAdd
	// OpXchg: Dst = old; mem[A] = B. SC semantics.
	OpXchg

	// OpBr: unconditional branch to Label.
	OpBr
	// OpBrcond: branch to Label if Cond(A, B).
	OpBrcond
	// OpSetLabel: defines Label at this position.
	OpSetLabel

	// OpCall: invoke helper Helper with args A (and B); result in Dst.
	OpCall

	// OpExit: end the translation block; the next guest PC is Imm.
	OpExit
	// OpExitInd: end the block; the next guest PC is in A.
	OpExitInd
	// OpExitHalt: end the block and halt the vCPU (guest exit).
	OpExitHalt

	numOpcodes
)

var opNames = [numOpcodes]string{
	"nop", "movi", "mov",
	"add", "sub", "mul", "udiv", "urem", "and", "or", "xor",
	"shl", "shr", "sar", "neg", "not", "setcond",
	"ld", "st", "mb", "cas", "xadd", "xchg",
	"br", "brcond", "label",
	"call",
	"exit_tb", "exit_tb_ind", "exit_halt",
}

// Inst is one IR operation.
type Inst struct {
	Op      Opcode
	Dst     Temp
	A, B, C Temp
	Imm     int64
	Size    uint8
	Cond    Cond
	Fence   memmodel.Fence
	Label   int
	Helper  Helper
}

// Block is one translation block's worth of IR.
type Block struct {
	// Insts is the op list.
	Insts []Inst
	// NumTemps is the total temp count (globals + locals).
	NumTemps int
	// NumLabels is the label count.
	NumLabels int
	// GuestPC and GuestEnd delimit the guest code this block translates:
	// its entry and the PC it falls through to.
	GuestPC, GuestEnd uint64
	// guestBytes is the size of the translated guest code when the two
	// above do not delimit it (a superblock; see GuestBytes). Unexported:
	// cached IR records carry frontend blocks only and keep their format.
	guestBytes uint64
}

// GuestBytes returns how many bytes of guest code the block translates:
// GuestEnd−GuestPC for a frontend block, the sum over its components for a
// superblock — whose trace may follow a backward edge, so that GuestEnd
// (its last component's) lies below GuestPC (its first's).
func (b *Block) GuestBytes() uint64 {
	if b.guestBytes != 0 {
		return b.guestBytes
	}
	return b.GuestEnd - b.GuestPC
}

// NewBlock returns an empty block with the globals allocated.
func NewBlock() *Block {
	return &Block{NumTemps: NumGlobals}
}

// Clone returns a deep copy of the block, so a caller can keep the
// frontend's unoptimized IR (the selfcheck oracle) while Optimize rewrites
// the original in place.
func (b *Block) Clone() *Block {
	nb := *b
	nb.Insts = append([]Inst(nil), b.Insts...)
	return &nb
}

// Temp allocates a fresh local temp.
func (b *Block) Temp() Temp {
	t := Temp(b.NumTemps)
	b.NumTemps++
	return t
}

// NewLabel allocates a fresh label.
func (b *Block) NewLabel() int {
	l := b.NumLabels
	b.NumLabels++
	return l
}

// Emit appends an instruction.
func (b *Block) Emit(i Inst) { b.Insts = append(b.Insts, i) }

// Convenience emitters used by the frontend.

func (b *Block) MovI(dst Temp, imm int64) { b.Emit(Inst{Op: OpMovI, Dst: dst, Imm: imm}) }
func (b *Block) Mov(dst, a Temp)          { b.Emit(Inst{Op: OpMov, Dst: dst, A: a}) }
func (b *Block) Alu(op Opcode, dst, a, x Temp) {
	b.Emit(Inst{Op: op, Dst: dst, A: a, B: x})
}
func (b *Block) Ld(dst, addr Temp, off int64, size uint8) {
	b.Emit(Inst{Op: OpLd, Dst: dst, A: addr, Imm: off, Size: size})
}
func (b *Block) St(addr Temp, off int64, src Temp, size uint8) {
	b.Emit(Inst{Op: OpSt, A: addr, B: src, Imm: off, Size: size})
}
func (b *Block) Mb(f memmodel.Fence) { b.Emit(Inst{Op: OpMb, Fence: f}) }
func (b *Block) Brcond(c Cond, a, x Temp, label int) {
	b.Emit(Inst{Op: OpBrcond, Cond: c, A: a, B: x, Label: label})
}
func (b *Block) Br(label int)       { b.Emit(Inst{Op: OpBr, Label: label}) }
func (b *Block) SetLabel(label int) { b.Emit(Inst{Op: OpSetLabel, Label: label}) }
func (b *Block) Exit(nextPC uint64) { b.Emit(Inst{Op: OpExit, Imm: int64(nextPC)}) }
func (b *Block) ExitInd(a Temp)     { b.Emit(Inst{Op: OpExitInd, A: a}) }

// String renders the block for debugging.
func (b *Block) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "TB guest=[%#x,%#x) temps=%d\n", b.GuestPC, b.GuestEnd, b.NumTemps)
	for i, inst := range b.Insts {
		fmt.Fprintf(&sb, "%3d: %s\n", i, inst)
	}
	return sb.String()
}

func (i Inst) String() string {
	n := "?"
	if int(i.Op) < len(opNames) {
		n = opNames[i.Op]
	}
	switch i.Op {
	case OpNop:
		return n
	case OpMovI:
		return fmt.Sprintf("%s t%d, %d", n, i.Dst, i.Imm)
	case OpMov, OpNeg, OpNot:
		return fmt.Sprintf("%s t%d, t%d", n, i.Dst, i.A)
	case OpAdd, OpSub, OpMul, OpUDiv, OpURem, OpAnd, OpOr, OpXor, OpShl, OpShr, OpSar:
		return fmt.Sprintf("%s t%d, t%d, t%d", n, i.Dst, i.A, i.B)
	case OpSetcond:
		return fmt.Sprintf("%s.%s t%d, t%d, t%d", n, i.Cond, i.Dst, i.A, i.B)
	case OpLd:
		return fmt.Sprintf("%s t%d, [t%d%+d] sz=%d", n, i.Dst, i.A, i.Imm, i.Size)
	case OpSt:
		return fmt.Sprintf("%s [t%d%+d], t%d sz=%d", n, i.A, i.Imm, i.B, i.Size)
	case OpMb:
		return fmt.Sprintf("%s %s", n, i.Fence)
	case OpCAS:
		return fmt.Sprintf("%s t%d, [t%d], exp=t%d new=t%d sz=%d", n, i.Dst, i.A, i.B, i.C, i.Size)
	case OpXAdd, OpXchg:
		return fmt.Sprintf("%s t%d, [t%d], t%d sz=%d", n, i.Dst, i.A, i.B, i.Size)
	case OpBr:
		return fmt.Sprintf("%s L%d", n, i.Label)
	case OpBrcond:
		return fmt.Sprintf("%s.%s t%d, t%d, L%d", n, i.Cond, i.A, i.B, i.Label)
	case OpSetLabel:
		return fmt.Sprintf("L%d:", i.Label)
	case OpCall:
		return fmt.Sprintf("%s h%d, t%d, t%d -> t%d", n, i.Helper, i.A, i.B, i.Dst)
	case OpExit:
		return fmt.Sprintf("%s -> %#x", n, uint64(i.Imm))
	case OpExitInd:
		return fmt.Sprintf("%s -> [t%d]", n, i.A)
	case OpExitHalt:
		return n
	}
	return n
}

// HasDst reports whether the op writes Dst.
func (i Inst) HasDst() bool {
	switch i.Op {
	case OpMovI, OpMov, OpAdd, OpSub, OpMul, OpUDiv, OpURem, OpAnd, OpOr,
		OpXor, OpShl, OpShr, OpSar, OpNeg, OpNot, OpSetcond, OpLd, OpCAS,
		OpXAdd, OpXchg, OpCall:
		return true
	}
	return false
}

// Uses returns the temps the op reads: the first n of uses.
func (i Inst) Uses() (uses [3]Temp, n int) {
	switch i.Op {
	case OpMov, OpNeg, OpNot, OpExitInd, OpLd:
		return [3]Temp{i.A}, 1
	case OpAdd, OpSub, OpMul, OpUDiv, OpURem, OpAnd, OpOr, OpXor, OpShl,
		OpShr, OpSar, OpSetcond, OpBrcond, OpSt, OpXAdd, OpXchg, OpCall:
		return [3]Temp{i.A, i.B}, 2
	case OpCAS:
		return [3]Temp{i.A, i.B, i.C}, 3
	}
	return uses, 0
}

// HasSideEffects reports whether the op must be preserved regardless of
// liveness (memory, fences, control flow, helper calls). Loads count:
// removing a shared-memory read is only sound under the Figure-10 rules
// (a read can anchor a trailing Frm fence's ordering — see the FMR
// example), so DCE never drops one; only the access-elimination pass may.
func (i Inst) HasSideEffects() bool {
	switch i.Op {
	case OpLd, OpSt, OpMb, OpCAS, OpXAdd, OpXchg, OpBr, OpBrcond, OpSetLabel,
		OpCall, OpExit, OpExitInd, OpExitHalt:
		return true
	}
	return false
}
