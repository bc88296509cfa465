// Package arm defines Risotto-Go's host instruction set: an A64-like
// fixed-width (32-bit) RISC ISA with Arm's concurrency primitives — plain
// LDR/STR (weakly ordered), acquire/release accesses (LDAR, LDAPR, STLR),
// exclusives (LDXR/STXR and their acquire/release forms), single-copy
// atomic RMWs (CAS/CASAL, LDADDAL) and the three DMB fences — plus a
// binary encoding, assembler, decoder and disassembler.
//
// The encoding is a custom 32-bit format (op byte + packed fields), not
// real A64 machine code; see DESIGN.md §1. The ordering semantics of each
// instruction match the Armed-Cats events they generate.
package arm

import (
	"fmt"

	"repro/internal/memmodel"
)

// Reg names a 64-bit host register. X31 is XZR: reads as zero, writes are
// discarded.
type Reg uint8

// Register aliases. The Risotto backend reserves X27 as the guest-state
// convention stack pointer and X28 as scratch; nothing in the ISA itself
// treats any register specially except XZR.
const (
	X0 Reg = iota
	X1
	X2
	X3
	X4
	X5
	X6
	X7
	X8
	X9
	X10
	X11
	X12
	X13
	X14
	X15
	X16
	X17
	X18
	X19
	X20
	X21
	X22
	X23
	X24
	X25
	X26
	X27
	X28
	X29
	X30
	// XZR is the zero register.
	XZR
	// NumRegs is the architectural register count (including XZR).
	NumRegs = 32
	// LR is the link register written by BL/BLR.
	LR = X30
)

func (r Reg) String() string {
	if r == XZR {
		return "xzr"
	}
	return fmt.Sprintf("x%d", uint8(r))
}

// Cond is an A64 condition code evaluated against NZCV.
type Cond uint8

// Condition codes. Signed: LT/LE/GT/GE; unsigned: LO/LS/HI/HS.
const (
	EQ Cond = iota
	NE
	LT
	LE
	GT
	GE
	LO // unsigned lower
	LS // unsigned lower or same
	HI // unsigned higher
	HS // unsigned higher or same
)

var condNames = []string{"eq", "ne", "lt", "le", "gt", "ge", "lo", "ls", "hi", "hs"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cc?%d", uint8(c))
}

// Barrier selects a DMB flavour.
type Barrier uint8

// DMB flavours (§2.4): Full orders everything, Load orders a load with its
// successors, Store orders store-store pairs.
const (
	BarrierFull Barrier = iota
	BarrierLoad
	BarrierStore
)

// BarrierOf returns the DMB flavour an Arm-level fence event stands for;
// ok is false for fences of other levels (and FenceNone).
func BarrierOf(f memmodel.Fence) (b Barrier, ok bool) {
	switch f {
	case memmodel.FenceDMBFF:
		return BarrierFull, true
	case memmodel.FenceDMBLD:
		return BarrierLoad, true
	case memmodel.FenceDMBST:
		return BarrierStore, true
	}
	return 0, false
}

func (b Barrier) String() string {
	switch b {
	case BarrierFull:
		return "ish"
	case BarrierLoad:
		return "ishld"
	case BarrierStore:
		return "ishst"
	}
	return fmt.Sprintf("dmb?%d", uint8(b))
}

// Op is an instruction opcode.
type Op uint8

// Instruction opcodes.
const (
	NOP Op = iota
	// HLT stops the executing CPU.
	HLT

	// MOVZ: rd = imm16 << (16*shift). MOVK: insert imm16 at 16*shift.
	MOVZ
	MOVK

	// Three-register ALU: rd = rn ∘ rm.
	ADD
	SUB
	MUL
	UDIV
	UREM
	AND
	ORR
	EOR
	LSL
	LSR
	ASR
	// SUBS sets NZCV (CMP is SUBS with rd=XZR).
	SUBS
	// MVN: rd = ^rn.
	MVN
	// NEG: rd = -rn.
	NEG

	// Immediate ALU: rd = rn ∘ imm12 (unsigned immediate).
	ADDI
	SUBI
	ANDI
	ORRI
	EORI
	LSLI
	LSRI
	ASRI
	SUBSI

	// CSET: rd = cond ? 1 : 0.
	CSET

	// Plain memory accesses: [rn + imm12], access size 1/2/4/8 bytes,
	// loads zero-extend. These generate plain R/W events.
	LDR
	STR
	// Acquire/release/acquirePC accesses (A, L, Q events). Full width.
	LDAR
	LDAPR
	STLR
	// Exclusives: LDXR/STXR and acquire/release forms. STXR writes the
	// status (0 = success) to rs.
	LDXR
	STXR
	LDAXR
	STLXR
	// Single-instruction atomics. CAS rs, rt, [rn]: if [rn] == rs then
	// [rn] = rt; rs receives the old value. CASAL is the acquire-release
	// form (RMW1^AL). LDADDAL rs, rt, [rn]: rt = [rn]; [rn] += rs.
	// SWPAL rs, rt, [rn]: rt = [rn]; [rn] = rs.
	CAS
	CASAL
	LDADDAL
	SWPAL

	// DMB emits a barrier of the given flavour.
	DMB

	// Branches. B/BL take a signed 24-bit word offset from the current
	// instruction; BCOND/CBZ/CBNZ a signed 19-bit word offset.
	B
	BL
	BCOND
	CBZ
	CBNZ
	BR
	BLR
	RET

	// SVC traps to the runtime with a 16-bit immediate.
	SVC

	numOps
)

var opNames = [numOps]string{
	"nop", "hlt", "movz", "movk",
	"add", "sub", "mul", "udiv", "urem", "and", "orr", "eor",
	"lsl", "lsr", "asr", "subs", "mvn", "neg",
	"add", "sub", "and", "orr", "eor", "lsl", "lsr", "asr", "subs",
	"cset",
	"ldr", "str", "ldar", "ldapr", "stlr",
	"ldxr", "stxr", "ldaxr", "stlxr",
	"cas", "casal", "ldaddal", "swpal",
	"dmb",
	"b", "bl", "b.", "cbz", "cbnz", "br", "blr", "ret",
	"svc",
}

// Inst is one decoded instruction.
type Inst struct {
	Op      Op
	Rd      Reg // destination / status / expected (CAS)
	Rn      Reg // first source / base address
	Rm      Reg // second source / store-data (CAS, STXR)
	Imm     int64
	Shift   uint8 // MOVZ/MOVK 16-bit chunk index (0..3)
	Size    uint8 // memory access size: 1, 2, 4, 8
	Cond    Cond
	Barrier Barrier
	// Off is the branch word offset (B, BL, BCOND, CBZ, CBNZ), relative
	// to the current instruction.
	Off int32
}

// String disassembles the instruction.
func (i Inst) String() string {
	n := "?"
	if int(i.Op) < len(opNames) {
		n = opNames[i.Op]
	}
	switch i.Op {
	case NOP, HLT, RET:
		return n
	case MOVZ, MOVK:
		return fmt.Sprintf("%s %s, #%d, lsl #%d", n, i.Rd, uint16(i.Imm), 16*i.Shift)
	case ADD, SUB, MUL, UDIV, UREM, AND, ORR, EOR, LSL, LSR, ASR, SUBS:
		return fmt.Sprintf("%s %s, %s, %s", n, i.Rd, i.Rn, i.Rm)
	case MVN, NEG:
		return fmt.Sprintf("%s %s, %s", n, i.Rd, i.Rn)
	case ADDI, SUBI, ANDI, ORRI, EORI, LSLI, LSRI, ASRI, SUBSI:
		return fmt.Sprintf("%s %s, %s, #%d", n, i.Rd, i.Rn, i.Imm)
	case CSET:
		return fmt.Sprintf("%s %s, %s", n, i.Rd, i.Cond)
	case LDR, STR:
		return fmt.Sprintf("%s%s %s, [%s, #%d]", n, sizeSuffix(i.Size), i.Rd, i.Rn, i.Imm)
	case LDAR, LDAPR, STLR, LDXR, LDAXR:
		return fmt.Sprintf("%s %s, [%s]", n, i.Rd, i.Rn)
	case STXR, STLXR:
		return fmt.Sprintf("%s %s, %s, [%s]", n, i.Rd, i.Rm, i.Rn)
	case CAS, CASAL, LDADDAL, SWPAL:
		return fmt.Sprintf("%s %s, %s, [%s]", n, i.Rd, i.Rm, i.Rn)
	case DMB:
		return fmt.Sprintf("%s %s", n, i.Barrier)
	case B, BL:
		return fmt.Sprintf("%s %+d", n, i.Off)
	case BCOND:
		return fmt.Sprintf("%s%s %+d", n, i.Cond, i.Off)
	case CBZ, CBNZ:
		return fmt.Sprintf("%s %s, %+d", n, i.Rd, i.Off)
	case BR, BLR:
		return fmt.Sprintf("%s %s", n, i.Rn)
	case SVC:
		return fmt.Sprintf("%s #%d", n, i.Imm)
	}
	return n
}

func sizeSuffix(size uint8) string {
	switch size {
	case 1:
		return "b"
	case 2:
		return "h"
	case 4:
		return "w"
	default:
		return ""
	}
}

// IsBranch reports whether the instruction may redirect control flow.
func (i Inst) IsBranch() bool {
	switch i.Op {
	case B, BL, BCOND, CBZ, CBNZ, BR, BLR, RET, SVC, HLT:
		return true
	}
	return false
}
