// Package backend lowers TCG IR blocks to host (Arm) code, emitting from
// the verified IR→Arm mapping tables (Figure 7b: mapping.ArmVerified and
// mapping.ArmVerifiedLxSx): plain ld/st become plain LDR/STR, each IR
// fence becomes the DMB its table row names (or nothing), and IR atomics
// become either casal (RMW1^AL) or an exclusive loop (RMW2) bracketed by
// the fences the table's RMW rule names — the two lowerings proven
// correct in §5.4 — or a QEMU-style helper call.
//
// Register convention for generated code:
//
//	X0–X17  IR globals (guest GPRs + CC slots), live across blocks
//	X18     block-exit PC / helper argument 0 / helper result
//	X19–X26 IR locals
//	X27     reserved (native-code stack pointer; unused by translated code)
//	X28     helper argument 1 / exclusive-loop status scratch
//	X29     scratch (immediates, casal expected-value)
//	X30     link register
//
// Generated blocks end with SVC #SvcTBExit (next guest PC in X18); helper
// calls are BLR to HelperBase+index, intercepted by the runtime.
package backend

import (
	"fmt"

	"repro/internal/isa/arm"
	"repro/internal/mapping"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/tcg"
)

// SVC immediates used by generated code (disjoint from guest syscalls,
// which go through the helper mechanism).
const (
	// SvcTBExit ends a translation block; X18 holds the next guest PC.
	SvcTBExit = 0xF000
	// SvcHalt ends the block and halts the vCPU.
	SvcHalt = 0xF001
	// SvcInterp is the whole body of an interpreter-tier stub block: the
	// runtime intercepts it and executes the block's IR through the TCG
	// interpreter (the bottom rung of the self-healing tier ladder).
	SvcInterp = 0xF002
	// SvcMiscompile is the marker the miscompile fault injector writes
	// over a block's first instruction — a deliberately corrupted
	// translation that traps the moment it is executed.
	SvcMiscompile = 0xF003
)

// HelperBase is the fake address region for helper calls: helper i is
// invoked as BLR to HelperBase + 16*i. The region lies far outside
// simulated memory so a missed interception faults loudly.
const HelperBase uint64 = 1 << 40

// HelperAddr returns the dispatch address of a helper; the access size of
// memory helpers (1/2/4/8) rides in the low offset bits.
func HelperAddr(h tcg.Helper, size uint8) uint64 {
	return HelperBase + 16*uint64(h) + uint64(size)
}

// HelperOf inverts HelperAddr, recovering the helper index and size.
func HelperOf(addr uint64) (h tcg.Helper, size uint8, ok bool) {
	if addr < HelperBase {
		return 0, 0, false
	}
	off := addr - HelperBase
	return tcg.Helper(off / 16), uint8(off % 16), true
}

// CASLowering selects the IR-atomic lowering.
type CASLowering int

const (
	// CASCasal lowers OpCAS to casal (RMW1^AL).
	CASCasal CASLowering = iota
	// CASExclusiveFenced lowers OpCAS to DMBFF; LDXR/STXR loop; DMBFF
	// (the verified RMW2 option of Figure 7b).
	CASExclusiveFenced
)

// tables holds the verified IR→Arm table each lowering emits from.
var tables = [...]*mapping.Scheme{
	CASCasal:           mapping.ArmVerified,
	CASExclusiveFenced: mapping.ArmVerifiedLxSx,
}

// Config parameterizes code generation.
type Config struct {
	// CAS selects the atomic lowering (ignored for helper-call RMWs,
	// which the frontend emits as OpCall).
	CAS CASLowering
	// Obs, when non-nil, counts emitted blocks, host instructions and a
	// code-size histogram under its "backend" child scope.
	Obs *obs.Scope
}

// Stats counts what was emitted, for the evaluation's fence accounting.
type Stats struct {
	Insts    int
	DMBFull  int
	DMBLoad  int
	DMBStore int
	Casal    int
	ExclLoop int
	Helper   int
	// ChainSlots lists the block's patchable exits for TB chaining: byte
	// offsets (within the generated code) of SVC #SvcTBExit instructions
	// whose guest target is a compile-time constant, with that target.
	ChainSlots []ChainSlot
}

// ChainSlot is one constant-target block exit eligible for chaining.
type ChainSlot struct {
	// Off is the byte offset of the exit's SVC within the block's code.
	Off int
	// GuestTarget is the constant next guest PC.
	GuestTarget uint64
}

// Registers used by the convention.
const (
	regExit    = arm.X18
	regArg1    = arm.X28
	regScratch = arm.X29
	firstLocal = arm.X19
	lastLocal  = arm.X26
)

// hostReg maps an IR temp to its host register.
func hostReg(t tcg.Temp) (arm.Reg, error) {
	if t < tcg.NumGlobals {
		return arm.Reg(t), nil
	}
	r := arm.Reg(int(firstLocal) + int(t-tcg.NumGlobals))
	if r > lastLocal {
		return 0, fmt.Errorf("backend: out of local registers (temp t%d)", t)
	}
	return r, nil
}

type gen struct {
	tab    *mapping.Scheme // cfg.CAS's table: every barrier emitted is read from it
	insts  []arm.Inst
	fixups []fixup // intra-block label references
	labels map[int]int
	stats  Stats
	// nextInternalLabel allocates labels for lowering-internal loops,
	// numbered downward from -1 to avoid clashing with IR labels.
	nextInternalLabel int
}

type fixup struct {
	instIdx int
	label   int
}

func (g *gen) emit(i arm.Inst) { g.insts = append(g.insts, i) }

func (g *gen) emitBranchTo(i arm.Inst, label int) {
	g.fixups = append(g.fixups, fixup{len(g.insts), label})
	g.emit(i)
}

func (g *gen) setLabel(l int) { g.labels[l] = len(g.insts) }

func (g *gen) internalLabel() int {
	g.nextInternalLabel--
	return g.nextInternalLabel
}

// movImm loads an arbitrary 64-bit constant into rd.
func (g *gen) movImm(rd arm.Reg, v uint64) {
	g.emit(arm.Inst{Op: arm.MOVZ, Rd: rd, Imm: int64(v & 0xFFFF)})
	for s := uint8(1); s <= 3; s++ {
		if chunk := v >> (16 * s) & 0xFFFF; chunk != 0 {
			g.emit(arm.Inst{Op: arm.MOVK, Rd: rd, Imm: int64(chunk), Shift: s})
		}
	}
}

func (g *gen) mov(rd, rn arm.Reg) {
	if rd != rn {
		g.emit(arm.Inst{Op: arm.ORR, Rd: rd, Rn: arm.XZR, Rm: rn})
	}
}

var aluMap = map[tcg.Opcode]arm.Op{
	tcg.OpAdd: arm.ADD, tcg.OpSub: arm.SUB, tcg.OpMul: arm.MUL,
	tcg.OpUDiv: arm.UDIV, tcg.OpURem: arm.UREM,
	tcg.OpAnd: arm.AND, tcg.OpOr: arm.ORR, tcg.OpXor: arm.EOR,
	tcg.OpShl: arm.LSL, tcg.OpShr: arm.LSR, tcg.OpSar: arm.ASR,
}

var condMap = map[tcg.Cond]arm.Cond{
	tcg.CondEQ: arm.EQ, tcg.CondNE: arm.NE,
	tcg.CondLT: arm.LT, tcg.CondLE: arm.LE,
	tcg.CondGT: arm.GT, tcg.CondGE: arm.GE,
	tcg.CondLTU: arm.LO, tcg.CondLEU: arm.LS,
	tcg.CondGTU: arm.HI, tcg.CondGEU: arm.HS,
}

// dmb emits the barrier an Arm-level fence of the table stands for
// (FenceNone: nothing). A fence the table leaves at another level gets the
// full barrier.
func (g *gen) dmb(f memmodel.Fence) {
	if f == memmodel.FenceNone {
		return
	}
	bar, ok := arm.BarrierOf(f)
	if !ok {
		bar = arm.BarrierFull
	}
	g.emit(arm.Inst{Op: arm.DMB, Barrier: bar})
	switch bar {
	case arm.BarrierFull:
		g.stats.DMBFull++
	case arm.BarrierLoad:
		g.stats.DMBLoad++
	case arm.BarrierStore:
		g.stats.DMBStore++
	}
}

// Generate lowers a block to encoded host code placed at base.
func Generate(b *tcg.Block, base uint64, cfg Config) ([]byte, Stats, error) {
	if cfg.CAS < 0 || int(cfg.CAS) >= len(tables) {
		return nil, Stats{}, fmt.Errorf("backend: no IR→Arm table for CASLowering(%d)", cfg.CAS)
	}
	g := &gen{tab: tables[cfg.CAS], labels: make(map[int]int)}
	for _, in := range b.Insts {
		if err := g.lower(in); err != nil {
			return nil, Stats{}, err
		}
	}
	// Blocks that fall off the end exit to GuestEnd (the frontend always
	// terminates blocks, but be defensive).
	if n := len(b.Insts); n == 0 || !isTerminal(b.Insts[n-1].Op) {
		g.movImm(regExit, b.GuestEnd)
		g.emit(arm.Inst{Op: arm.SVC, Imm: SvcTBExit})
	}

	// Resolve intra-block labels.
	for _, f := range g.fixups {
		pos, ok := g.labels[f.label]
		if !ok {
			return nil, Stats{}, fmt.Errorf("backend: unresolved label L%d", f.label)
		}
		g.insts[f.instIdx].Off = int32(pos - f.instIdx)
	}

	var code []byte
	for i, inst := range g.insts {
		var err error
		code, err = arm.EncodeTo(code, inst)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("backend: inst %d (%v): %w", i, inst, err)
		}
	}
	g.stats.Insts = len(g.insts)
	_ = base // blocks are position-independent: all branches are relative
	if sc := cfg.Obs.Child("backend"); sc != nil {
		sc.Counter("blocks").Inc()
		sc.Counter("insts").Add(uint64(len(g.insts)))
		sc.Histogram("code_bytes", obs.SizeBuckets).Observe(uint64(len(code)))
	}
	return code, g.stats, nil
}

func isTerminal(op tcg.Opcode) bool {
	return op == tcg.OpExit || op == tcg.OpExitInd || op == tcg.OpExitHalt || op == tcg.OpBr
}

func (g *gen) lower(in tcg.Inst) error {
	switch in.Op {
	case tcg.OpNop:
		return nil
	case tcg.OpSetLabel:
		g.setLabel(in.Label)
		return nil
	}

	rd, err := hostReg(in.Dst)
	if err != nil && in.HasDst() {
		return err
	}
	ra, errA := hostReg(in.A)
	rb, errB := hostReg(in.B)

	switch in.Op {
	case tcg.OpMovI:
		g.movImm(rd, uint64(in.Imm))
	case tcg.OpMov:
		if errA != nil {
			return errA
		}
		g.mov(rd, ra)
	case tcg.OpAdd, tcg.OpSub, tcg.OpMul, tcg.OpUDiv, tcg.OpURem,
		tcg.OpAnd, tcg.OpOr, tcg.OpXor, tcg.OpShl, tcg.OpShr, tcg.OpSar:
		if errA != nil {
			return errA
		}
		if errB != nil {
			return errB
		}
		g.emit(arm.Inst{Op: aluMap[in.Op], Rd: rd, Rn: ra, Rm: rb})
	case tcg.OpNeg:
		if errA != nil {
			return errA
		}
		g.emit(arm.Inst{Op: arm.NEG, Rd: rd, Rn: ra})
	case tcg.OpNot:
		if errA != nil {
			return errA
		}
		g.emit(arm.Inst{Op: arm.MVN, Rd: rd, Rn: ra})
	case tcg.OpSetcond:
		if errA != nil {
			return errA
		}
		if errB != nil {
			return errB
		}
		g.emit(arm.Inst{Op: arm.SUBS, Rd: arm.XZR, Rn: ra, Rm: rb})
		g.emit(arm.Inst{Op: arm.CSET, Rd: rd, Cond: condMap[in.Cond]})

	case tcg.OpLd:
		if errA != nil {
			return errA
		}
		base, off, err := g.memOperand(ra, in.Imm)
		if err != nil {
			return err
		}
		g.emit(arm.Inst{Op: arm.LDR, Rd: rd, Rn: base, Imm: off, Size: in.Size})
	case tcg.OpSt:
		if errA != nil {
			return errA
		}
		if errB != nil {
			return errB
		}
		base, off, err := g.memOperand(ra, in.Imm)
		if err != nil {
			return err
		}
		g.emit(arm.Inst{Op: arm.STR, Rd: rb, Rn: base, Imm: off, Size: in.Size})

	case tcg.OpMb:
		g.dmb(g.tab.Fence(in.Fence))

	case tcg.OpCAS:
		if errA != nil {
			return errA
		}
		if errB != nil {
			return errB
		}
		rc, errC := hostReg(in.C)
		if errC != nil {
			return errC
		}
		g.dmb(g.tab.RMW.Before)
		if g.tab.RMW.Attr.Class == memmodel.RMWAmo {
			// casal clobbers the expected-value register with the old
			// value; stage it through the scratch.
			g.mov(regScratch, rb)
			g.emit(arm.Inst{Op: arm.CASAL, Rd: regScratch, Rm: rc, Rn: ra, Size: in.Size})
			g.stats.Casal++
		} else {
			// retry: LDXR; compare; STXR.
			retry, done := g.internalLabel(), g.internalLabel()
			g.setLabel(retry)
			g.emit(arm.Inst{Op: arm.LDXR, Rd: regScratch, Rn: ra, Size: in.Size})
			g.emit(arm.Inst{Op: arm.SUBS, Rd: arm.XZR, Rn: regScratch, Rm: rb})
			g.emitBranchTo(arm.Inst{Op: arm.BCOND, Cond: arm.NE}, done)
			g.emit(arm.Inst{Op: arm.STXR, Rd: regArg1, Rm: rc, Rn: ra, Size: in.Size})
			g.emitBranchTo(arm.Inst{Op: arm.CBNZ, Rd: regArg1}, retry)
			g.setLabel(done)
			g.stats.ExclLoop++
		}
		g.dmb(g.tab.RMW.After)
		g.mov(rd, regScratch)

	case tcg.OpXAdd:
		if errA != nil {
			return errA
		}
		if errB != nil {
			return errB
		}
		g.mov(regScratch, rb)
		g.emit(arm.Inst{Op: arm.LDADDAL, Rd: regScratch, Rm: rd, Rn: ra, Size: in.Size})
		g.stats.Casal++
	case tcg.OpXchg:
		if errA != nil {
			return errA
		}
		if errB != nil {
			return errB
		}
		g.mov(regScratch, rb)
		g.emit(arm.Inst{Op: arm.SWPAL, Rd: regScratch, Rm: rd, Rn: ra, Size: in.Size})
		g.stats.Casal++

	case tcg.OpBr:
		g.emitBranchTo(arm.Inst{Op: arm.B}, in.Label)
	case tcg.OpBrcond:
		if errA != nil {
			return errA
		}
		if errB != nil {
			return errB
		}
		g.emit(arm.Inst{Op: arm.SUBS, Rd: arm.XZR, Rn: ra, Rm: rb})
		g.emitBranchTo(arm.Inst{Op: arm.BCOND, Cond: condMap[in.Cond]}, in.Label)

	case tcg.OpCall:
		// Arguments: X18 ← A, X28 ← B; target in scratch; result in X18.
		// Convention: a helper result is written only when Dst is a local
		// temp — helpers with a global (or defaulted) Dst, like the guest
		// syscall helper, update guest state themselves.
		if errA != nil {
			return errA
		}
		if errB != nil {
			return errB
		}
		g.mov(regExit, ra)
		g.mov(regArg1, rb)
		g.movImm(regScratch, HelperAddr(in.Helper, in.Size))
		g.emit(arm.Inst{Op: arm.BLR, Rn: regScratch})
		if in.Dst >= tcg.NumGlobals {
			g.mov(rd, regExit)
		}
		g.stats.Helper++

	case tcg.OpExit:
		g.movImm(regExit, uint64(in.Imm))
		g.stats.ChainSlots = append(g.stats.ChainSlots, ChainSlot{
			Off:         len(g.insts) * arm.InstBytes,
			GuestTarget: uint64(in.Imm),
		})
		g.emit(arm.Inst{Op: arm.SVC, Imm: SvcTBExit})
	case tcg.OpExitInd:
		if errA != nil {
			return errA
		}
		g.mov(regExit, ra)
		g.emit(arm.Inst{Op: arm.SVC, Imm: SvcTBExit})
	case tcg.OpExitHalt:
		g.emit(arm.Inst{Op: arm.SVC, Imm: SvcHalt})

	default:
		return fmt.Errorf("backend: unimplemented IR op %v", in.Op)
	}
	return nil
}

// memOperand folds an offset into the addressing mode, computing
// out-of-range offsets into the scratch register.
func (g *gen) memOperand(base arm.Reg, off int64) (arm.Reg, int64, error) {
	if off >= 0 && off <= 0xFFF {
		return base, off, nil
	}
	g.movImm(regScratch, uint64(off))
	g.emit(arm.Inst{Op: arm.ADD, Rd: regScratch, Rn: base, Rm: regScratch})
	return regScratch, 0, nil
}
