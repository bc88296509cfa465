// Package frontend translates guest (x86) code into TCG IR, one
// translation block at a time, emitting the memory-ordering fences the
// x86→IR mapping table it is given places (mapping.X86Qemu, X86Verified:
// Figure 2 vs Figure 7a of the Risotto paper, or any other x86→IR
// mapping.Scheme) and a selectable RMW strategy
// (QEMU-style helper call vs Risotto's inline CAS IR instruction, §6.3).
package frontend

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/faults"
	"repro/internal/isa/x86"
	"repro/internal/mapping"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/tcg"
)

// CASStrategy selects how guest RMW instructions are translated.
type CASStrategy int

const (
	// CASInline emits the IR's atomic ops directly (Risotto, §6.3).
	CASInline CASStrategy = iota
	// CASHelper emits a helper call (QEMU's scheme, §2.3).
	CASHelper
)

// HelperSyscall is the runtime helper implementing guest syscalls.
const HelperSyscall tcg.Helper = 100

// Config parameterizes translation.
type Config struct {
	// Scheme is the x86→IR mapping table: every fence emitted is read
	// from it. Translate refuses a nil one.
	Scheme *mapping.Scheme
	// CAS selects RMW translation.
	CAS CASStrategy
	// MaxInsts bounds guest instructions per block (default 64).
	MaxInsts int
	// SyscallBarrier isolates each SYSCALL into its own block: a block
	// that would contain a SYSCALL after earlier instructions ends before
	// it instead, so the syscall is always the first (and only) guest
	// instruction of its block. The interpreter execution tier needs
	// this: a syscall that parks its CPU (a futex-style join) runs again
	// by re-entering the block, which must therefore carry no prior side
	// effects.
	SyscallBarrier bool
	// Inject, when non-nil, forces decode traps at instrumented decode
	// sites (fault-matrix testing).
	Inject *faults.Injector
	// Obs, when non-nil, counts decoded blocks and guest instructions
	// under its "frontend" child scope.
	Obs *obs.Scope
}

// translator carries per-block state: the block being built, whose op list
// is scratch reused from block to block, and the recycled locals.
// Translate takes one from translators and puts it back, and returns a copy
// of the block, so no scratch escapes.
type translator struct {
	cfg  Config
	b    *tcg.Block
	pool []tcg.Temp // recycled locals
}

var translators = sync.Pool{New: func() any { return &translator{b: tcg.NewBlock()} }}

// frontendMetrics are the counters under the scope's "frontend" child.
type frontendMetrics struct{ blocks, insts *obs.Counter }

var metrics = obs.NewHandles(func(sc *obs.Scope) frontendMetrics {
	sc = sc.Child("frontend")
	return frontendMetrics{blocks: sc.Counter("blocks"), insts: sc.Counter("insts")}
})

func (tr *translator) tmp() tcg.Temp {
	if n := len(tr.pool); n > 0 {
		t := tr.pool[n-1]
		tr.pool = tr.pool[:n-1]
		return t
	}
	return tr.b.Temp()
}

func (tr *translator) release(ts ...tcg.Temp) {
	tr.pool = append(tr.pool, ts...)
}

// guestReg maps a guest register to its global temp.
func guestReg(r x86.Reg) tcg.Temp { return tcg.Temp(r) }

// condOf maps an x86 condition to the IR condition over (CCDst, CCSrc).
func condOf(c x86.Cond) tcg.Cond {
	switch c {
	case x86.CondEQ:
		return tcg.CondEQ
	case x86.CondNE:
		return tcg.CondNE
	case x86.CondLT:
		return tcg.CondLT
	case x86.CondLE:
		return tcg.CondLE
	case x86.CondGT:
		return tcg.CondGT
	case x86.CondGE:
		return tcg.CondGE
	case x86.CondB:
		return tcg.CondLTU
	case x86.CondBE:
		return tcg.CondLEU
	case x86.CondA:
		return tcg.CondGTU
	default:
		return tcg.CondGEU
	}
}

// Translate decodes guest code at pc (reading from mem) and produces one
// translation block, ending at the first branch or after cfg.MaxInsts
// instructions. The block is the caller's: no later call touches it.
func Translate(mem []byte, pc uint64, cfg Config) (*tcg.Block, error) {
	if cfg.Scheme == nil {
		return nil, errors.New("frontend: no x86→IR mapping table (Config.Scheme is nil)")
	}
	if cfg.MaxInsts <= 0 {
		cfg.MaxInsts = 64
	}
	tr := translators.Get().(*translator)
	tr.cfg = cfg
	*tr.b = tcg.Block{Insts: tr.b.Insts[:0], NumTemps: tcg.NumGlobals, GuestPC: pc}
	tr.pool = tr.pool[:0]
	decoded, err := tr.block(mem, pc)
	var blk *tcg.Block
	if err == nil {
		blk = tr.b.Clone()
		m := metrics.Of(cfg.Obs)
		m.blocks.Inc()
		m.insts.Add(uint64(decoded))
	}
	tr.cfg = Config{}
	translators.Put(tr)
	return blk, err
}

// block decodes guest code at pc into tr.b and returns how many guest
// instructions it translated.
func (tr *translator) block(mem []byte, pc uint64) (decoded int, err error) {
	cur := pc
	for n := 0; n < tr.cfg.MaxInsts; n++ {
		if cur >= uint64(len(mem)) {
			t := faults.New(faults.TrapUnmapped, "frontend: guest pc outside memory")
			t.Addr = cur
			return 0, t.WithGuestPC(cur)
		}
		if t := tr.cfg.Inject.Hit(faults.SiteDecode); t != nil {
			return 0, t.WithGuestPC(cur)
		}
		inst, size, err := x86.Decode(mem[cur:])
		if err != nil {
			return 0, faults.Wrap(faults.TrapDecode, err, "frontend: guest decode").WithGuestPC(cur)
		}
		if tr.cfg.SyscallBarrier && inst.Op == x86.SYSCALL && n > 0 {
			// End the block before the syscall; the dispatcher re-enters
			// at cur and translates the syscall as its own block.
			tr.b.Exit(cur)
			tr.b.GuestEnd = cur
			return decoded, nil
		}
		next := cur + uint64(size)
		if err := tr.emit(inst, next); err != nil {
			return 0, fmt.Errorf("frontend: at %#x (%v): %w", cur, inst, err)
		}
		cur = next
		decoded++
		if inst.IsBranch() {
			tr.b.GuestEnd = cur
			return decoded, nil
		}
	}
	// Block limit reached: fall through to the next guest pc.
	tr.b.Exit(cur)
	tr.b.GuestEnd = cur
	return decoded, nil
}

// address computes a memory operand's effective address into a fresh temp.
func (tr *translator) address(m x86.Mem) tcg.Temp {
	b := tr.b
	addr := tr.tmp()
	b.Mov(addr, guestReg(m.Base))
	if m.Index != x86.RegNone {
		idx := tr.tmp()
		if m.Scale > 1 {
			sc := tr.tmp()
			b.MovI(sc, int64(m.Scale))
			b.Alu(tcg.OpMul, idx, guestReg(m.Index), sc)
			tr.release(sc)
		} else {
			b.Mov(idx, guestReg(m.Index))
		}
		b.Alu(tcg.OpAdd, addr, addr, idx)
		tr.release(idx)
	}
	if m.Disp != 0 {
		d := tr.tmp()
		b.MovI(d, int64(m.Disp))
		b.Alu(tcg.OpAdd, addr, addr, d)
		tr.release(d)
	}
	return addr
}

// fence emits the IR fence k, if any.
func (tr *translator) fence(k memmodel.Fence) {
	if k != memmodel.FenceNone {
		tr.b.Mb(k)
	}
}

// emitLoad emits a guest load between the fences the table places around
// loads.
func (tr *translator) emitLoad(dst, addr tcg.Temp, size uint8) {
	tr.fence(tr.cfg.Scheme.Load.Before)
	tr.b.Ld(dst, addr, 0, size)
	tr.fence(tr.cfg.Scheme.Load.After)
}

// emitStore emits a guest store between the fences the table places
// around stores.
func (tr *translator) emitStore(addr, src tcg.Temp, size uint8) {
	tr.fence(tr.cfg.Scheme.Store.Before)
	tr.b.St(addr, 0, src, size)
	tr.fence(tr.cfg.Scheme.Store.After)
}

// emitAtomic emits a guest RMW between the fences the table's RMW rule
// places: the IR atomic itself (CASInline), or a call to helper with
// the atomic's address and source operand (CASHelper; the compare-exchange
// helper reads its expected value from guest RAX itself).
func (tr *translator) emitAtomic(in tcg.Inst, helper tcg.Helper, src tcg.Temp) {
	if tr.cfg.CAS == CASHelper {
		in = tcg.Inst{Op: tcg.OpCall, Helper: helper, Dst: in.Dst, A: in.A, B: src, Size: in.Size}
	}
	tr.fence(tr.cfg.Scheme.RMW.Before)
	tr.b.Emit(in)
	tr.fence(tr.cfg.Scheme.RMW.After)
}

var aluOps = map[x86.Op]tcg.Opcode{
	x86.ADDrr: tcg.OpAdd, x86.ADDri: tcg.OpAdd,
	x86.SUBrr: tcg.OpSub, x86.SUBri: tcg.OpSub,
	x86.IMULrr: tcg.OpMul, x86.IMULri: tcg.OpMul,
	x86.ANDrr: tcg.OpAnd, x86.ANDri: tcg.OpAnd,
	x86.ORrr: tcg.OpOr, x86.ORri: tcg.OpOr,
	x86.XORrr: tcg.OpXor, x86.XORri: tcg.OpXor,
	x86.SHLri: tcg.OpShl, x86.SHLrr: tcg.OpShl,
	x86.SHRri: tcg.OpShr, x86.SHRrr: tcg.OpShr,
	x86.SARri:  tcg.OpSar,
	x86.UDIVrr: tcg.OpUDiv, x86.UREMrr: tcg.OpURem,
}

func (tr *translator) emit(in x86.Inst, next uint64) error {
	b := tr.b
	switch in.Op {
	case x86.NOP:

	case x86.MOVri:
		b.MovI(guestReg(in.Dst), in.Imm)
	case x86.MOVrr:
		b.Mov(guestReg(in.Dst), guestReg(in.Src))

	case x86.LOAD:
		addr := tr.address(in.Mem)
		tr.emitLoad(guestReg(in.Dst), addr, in.Size)
		tr.release(addr)
	case x86.STORE:
		addr := tr.address(in.Mem)
		tr.emitStore(addr, guestReg(in.Src), in.Size)
		tr.release(addr)
	case x86.STOREi:
		addr := tr.address(in.Mem)
		v := tr.tmp()
		b.MovI(v, in.Imm)
		tr.emitStore(addr, v, in.Size)
		tr.release(addr, v)
	case x86.LEA:
		addr := tr.address(in.Mem)
		b.Mov(guestReg(in.Dst), addr)
		tr.release(addr)

	case x86.ADDrr, x86.SUBrr, x86.IMULrr, x86.ANDrr, x86.ORrr, x86.XORrr,
		x86.SHLrr, x86.SHRrr, x86.UDIVrr, x86.UREMrr:
		b.Alu(aluOps[in.Op], guestReg(in.Dst), guestReg(in.Dst), guestReg(in.Src))
	case x86.ADDri, x86.SUBri, x86.IMULri, x86.ANDri, x86.ORri, x86.XORri,
		x86.SHLri, x86.SHRri, x86.SARri:
		t := tr.tmp()
		b.MovI(t, in.Imm)
		b.Alu(aluOps[in.Op], guestReg(in.Dst), guestReg(in.Dst), t)
		tr.release(t)
	case x86.NEGr:
		b.Emit(tcg.Inst{Op: tcg.OpNeg, Dst: guestReg(in.Dst), A: guestReg(in.Dst)})
	case x86.NOTr:
		b.Emit(tcg.Inst{Op: tcg.OpNot, Dst: guestReg(in.Dst), A: guestReg(in.Dst)})

	case x86.CMPrr:
		b.Mov(tcg.TempCCDst, guestReg(in.Dst))
		b.Mov(tcg.TempCCSrc, guestReg(in.Src))
	case x86.CMPri:
		b.Mov(tcg.TempCCDst, guestReg(in.Dst))
		b.MovI(tcg.TempCCSrc, in.Imm)
	case x86.TESTrr:
		t := tr.tmp()
		b.Alu(tcg.OpAnd, t, guestReg(in.Dst), guestReg(in.Src))
		b.Mov(tcg.TempCCDst, t)
		b.MovI(tcg.TempCCSrc, 0)
		tr.release(t)
	case x86.TESTri:
		t, imm := tr.tmp(), tr.tmp()
		b.MovI(imm, in.Imm)
		b.Alu(tcg.OpAnd, t, guestReg(in.Dst), imm)
		b.Mov(tcg.TempCCDst, t)
		b.MovI(tcg.TempCCSrc, 0)
		tr.release(t, imm)

	case x86.JMP:
		b.Exit(uint64(int64(next) + int64(in.Rel)))
	case x86.JCC:
		l := b.NewLabel()
		b.Brcond(condOf(in.Cond), tcg.TempCCDst, tcg.TempCCSrc, l)
		b.Exit(next)
		b.SetLabel(l)
		b.Exit(uint64(int64(next) + int64(in.Rel)))
	case x86.CALL:
		tr.push(next) // return address
		b.Exit(uint64(int64(next) + int64(in.Rel)))
	case x86.CALLr:
		// The callee address must be captured before the push in case the
		// register is RSP-relative... it is a plain register; push first
		// is fine unless Dst is RSP itself, which we reject.
		if in.Dst == x86.RSP {
			return fmt.Errorf("call through rsp unsupported")
		}
		tr.push(next)
		b.ExitInd(guestReg(in.Dst))
	case x86.RET:
		rsp := guestReg(x86.RSP)
		t := tr.tmp()
		tr.emitLoad(t, rsp, 8)
		eight := tr.tmp()
		b.MovI(eight, 8)
		b.Alu(tcg.OpAdd, rsp, rsp, eight)
		b.ExitInd(t)
		tr.release(t, eight)

	case x86.PUSH:
		tr.pushReg(guestReg(in.Dst))
	case x86.POP:
		rsp := guestReg(x86.RSP)
		tr.emitLoad(guestReg(in.Dst), rsp, 8)
		eight := tr.tmp()
		b.MovI(eight, 8)
		b.Alu(tcg.OpAdd, rsp, rsp, eight)
		tr.release(eight)

	case x86.MFENCE:
		tr.fence(tr.cfg.Scheme.Fence(memmodel.FenceMFENCE))

	case x86.CMPXCHG:
		addr := tr.address(in.Mem)
		rax := guestReg(x86.RAX)
		old := tr.tmp()
		tr.emitAtomic(tcg.Inst{Op: tcg.OpCAS, Dst: old, A: addr,
			B: rax, C: guestReg(in.Src), Size: in.Size}, tcg.HelperCmpXchg, guestReg(in.Src))
		// ZF reflects old == RAX(before), both at access width (the
		// atomic itself compares truncated values); RAX = old is correct
		// in both outcomes (on success old == truncated RAX already).
		b.Mov(tcg.TempCCDst, old)
		if in.Size < 8 {
			mask := tr.tmp()
			b.MovI(mask, int64(uint64(1)<<(8*in.Size)-1))
			b.Alu(tcg.OpAnd, tcg.TempCCSrc, rax, mask)
			tr.release(mask)
		} else {
			b.Mov(tcg.TempCCSrc, rax)
		}
		b.Mov(rax, old)
		tr.release(addr, old)

	case x86.XADD:
		addr := tr.address(in.Mem)
		old := tr.tmp()
		tr.emitAtomic(tcg.Inst{Op: tcg.OpXAdd, Dst: old, A: addr,
			B: guestReg(in.Src), Size: in.Size}, tcg.HelperXAdd, guestReg(in.Src))
		b.Mov(guestReg(in.Src), old)
		tr.release(addr, old)

	case x86.XCHGmr:
		addr := tr.address(in.Mem)
		old := tr.tmp()
		tr.emitAtomic(tcg.Inst{Op: tcg.OpXchg, Dst: old, A: addr,
			B: guestReg(in.Src), Size: in.Size}, tcg.HelperXchg, guestReg(in.Src))
		b.Mov(guestReg(in.Src), old)
		tr.release(addr, old)

	case x86.SYSCALL:
		b.Emit(tcg.Inst{Op: tcg.OpCall, Helper: HelperSyscall})
		b.Exit(next)

	default:
		return fmt.Errorf("unsupported guest opcode %v", in.Op)
	}
	return nil
}

// push emits an x86 push of a constant (return address).
func (tr *translator) push(value uint64) {
	b := tr.b
	rsp := guestReg(x86.RSP)
	eight := tr.tmp()
	b.MovI(eight, 8)
	b.Alu(tcg.OpSub, rsp, rsp, eight)
	v := tr.tmp()
	b.MovI(v, int64(value))
	tr.emitStore(rsp, v, 8)
	tr.release(eight, v)
}

// pushReg emits an x86 push of a register. PUSH RSP stores the
// pre-decrement value, so the source is captured first.
func (tr *translator) pushReg(src tcg.Temp) {
	b := tr.b
	rsp := guestReg(x86.RSP)
	val := tr.tmp()
	b.Mov(val, src)
	eight := tr.tmp()
	b.MovI(eight, 8)
	b.Alu(tcg.OpSub, rsp, rsp, eight)
	tr.emitStore(rsp, val, 8)
	tr.release(eight, val)
}
