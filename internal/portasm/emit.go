package portasm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/guestimg"
	"repro/internal/isa/arm"
	"repro/internal/isa/x86"
	"repro/internal/machine"
)

// Native memory layout constants.
const (
	// NativeMemSize is the machine size RunNative allocates.
	NativeMemSize = 32 << 20
	// NativeMainSP is the main thread's initial stack pointer (X27).
	NativeMainSP = 23 << 20
	// nativeStackInit seeds the spawn-stack cursor cell.
	nativeStackInit = 22 << 20
	// nativeStackSize is carved per spawned thread.
	nativeStackSize = 256 << 10
)

// --- Guest (x86) emission ---------------------------------------------------

var x86VRegs = [NumRegs]x86.Reg{
	x86.RBX, x86.RCX, x86.RBP, x86.R8, x86.R9,
	x86.R10, x86.R11, x86.R12, x86.R13, x86.R14,
}

const x86Scratch = x86.R15

// x86CArgRegs are the guest C-ABI argument registers (System-V order) the
// host linker marshals from.
var x86CArgRegs = [3]x86.Reg{x86.RDI, x86.RSI, x86.RDX}

var x86Conds = [...]x86.Cond{
	EQ: x86.CondEQ, NE: x86.CondNE, LT: x86.CondLT, LE: x86.CondLE,
	GT: x86.CondGT, GE: x86.CondGE, LO: x86.CondB, LS: x86.CondBE,
	HI: x86.CondA, HS: x86.CondAE,
}

var x86AluRR = map[AluKind]func(*x86.Assembler, x86.Reg, x86.Reg) *x86.Assembler{
	Add: (*x86.Assembler).AddRR, Sub: (*x86.Assembler).SubRR,
	Mul: (*x86.Assembler).MulRR, UDiv: (*x86.Assembler).UDivRR,
	URem: (*x86.Assembler).URemRR, And: (*x86.Assembler).AndRR,
	Or: (*x86.Assembler).OrRR, Xor: (*x86.Assembler).XorRR,
	Shl: (*x86.Assembler).ShlRR, Shr: (*x86.Assembler).ShrRR,
}

// BuildGuest emits the program as a guest image for the DBT.
func (b *Builder) BuildGuest(entry string) (*guestimg.Image, error) {
	gb := guestimg.NewBuilder(TextBase, 0x7000000 /* unused data area */)
	var names []string
	for n := range b.imports {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		gb.Import(n)
	}
	a := gb.Asm

	for _, o := range b.ops {
		switch o.kind {
		case opLabel:
			a.Label(o.name)
		case opMovI:
			a.MovRI(x86VRegs[o.rd], o.imm)
		case opMovSym:
			a.MovSym(x86VRegs[o.rd], o.name)
		case opMov:
			a.MovRR(x86VRegs[o.rd], x86VRegs[o.rs])
		case opAluRR:
			x86AluRR[o.alu](a, x86VRegs[o.rd], x86VRegs[o.rs])
		case opAluRI:
			b.x86AluRI(a, o)
		case opLd:
			a.Load(x86VRegs[o.rd], x86.MemD(x86VRegs[o.rs], int32(o.imm)), o.size)
		case opSt:
			a.Store(x86.MemD(x86VRegs[o.rd], int32(o.imm)), x86VRegs[o.rs], o.size)
		case opLdIdx:
			a.Load(x86VRegs[o.rd], x86.MemIdx(x86VRegs[o.rs], x86VRegs[o.r2], o.scl, 0), o.size)
		case opStIdx:
			a.Store(x86.MemIdx(x86VRegs[o.rd], x86VRegs[o.r2], o.scl, 0), x86VRegs[o.rs], o.size)
		case opCmp:
			a.CmpRR(x86VRegs[o.rd], x86VRegs[o.rs])
		case opCmpI:
			if o.imm >= math.MinInt32 && o.imm <= math.MaxInt32 {
				a.CmpRI(x86VRegs[o.rd], int32(o.imm))
			} else {
				a.MovRI(x86Scratch, o.imm)
				a.CmpRR(x86VRegs[o.rd], x86Scratch)
			}
		case opJcc:
			a.Jcc(x86Conds[o.cond], o.name)
		case opJmp:
			a.Jmp(o.name)
		case opCall:
			a.Call(o.name)
		case opCallPLT:
			a.Call(o.name + "@plt")
		case opRet:
			a.Ret()
		case opMFence:
			a.MFence()
		case opCASFlag:
			a.MovRR(x86.RAX, x86VRegs[o.rs])
			a.CmpXchg(x86.Mem0(x86VRegs[o.rd]), x86VRegs[o.r2], o.size)
		case opXAdd:
			a.XAdd(x86.Mem0(x86VRegs[o.rd]), x86VRegs[o.rs], o.size)
		case opArg:
			a.MovRR(x86VRegs[o.rd], x86.RDI)
		case opExit:
			a.MovRR(x86.RDI, x86VRegs[o.rd])
			a.MovRI(x86.RAX, 93)
			a.Syscall()
		case opWrite:
			a.MovRR(x86.RDI, x86VRegs[o.rd])
			a.MovRR(x86.RSI, x86VRegs[o.rs])
			a.MovRI(x86.RAX, 64)
			a.Syscall()
		case opSpawn:
			a.MovSym(x86.RDI, o.name)
			a.MovRR(x86.RSI, x86VRegs[o.rs])
			a.MovRI(x86.RAX, 220)
			a.Syscall()
			a.MovRR(x86VRegs[o.rd], x86.RAX)
		case opJoin:
			a.MovRR(x86.RDI, x86VRegs[o.rs])
			a.MovRI(x86.RAX, 221)
			a.Syscall()
			a.MovRR(x86VRegs[o.rd], x86.RAX)
		case opSetCArg:
			a.MovRR(x86CArgRegs[o.imm], x86VRegs[o.rs])
		case opGetCRet:
			a.MovRR(x86VRegs[o.rd], x86.RAX)
		case opCArg:
			a.MovRR(x86VRegs[o.rd], x86CArgRegs[o.imm])
		case opSetCRet:
			a.MovRR(x86.RAX, x86VRegs[o.rs])
		default:
			return nil, fmt.Errorf("portasm: x86 emitter: unknown op %d", o.kind)
		}
	}

	img, err := gb.Build(entry)
	if err != nil {
		return nil, err
	}
	img.Segments = append(img.Segments, b.data...)
	return img, nil
}

func (b *Builder) x86AluRI(a *x86.Assembler, o op) {
	rd := x86VRegs[o.rd]
	in32 := o.imm >= math.MinInt32 && o.imm <= math.MaxInt32
	if !in32 || o.alu == UDiv || o.alu == URem {
		a.MovRI(x86Scratch, o.imm)
		x86AluRR[o.alu](a, rd, x86Scratch)
		return
	}
	imm := int32(o.imm)
	switch o.alu {
	case Add:
		a.AddRI(rd, imm)
	case Sub:
		a.SubRI(rd, imm)
	case Mul:
		a.MulRI(rd, imm)
	case And:
		a.AndRI(rd, imm)
	case Or:
		a.OrRI(rd, imm)
	case Xor:
		a.XorRI(rd, imm)
	case Shl:
		a.ShlRI(rd, imm)
	case Shr:
		a.ShrRI(rd, imm)
	}
}

// --- Native (Arm) emission ----------------------------------------------------

var armVRegs = [NumRegs]arm.Reg{
	arm.X9, arm.X10, arm.X11, arm.X12, arm.X13,
	arm.X14, arm.X15, arm.X16, arm.X17, arm.X18,
}

const (
	armS1 = arm.X21
	armS2 = arm.X22
)

var armConds = [...]arm.Cond{
	EQ: arm.EQ, NE: arm.NE, LT: arm.LT, LE: arm.LE, GT: arm.GT, GE: arm.GE,
	LO: arm.LO, LS: arm.LS, HI: arm.HI, HS: arm.HS,
}

var armAluRR = map[AluKind]arm.Op{
	Add: arm.ADD, Sub: arm.SUB, Mul: arm.MUL, UDiv: arm.UDIV, URem: arm.UREM,
	And: arm.AND, Or: arm.ORR, Xor: arm.EOR, Shl: arm.LSL, Shr: arm.LSR,
}

// BuildNative emits the program as a native host image.
func (b *Builder) BuildNative(entry string) (*guestimg.Image, error) {
	if len(b.imports) > 0 {
		return nil, fmt.Errorf("portasm: host-linked imports have no native lowering (imports: %d)", len(b.imports))
	}
	a := arm.NewAssembler()

	for _, o := range b.ops {
		switch o.kind {
		case opLabel:
			a.Label(o.name)
		case opMovI:
			a.MovImm(armVRegs[o.rd], uint64(o.imm))
		case opMovSym:
			a.MovSym(armVRegs[o.rd], o.name)
		case opMov:
			a.Mov(armVRegs[o.rd], armVRegs[o.rs])
		case opAluRR:
			a.Raw(arm.Inst{Op: armAluRR[o.alu], Rd: armVRegs[o.rd],
				Rn: armVRegs[o.rd], Rm: armVRegs[o.rs]})
		case opAluRI:
			armAluRI(a, o)
		case opLd:
			if o.imm >= 0 && o.imm <= 0xFFF {
				a.Ldr(armVRegs[o.rd], armVRegs[o.rs], o.imm, o.size)
			} else {
				a.MovImm(armS1, uint64(o.imm))
				a.Add(armS1, armVRegs[o.rs], armS1)
				a.Ldr(armVRegs[o.rd], armS1, 0, o.size)
			}
		case opSt:
			if o.imm >= 0 && o.imm <= 0xFFF {
				a.Str(armVRegs[o.rs], armVRegs[o.rd], o.imm, o.size)
			} else {
				a.MovImm(armS1, uint64(o.imm))
				a.Add(armS1, armVRegs[o.rd], armS1)
				a.Str(armVRegs[o.rs], armS1, 0, o.size)
			}
		case opLdIdx:
			lg, err := log2scale(o.scl)
			if err != nil {
				return nil, err
			}
			a.LslI(armS1, armVRegs[o.r2], lg)
			a.Add(armS1, armVRegs[o.rs], armS1)
			a.Ldr(armVRegs[o.rd], armS1, 0, o.size)
		case opStIdx:
			lg, err := log2scale(o.scl)
			if err != nil {
				return nil, err
			}
			a.LslI(armS1, armVRegs[o.r2], lg)
			a.Add(armS1, armVRegs[o.rd], armS1)
			a.Str(armVRegs[o.rs], armS1, 0, o.size)
		case opCmp:
			a.Cmp(armVRegs[o.rd], armVRegs[o.rs])
		case opCmpI:
			if o.imm >= 0 && o.imm <= 0xFFF {
				a.CmpI(armVRegs[o.rd], o.imm)
			} else {
				a.MovImm(armS1, uint64(o.imm))
				a.Cmp(armVRegs[o.rd], armS1)
			}
		case opJcc:
			a.BCondLabel(armConds[o.cond], o.name)
		case opJmp:
			a.BLabel(o.name)
		case opCall:
			a.BlLabel(o.name)
		case opRet:
			a.Ret()
		case opMFence:
			a.Dmb(arm.BarrierFull)
		case opCASFlag:
			a.Mov(armS1, armVRegs[o.rs])
			a.Casal(armS1, armVRegs[o.r2], armVRegs[o.rd], o.size)
			a.Cmp(armS1, armVRegs[o.rs])
		case opXAdd:
			a.Mov(armS1, armVRegs[o.rs])
			a.Raw(arm.Inst{Op: arm.LDADDAL, Rd: armS1, Rm: armVRegs[o.rs],
				Rn: armVRegs[o.rd], Size: o.size})
		case opArg:
			a.Mov(armVRegs[o.rd], arm.X0)
		case opExit:
			a.Mov(arm.X0, armVRegs[o.rd])
			a.MovImm(arm.X8, machine.SysExit)
			a.Svc(0)
		case opWrite:
			a.Mov(arm.X0, armVRegs[o.rd])
			a.Mov(arm.X1, armVRegs[o.rs])
			a.MovImm(arm.X8, machine.SysWrite)
			a.Svc(0)
		case opSpawn:
			// Carve a stack from the cursor cell, then spawn.
			a.MovImm(armS1, b.stackCell)
			a.Ldr(arm.X2, armS1, 0, 8)
			a.MovImm(armS2, nativeStackSize)
			a.Sub(arm.X2, arm.X2, armS2)
			a.Str(arm.X2, armS1, 0, 8)
			a.MovSym(arm.X0, o.name)
			a.Mov(arm.X1, armVRegs[o.rs])
			a.MovImm(arm.X8, machine.SysSpawn)
			a.Svc(0)
			a.Mov(armVRegs[o.rd], arm.X0)
		case opJoin:
			a.Mov(arm.X0, armVRegs[o.rs])
			a.MovImm(arm.X8, machine.SysJoin)
			a.Svc(0)
			a.Mov(armVRegs[o.rd], arm.X0)
		case opSetCArg, opGetCRet, opCArg, opSetCRet:
			return nil, fmt.Errorf("portasm: C-ABI ops have no native lowering")
		default:
			return nil, fmt.Errorf("portasm: arm emitter: unknown op %d", o.kind)
		}
	}

	code, syms, err := a.Assemble(TextBase)
	if err != nil {
		return nil, err
	}
	ent, ok := syms[entry]
	if !ok {
		return nil, fmt.Errorf("portasm: entry label %q undefined", entry)
	}

	// Seed the spawn-stack cursor.
	data := make([]guestimg.Segment, len(b.data))
	for i, s := range b.data {
		data[i] = guestimg.Segment{Addr: s.Addr, Data: append([]byte(nil), s.Data...)}
		if b.stackCell != 0 && s.Addr <= b.stackCell && b.stackCell+8 <= s.Addr+uint64(len(s.Data)) {
			binary.LittleEndian.PutUint64(data[i].Data[b.stackCell-s.Addr:], nativeStackInit)
		}
	}

	return &guestimg.Image{
		Entry:    ent,
		Segments: append([]guestimg.Segment{{Addr: TextBase, Data: code}}, data...),
		Symbols:  syms,
	}, nil
}

func armAluRI(a *arm.Assembler, o op) {
	rd := armVRegs[o.rd]
	imm := o.imm
	switch o.alu {
	case Add:
		if imm >= 0 && imm <= 0xFFF {
			a.AddI(rd, rd, imm)
			return
		}
		if imm < 0 && -imm <= 0xFFF {
			a.SubI(rd, rd, -imm)
			return
		}
	case Sub:
		if imm >= 0 && imm <= 0xFFF {
			a.SubI(rd, rd, imm)
			return
		}
		if imm < 0 && -imm <= 0xFFF {
			a.AddI(rd, rd, -imm)
			return
		}
	case And:
		if imm >= 0 && imm <= 0xFFF {
			a.AndI(rd, rd, imm)
			return
		}
	case Or:
		if imm >= 0 && imm <= 0xFFF {
			a.Raw(arm.Inst{Op: arm.ORRI, Rd: rd, Rn: rd, Imm: imm})
			return
		}
	case Xor:
		if imm >= 0 && imm <= 0xFFF {
			a.Raw(arm.Inst{Op: arm.EORI, Rd: rd, Rn: rd, Imm: imm})
			return
		}
	case Shl:
		a.LslI(rd, rd, imm&63)
		return
	case Shr:
		a.LsrI(rd, rd, imm&63)
		return
	}
	a.MovImm(armS1, uint64(imm))
	a.Raw(arm.Inst{Op: armAluRR[o.alu], Rd: rd, Rn: rd, Rm: armS1})
}

// RunNative loads a native image into a fresh machine and runs it to
// completion, returning the machine for inspection.
func RunNative(img *guestimg.Image, maxSteps uint64) (*machine.Machine, error) {
	return RunNativeQuantum(img, 64, maxSteps)
}

// RunNativeQuantum is RunNative with an explicit round-robin quantum
// (small quanta interleave threads finely, letting CAS loops genuinely
// contend).
func RunNativeQuantum(img *guestimg.Image, quantum int, maxSteps uint64) (*machine.Machine, error) {
	m := machine.New(NativeMemSize)
	m.Syscall = machine.NativeSyscall
	if err := img.Load(m); err != nil {
		return nil, err
	}
	c := m.CPUs[0]
	c.PC = img.Entry
	c.Regs[27] = NativeMainSP
	if maxSteps == 0 {
		maxSteps = 2_000_000_000
	}
	if err := m.RunAll(quantum, maxSteps); err != nil {
		return nil, err
	}
	return m, nil
}
