package tcg

import (
	"errors"
	"fmt"
)

// Typed interpreter failure causes, exposed so embedders (the interpreter
// execution tier in internal/core) can classify errors.Is-style instead of
// string-matching.
var (
	// ErrInterpOOB marks a memory access outside the interpreter's memory.
	ErrInterpOOB = errors.New("access out of bounds")
	// ErrInterpBudget marks interpreter step-budget exhaustion (a runaway
	// intra-block loop).
	ErrInterpBudget = errors.New("step budget exhausted")
)

// Interp is a single-threaded reference interpreter for IR blocks. Tests
// use it to differential-test the optimizer (same final state before and
// after passes) and the frontend (IR semantics match guest semantics); the
// DBT runtime uses it as the executable oracle of -selfcheck shadow runs
// and as the bottom rung of the self-healing tier ladder.
type Interp struct {
	// Temps holds every temp's value.
	Temps []uint64
	// Mem is the flat memory.
	Mem []byte
	// NextPC receives the exit target of OpExit/OpExitInd.
	NextPC uint64
	// Halted is set by OpExitHalt.
	Halted bool
	// Steps accumulates executed op counts across Run calls, so embedders
	// can charge interpreted work against instruction budgets.
	Steps int
	// Calls records helper invocations (helper, a, b) for inspection;
	// helper results are produced by OnCall when set.
	Calls [][3]uint64
	// OnCall, when set, serves helper calls and may fail. Its result
	// follows the backend's register convention: it is written to Dst only
	// when Dst is a local temp (globals are updated by the handler itself,
	// exactly like the compiled helper path).
	OnCall func(in Inst, a, b uint64) (uint64, error)
}

// NewInterp returns an interpreter with memSize bytes of memory.
func NewInterp(b *Block, memSize int) *Interp {
	return &Interp{
		Temps: make([]uint64, b.NumTemps),
		Mem:   make([]byte, memSize),
	}
}

func (it *Interp) load(addr uint64, size uint8) (uint64, error) {
	if addr+uint64(size) > uint64(len(it.Mem)) || addr+uint64(size) < addr {
		return 0, fmt.Errorf("tcg interp: load [%#x,+%d): %w", addr, size, ErrInterpOOB)
	}
	var v uint64
	for i := uint8(0); i < size; i++ {
		v |= uint64(it.Mem[addr+uint64(i)]) << (8 * i)
	}
	return v, nil
}

func (it *Interp) store(addr uint64, size uint8, v uint64) error {
	if addr+uint64(size) > uint64(len(it.Mem)) || addr+uint64(size) < addr {
		return fmt.Errorf("tcg interp: store [%#x,+%d): %w", addr, size, ErrInterpOOB)
	}
	for i := uint8(0); i < size; i++ {
		it.Mem[addr+uint64(i)] = byte(v >> (8 * i))
	}
	return nil
}

// Run executes the block from its first instruction to an exit (or to the
// end of the op list).
func (it *Interp) Run(b *Block) error {
	labelPos := make(map[int]int)
	for i, in := range b.Insts {
		if in.Op == OpSetLabel {
			labelPos[in.Label] = i
		}
	}
	steps := 0
	defer func() { it.Steps += steps }()
	for pc := 0; pc < len(b.Insts); pc++ {
		if steps++; steps > 1_000_000 {
			return fmt.Errorf("tcg interp: %w", ErrInterpBudget)
		}
		in := b.Insts[pc]
		t := it.Temps
		switch in.Op {
		case OpNop, OpSetLabel, OpMb:
		case OpMovI:
			t[in.Dst] = uint64(in.Imm)
		case OpMov:
			t[in.Dst] = t[in.A]
		case OpAdd, OpSub, OpMul, OpUDiv, OpURem, OpAnd, OpOr, OpXor,
			OpShl, OpShr, OpSar:
			t[in.Dst] = uint64(foldALU(in.Op, int64(t[in.A]), int64(t[in.B])))
		case OpNeg:
			t[in.Dst] = -t[in.A]
		case OpNot:
			t[in.Dst] = ^t[in.A]
		case OpSetcond:
			if in.Cond.Eval(t[in.A], t[in.B]) {
				t[in.Dst] = 1
			} else {
				t[in.Dst] = 0
			}
		case OpLd:
			v, err := it.load(t[in.A]+uint64(in.Imm), in.Size)
			if err != nil {
				return err
			}
			t[in.Dst] = v
		case OpSt:
			if err := it.store(t[in.A]+uint64(in.Imm), in.Size, t[in.B]); err != nil {
				return err
			}
		case OpCAS:
			old, err := it.load(t[in.A], in.Size)
			if err != nil {
				return err
			}
			if old == trunc(t[in.B], in.Size) {
				if err := it.store(t[in.A], in.Size, t[in.C]); err != nil {
					return err
				}
			}
			t[in.Dst] = old
		case OpXAdd:
			old, err := it.load(t[in.A], in.Size)
			if err != nil {
				return err
			}
			if err := it.store(t[in.A], in.Size, old+t[in.B]); err != nil {
				return err
			}
			t[in.Dst] = old
		case OpXchg:
			old, err := it.load(t[in.A], in.Size)
			if err != nil {
				return err
			}
			if err := it.store(t[in.A], in.Size, t[in.B]); err != nil {
				return err
			}
			t[in.Dst] = old
		case OpBr:
			pos, ok := labelPos[in.Label]
			if !ok {
				return fmt.Errorf("tcg interp: undefined label L%d", in.Label)
			}
			pc = pos
		case OpBrcond:
			if in.Cond.Eval(t[in.A], t[in.B]) {
				pos, ok := labelPos[in.Label]
				if !ok {
					return fmt.Errorf("tcg interp: undefined label L%d", in.Label)
				}
				pc = pos
			}
		case OpCall:
			it.Calls = append(it.Calls, [3]uint64{uint64(in.Helper), t[in.A], t[in.B]})
			if it.OnCall != nil {
				res, err := it.OnCall(in, t[in.A], t[in.B])
				if err != nil {
					return err
				}
				if in.Dst >= NumGlobals {
					t[in.Dst] = res
				}
			}
		case OpExit:
			it.NextPC = uint64(in.Imm)
			return nil
		case OpExitInd:
			it.NextPC = t[in.A]
			return nil
		case OpExitHalt:
			it.Halted = true
			return nil
		default:
			return fmt.Errorf("tcg interp: unimplemented op %v", in.Op)
		}
	}
	return nil
}

func trunc(v uint64, size uint8) uint64 {
	if size >= 8 {
		return v
	}
	return v & (1<<(8*size) - 1)
}
