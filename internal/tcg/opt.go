package tcg

import (
	"slices"

	"repro/internal/memmodel"
	"repro/internal/obs"
)

// OptConfig selects optimizer passes. The zero value disables everything;
// DefaultOpt enables the full verified pipeline.
type OptConfig struct {
	// ConstProp enables constant propagation and folding (which subsumes
	// false-dependency elimination such as x*0 → 0, §6.1).
	ConstProp bool
	// AccessElim enables the Figure-10 redundant shared-memory access
	// eliminations (RAR/RAW/WAW and their fence-aware forms).
	AccessElim bool
	// FenceMerge enables merging of adjacent fences into one stronger
	// fence placed at the earliest position (§6.1).
	FenceMerge bool
	// DeadCode enables dead code elimination (never removes memory
	// accesses or fences; see Inst.HasSideEffects).
	DeadCode bool
	// Obs, when non-nil, receives per-pass effect counters under its
	// "tcg" child scope (const_folds, accesses_forwarded,
	// stores_eliminated, fences_merged, dead_insts).
	Obs *obs.Scope
}

// DefaultOpt enables every verified pass.
func DefaultOpt() OptConfig {
	return OptConfig{ConstProp: true, AccessElim: true, FenceMerge: true, DeadCode: true}
}

// Degrade returns a copy of cfg with optimization backed off by level —
// the per-tier pass selection of the self-healing ladder. Level 0 keeps
// cfg unchanged; level 1 disables fence merging (the pass that moves and
// coalesces barriers); level 2 and beyond disable every pass, yielding
// the frontend's literal IR. The Obs hook is preserved at every level.
func (cfg OptConfig) Degrade(level int) OptConfig {
	switch {
	case level <= 0:
		return cfg
	case level == 1:
		cfg.FenceMerge = false
		return cfg
	default:
		return OptConfig{Obs: cfg.Obs}
	}
}

// Optimize runs the configured passes in order. All passes assume the
// frontend's invariant that intra-block branches only jump forward. Every
// pass rewrites b.Insts in place and returns how many rewrites it made;
// only the final removeNops changes the length.
func Optimize(b *Block, cfg OptConfig) {
	sc := cfg.Obs.Child("tcg")
	if cfg.ConstProp {
		sc.Counter("const_folds").Add(constProp(b))
	}
	if cfg.AccessElim {
		forwarded, dropped := accessElim(b)
		sc.Counter("accesses_forwarded").Add(forwarded)
		sc.Counter("stores_eliminated").Add(dropped)
	}
	if cfg.FenceMerge {
		sc.Counter("fences_merged").Add(mergeFences(b))
	}
	if cfg.DeadCode {
		sc.Counter("dead_insts").Add(deadCode(b))
	}
	removeNops(b)
}

// --- Constant propagation and folding --------------------------------------

// constProp returns how many instructions it rewrote.
func constProp(b *Block) (folds uint64) {
	known := make(map[Temp]int64)
	for idx := range b.Insts {
		in := &b.Insts[idx]
		// fold rewrites the instruction into the constant it computes.
		fold := func(v int64) {
			*in = Inst{Op: OpMovI, Dst: in.Dst, Imm: v}
			folds++
		}
		av, aok := known[in.A]
		bv, bok := known[in.B]
		switch in.Op {
		case OpSetLabel:
			// Join point: a branch may arrive with different values.
			known = make(map[Temp]int64)
			continue
		case OpCall:
			// Helpers may rewrite guest state.
			for t := Temp(0); t < NumGlobals; t++ {
				delete(known, t)
			}
		case OpMov:
			if aok {
				fold(av)
			}
		case OpAdd, OpSub, OpMul, OpUDiv, OpURem, OpAnd, OpOr, OpXor,
			OpShl, OpShr, OpSar:
			if aok && bok {
				fold(foldALU(in.Op, av, bv))
			} else if simplifyALU(in, aok, av, bok, bv) {
				folds++
			}
		case OpNeg:
			if aok {
				fold(-av)
			}
		case OpNot:
			if aok {
				fold(^av)
			}
		case OpSetcond:
			if aok && bok {
				var v int64
				if in.Cond.Eval(uint64(av), uint64(bv)) {
					v = 1
				}
				fold(v)
			}
		case OpBrcond:
			if aok && bok {
				if in.Cond.Eval(uint64(av), uint64(bv)) {
					*in = Inst{Op: OpBr, Label: in.Label}
				} else {
					*in = Inst{Op: OpNop}
				}
				folds++
			}
		}
		// What the instruction, as rewritten, leaves in its destination: a
		// simplified ALU op became a movi or a mov of its unknown operand.
		if in.Op == OpMovI {
			known[in.Dst] = in.Imm
		} else if in.HasDst() {
			delete(known, in.Dst)
		}
	}
	return folds
}

func foldALU(op Opcode, a, b int64) int64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpUDiv:
		if b == 0 {
			return 0
		}
		return int64(uint64(a) / uint64(b))
	case OpURem:
		if b == 0 {
			return a
		}
		return int64(uint64(a) % uint64(b))
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return int64(shiftFold(uint64(a), uint64(b), false))
	case OpShr:
		return int64(shiftFold(uint64(a), uint64(b), true))
	case OpSar:
		if uint64(b) >= 64 {
			return a >> 63
		}
		return a >> uint64(b)
	}
	return 0
}

func shiftFold(v, by uint64, right bool) uint64 {
	if by >= 64 {
		return 0
	}
	if right {
		return v >> by
	}
	return v << by
}

// simplifyALU applies single-operand identities; returns true if the
// instruction was rewritten. This includes the false-dependency
// eliminations the paper calls out (x*0 → 0), which are trivially correct
// under the IR model because it orders nothing through dependencies.
func simplifyALU(in *Inst, aok bool, av int64, bok bool, bv int64) bool {
	mov := func(src Temp) { *in = Inst{Op: OpMov, Dst: in.Dst, A: src} }
	movi := func(v int64) { *in = Inst{Op: OpMovI, Dst: in.Dst, Imm: v} }
	switch in.Op {
	case OpMul:
		if (aok && av == 0) || (bok && bv == 0) {
			movi(0)
			return true
		}
		if aok && av == 1 {
			mov(in.B)
			return true
		}
		if bok && bv == 1 {
			mov(in.A)
			return true
		}
	case OpAnd:
		if (aok && av == 0) || (bok && bv == 0) {
			movi(0)
			return true
		}
	case OpAdd, OpOr, OpXor:
		if aok && av == 0 {
			mov(in.B)
			return true
		}
		if bok && bv == 0 {
			mov(in.A)
			return true
		}
	case OpSub, OpShl, OpShr, OpSar:
		if bok && bv == 0 {
			mov(in.A)
			return true
		}
	}
	return false
}

// --- Redundant access elimination (Figure 10) -------------------------------

// FenceMask is a set of fence kinds: bit f is set iff memmodel.Fence(f) is
// in it.
type FenceMask uint32

// Fences returns the set holding exactly the given kinds.
func Fences(kinds ...memmodel.Fence) FenceMask {
	var m FenceMask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Has reports whether k is in the set.
func (m FenceMask) Has(k memmodel.Fence) bool { return m&(1<<k) != 0 }

// Rewrite is what a Figure-10 row does to the pair of accesses it matches.
type Rewrite uint8

const (
	// ForwardValue turns the later load into a copy of the value the
	// earlier access loaded or stored.
	ForwardValue Rewrite = iota
	// DropEarlier deletes the earlier store.
	DropEarlier
)

// Rule is one row of Figure 10: two accesses to the same location in one
// block, the fences that may stand between them, and the rewrite.
type Rule struct {
	// Name is the paper's: RAR, RAW, WAW (the F- forms are the same row
	// with a non-empty set of fences crossed).
	Name string
	// Earlier and Later are the kinds of the two accesses, in program
	// order.
	Earlier, Later memmodel.Kind
	// Cross is the set of fence kinds the pair may be separated by; any
	// other fence between them blocks the rewrite.
	Cross FenceMask
	// Rewrite is what happens to the pair.
	Rewrite Rewrite
}

// Figure10 is everything the optimizer knows about eliminating plain
// accesses under the TCG-IR memory model (§5.4, Figure 10): accessElim
// rewrites a pair iff a row here matches it, and the tests prove each row.
// Facq and Frel order nothing in the IR model (tcgmm.Ord does not mention
// them), so every row may cross them.
//
// Precondition: the block is the image of an x86→IR table that brackets
// every access — Figure 7a: every ld followed by Frm, every st preceded by
// Fww — possibly with further fences added. The rows are not sound on bare
// IR: `e=Y; a=X; Frm; b=X` orders e before b through the Frm, and nothing
// orders e before a once b is a copy of a; §3.2's FMR example is the same
// loss for RAW with the fence in front of the pair, and accessElim does
// perform that rewrite. On an image the bracket fences keep every such
// ordering alive (TestFigure10SoundOnImages), and frontend's blocks are
// images (TestFrontendEmitsImages). On images of Figure 2 (Frr;ld, Fmw;st)
// no row ever matches, because Frr and Fmw are in no row; the no-fences
// scheme leaves bare IR and is unsound by design.
var Figure10 = [...]Rule{
	{Name: "RAR", Earlier: memmodel.KindRead, Later: memmodel.KindRead, Rewrite: ForwardValue,
		Cross: Fences(memmodel.FenceFrm, memmodel.FenceFww, memmodel.FenceFacq, memmodel.FenceFrel)},
	{Name: "RAW", Earlier: memmodel.KindWrite, Later: memmodel.KindRead, Rewrite: ForwardValue,
		Cross: Fences(memmodel.FenceFsc, memmodel.FenceFww, memmodel.FenceFacq, memmodel.FenceFrel)},
	{Name: "WAW", Earlier: memmodel.KindWrite, Later: memmodel.KindWrite, Rewrite: DropEarlier,
		Cross: Fences(memmodel.FenceFrm, memmodel.FenceFww, memmodel.FenceFacq, memmodel.FenceFrel)},
}

// ruleFor returns the row for an earlier and a later access of the given
// kinds, or nil: a load followed by a store has none.
func ruleFor(earlier, later memmodel.Kind) *Rule {
	for i := range Figure10 {
		if r := &Figure10[i]; r.Earlier == earlier && r.Later == later {
			return r
		}
	}
	return nil
}

// accessKey identifies a definitely-same memory location within a block.
type accessKey struct {
	base Temp
	off  int64
	size uint8
}

// accessEntry is the most recent access to a location that a later access
// to it may still be paired with.
type accessEntry struct {
	key     accessKey
	kind    memmodel.Kind
	valTemp Temp      // temp holding the location's current value
	instIdx int       // index of the access instruction (for WAW removal)
	crossed FenceMask // fences seen since the access
}

func overlapKeys(a, b accessKey) bool {
	if a.base != b.base {
		return true // different bases: possible alias, conservatively overlap
	}
	return a.off < b.off+int64(b.size) && b.off < a.off+int64(a.size)
}

// accessElim applies Figure10 to b and returns how many loads it turned
// into copies and how many stores it dropped.
func accessElim(b *Block) (forwarded, dropped uint64) {
	var entries []accessEntry // at most one per key
	forgetTemp := func(t Temp) {
		entries = slices.DeleteFunc(entries, func(e accessEntry) bool {
			return e.key.base == t || e.valTemp == t
		})
	}

	for idx := range b.Insts {
		in := &b.Insts[idx]
		switch in.Op {
		case OpLd, OpSt:
			e := accessEntry{key: accessKey{in.A, in.Imm, in.Size}, instIdx: idx}
			if in.Op == OpLd {
				e.kind, e.valTemp = memmodel.KindRead, in.Dst
			} else {
				e.kind, e.valTemp = memmodel.KindWrite, in.B
			}
			if i := slices.IndexFunc(entries, func(p accessEntry) bool { return p.key == e.key }); i >= 0 {
				prev := entries[i]
				if r := ruleFor(prev.kind, e.kind); r != nil && prev.crossed&^r.Cross == 0 {
					switch r.Rewrite {
					case DropEarlier:
						b.Insts[prev.instIdx] = Inst{Op: OpNop}
						dropped++
					case ForwardValue:
						// A store is forwarded to full-width loads only: a
						// sub-8-byte load zero-extends the stored low
						// bytes, which a register copy would not reproduce.
						if prev.kind == memmodel.KindRead || e.key.size == 8 {
							*in = Inst{Op: OpMov, Dst: in.Dst, A: prev.valTemp}
							forwarded++
							forgetTemp(in.Dst)
							continue
						}
					}
				}
			}
			// The access stays, and is now the current one for everything
			// it may overlap.
			if in.Op == OpLd {
				forgetTemp(in.Dst)
			}
			entries = slices.DeleteFunc(entries, func(p accessEntry) bool { return overlapKeys(p.key, e.key) })
			// A load clobbering its own address base cannot be recorded:
			// the key would describe a different location afterwards.
			if in.Op == OpSt || in.Dst != in.A {
				entries = append(entries, e)
			}
		case OpMb:
			for i := range entries {
				entries[i].crossed |= 1 << in.Fence
			}
		case OpCAS, OpXAdd, OpXchg, OpCall,
			OpSetLabel, OpBr, OpBrcond, OpExit, OpExitInd, OpExitHalt:
			entries = entries[:0]
		default:
			if in.HasDst() {
				forgetTemp(in.Dst)
			}
		}
	}
	return forwarded, dropped
}

// --- Fence merging ----------------------------------------------------------

// Fence ordering sets: bit 0 = rr, 1 = rw, 2 = wr, 3 = ww, 4 = sc.
const (
	fRR = 1 << iota
	fRW
	fWR
	fWW
	fSC
)

// fenceSets is the merge lattice (§6.1): which access pairs each mergeable
// fence orders. Facq/Frel are not in it and are never merged.
var fenceSets = map[memmodel.Fence]int{
	memmodel.FenceFrr: fRR,
	memmodel.FenceFrw: fRW,
	memmodel.FenceFrm: fRR | fRW,
	memmodel.FenceFwr: fWR,
	memmodel.FenceFww: fWW,
	memmodel.FenceFwm: fWR | fWW,
	memmodel.FenceFmr: fRR | fWR,
	memmodel.FenceFmw: fRW | fWW,
	memmodel.FenceFmm: fRR | fRW | fWR | fWW,
	memmodel.FenceFsc: fRR | fRW | fWR | fWW | fSC,
}

// setToFence maps each non-empty ordering set to the weakest fence kind
// covering it: the cover whose own set lies inside every other cover's.
// The lattice has exactly one such cover per set, so the map's iteration
// order cannot show.
var setToFence = func() (weakest [fSC << 1]memmodel.Fence) {
	for set := 1; set < len(weakest); set++ {
		best := 0 // the set of weakest[set]; 0 until a cover is found
		for f, s := range fenceSets {
			if s&set == set && (best == 0 || s&best == s) {
				weakest[set], best = f, s
			}
		}
	}
	return weakest
}()

// mergeFences returns how many fences it merged away.
func mergeFences(b *Block) (merged uint64) {
	pending := -1 // index of the fence we may merge into
	for idx := range b.Insts {
		in := &b.Insts[idx]
		switch in.Op {
		case OpMb:
			set, mergeable := fenceSets[in.Fence]
			if !mergeable {
				pending = -1 // Facq/Frel are not merged
				continue
			}
			if pending >= 0 {
				prev := &b.Insts[pending]
				prev.Fence = setToFence[fenceSets[prev.Fence]|set]
				*in = Inst{Op: OpNop}
				merged++
				continue
			}
			pending = idx
		case OpNop, OpMovI, OpMov, OpAdd, OpSub, OpMul, OpUDiv, OpURem,
			OpAnd, OpOr, OpXor, OpShl, OpShr, OpSar, OpNeg, OpNot, OpSetcond:
			// Non-memory ops do not separate fences.
		default:
			pending = -1
		}
	}
	return merged
}

// --- Dead code elimination ----------------------------------------------------

// deadCode returns how many instructions it removed.
func deadCode(b *Block) (dead uint64) {
	live := make(map[Temp]bool)
	for t := Temp(0); t < NumGlobals; t++ {
		live[t] = true
	}
	liveAtLabel := make(map[int]map[Temp]bool)

	cloneLive := func(m map[Temp]bool) map[Temp]bool {
		c := make(map[Temp]bool, len(m))
		for k, v := range m {
			if v {
				c[k] = true
			}
		}
		return c
	}

	for idx := len(b.Insts) - 1; idx >= 0; idx-- {
		in := &b.Insts[idx]
		switch in.Op {
		case OpCall:
			// Helpers read guest state beyond their explicit arguments
			// (the cmpxchg helper reads guest RAX, the syscall helper the
			// guest argument registers), so every global is live across a
			// call — even one the block overwrites just below it. Only a
			// local result temp is defined by the call.
			if in.Dst >= NumGlobals {
				delete(live, in.Dst)
			}
			for t := Temp(0); t < NumGlobals; t++ {
				live[t] = true
			}
			for _, u := range in.Uses() {
				live[u] = true
			}
			continue
		case OpExit, OpExitInd, OpExitHalt:
			// Every global is live at an exit — the dispatcher reads the
			// full guest state there. The end-of-block exit matches the
			// scan's initial state, but a mid-block side exit (a
			// superblock seam, or the not-taken arm of a conditional)
			// must restore globals the scan has since consumed.
			for t := Temp(0); t < NumGlobals; t++ {
				live[t] = true
			}
			for _, u := range in.Uses() {
				live[u] = true
			}
			continue
		case OpSetLabel:
			liveAtLabel[in.Label] = cloneLive(live)
			continue
		case OpBr:
			if l, ok := liveAtLabel[in.Label]; ok {
				live = cloneLive(l)
			}
			continue
		case OpBrcond:
			if l, ok := liveAtLabel[in.Label]; ok {
				for t := range l {
					live[t] = true
				}
			}
			live[in.A] = true
			live[in.B] = true
			continue
		}
		if in.HasDst() && !in.HasSideEffects() && !live[in.Dst] {
			*in = Inst{Op: OpNop}
			dead++
			continue
		}
		if in.HasDst() {
			delete(live, in.Dst)
		}
		for _, u := range in.Uses() {
			live[u] = true
		}
	}
	return dead
}

func removeNops(b *Block) {
	out := b.Insts[:0]
	for _, in := range b.Insts {
		if in.Op != OpNop {
			out = append(out, in)
		}
	}
	b.Insts = out
}
