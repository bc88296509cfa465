// Hot-trace superblocks: Concat stitches the frontend IR of several
// translation blocks — a hot block plus the successors its recorded exits
// chain into — into one multi-block unit, so the optimizer passes see
// across guest branch boundaries. The paper's fence merging is limited to
// one basic block per translation unit; a superblock recovers the
// cross-block merges (a trailing Frm at one block's end against a leading
// Fww at the next block's start) that the per-block scheme cannot.
//
// Junction discipline: a component's constant exit to the next component's
// entry PC is rewritten into straight-line flow. When that exit is the
// component's final instruction it is simply dropped — no label is
// inserted, which is what lets mergeFences coalesce fences across the
// seam. A non-final exit to the successor (e.g. the taken arm of a
// conditional) becomes a forward branch to a junction label, preserving
// the frontend's forward-branch invariant; fences do not merge across a
// label, so only straight-line seams contribute cross-block merges.
// Every other exit keeps exiting the superblock to the dispatcher.

package tcg

import "fmt"

// Concat stitches a trace of translation blocks into one superblock.
// blocks[i+1] must be the guest successor blocks[i] chains into (its
// GuestPC must appear among blocks[i]'s constant exit targets). Labels are
// renumbered per component; temps are deliberately NOT renumbered — each
// component's locals are dead at its exits, and reusing their indices
// keeps the superblock within the backend's small local-register file
// (NumTemps is the maximum over components, not the sum).
func Concat(blocks []*Block) (*Block, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("tcg: superblock trace is empty")
	}
	if len(blocks) == 1 {
		return blocks[0].Clone(), nil
	}
	out := &Block{
		NumTemps: NumGlobals,
		GuestPC:  blocks[0].GuestPC,
		GuestEnd: blocks[len(blocks)-1].GuestEnd,
	}
	for i, b := range blocks {
		out.guestBytes += b.GuestBytes()
		if b.NumTemps > out.NumTemps {
			out.NumTemps = b.NumTemps
		}
		base := out.NumLabels
		out.NumLabels += b.NumLabels
		last := i == len(blocks)-1
		var nextPC uint64
		if !last {
			nextPC = blocks[i+1].GuestPC
		}
		junction := -1 // lazily allocated label at the seam
		linked := false
		for j := range b.Insts {
			in := b.Insts[j]
			switch in.Op {
			case OpSetLabel, OpBr, OpBrcond:
				in.Label += base
			case OpExit:
				if !last && uint64(in.Imm) == nextPC {
					linked = true
					if j == len(b.Insts)-1 {
						// Straight-line seam: fall through with no label,
						// keeping the junction mergeable.
						continue
					}
					if junction < 0 {
						junction = out.NumLabels
						out.NumLabels++
					}
					in = Inst{Op: OpBr, Label: junction}
				}
			}
			out.Insts = append(out.Insts, in)
		}
		if !last && !linked {
			return nil, fmt.Errorf(
				"tcg: trace component %d (guest %#x) has no exit to successor %#x",
				i, b.GuestPC, nextPC)
		}
		if junction >= 0 {
			out.Insts = append(out.Insts, Inst{Op: OpSetLabel, Label: junction})
		}
	}
	return out, nil
}

// ExitTargets returns the distinct constant exit targets of b, in first-
// occurrence order — the chain edges a superblock builder may follow.
func (b *Block) ExitTargets() []uint64 {
	var out []uint64
	seen := make(map[uint64]bool)
	for i := range b.Insts {
		if b.Insts[i].Op != OpExit {
			continue
		}
		pc := uint64(b.Insts[i].Imm)
		if !seen[pc] {
			seen[pc] = true
			out = append(out, pc)
		}
	}
	return out
}

// CountOp counts instructions with the given opcode — exported so the
// runtime's superblock pipeline can compare fence counts between
// separately-optimized components and the optimized superblock.
func (b *Block) CountOp(op Opcode) uint64 {
	var n uint64
	for i := range b.Insts {
		if b.Insts[i].Op == op {
			n++
		}
	}
	return n
}

// CrossBlockFences reports how many fences an optimized superblock saved
// over optimizing its components separately: each component clone is run
// through the same pass configuration on its own, their remaining fences
// are summed, and the difference against the optimized superblock's fence
// count is the cross-block merge gain (never negative).
func CrossBlockFences(components []*Block, optimizedSuper *Block, cfg OptConfig) uint64 {
	cfg.Obs = nil // side computation: keep the pass counters clean
	var separate uint64
	for _, c := range components {
		cc := c.Clone()
		Optimize(cc, cfg)
		separate += cc.CountOp(OpMb)
	}
	super := optimizedSuper.CountOp(OpMb)
	if separate <= super {
		return 0
	}
	return separate - super
}
