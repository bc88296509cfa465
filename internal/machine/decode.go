package machine

import (
	"math/bits"

	"repro/internal/isa/arm"
)

// A decode page covers 64 instruction slots — 256 bytes of code — so its
// validity fits one word and a machine that fetches ~100 contiguous
// instructions (an explore re-execution) pays for two or three pages.
const (
	decodePageShift = 6
	decodePageSlots = 1 << decodePageShift
	decodePageBytes = decodePageSlots * arm.InstBytes
)

// decodeTable caches decoded instructions in a dense two-level table
// indexed by PC/4. The upper level is a window of pages that starts at the
// lowest code page fetched so far and grows to the highest, so its size
// follows the code executed, not the memory size; a page's slots are
// allocated on first fetch. A slot is trusted only while its bit in valid
// is set: invalidation clears bits and keeps the slots.
//
// A page also marks the slots that end a run (endsRun), so the run that
// starts at a slot — the valid slots up to and including the next run end,
// or up to the first slot that is not valid, or to the end of the page —
// is two words and a bit scan away, and is never stale: rewriting a slot
// rewrites its mark, and a slot that is not valid stops every run that
// reaches it.
//
// The zero value is an empty table.
type decodeTable struct {
	base  uint64 // page number of pages[0]
	pages []decodePage
}

type decodePage struct {
	valid uint64 // bit s: insts[s] decodes the word in Mem
	ends  uint64 // bit s: insts[s] ends a run
	insts *[decodePageSlots]arm.Inst
}

// endsRun reports whether op can leave the next PC anything but PC+4,
// halt, or call a hook: a run executes up to and including it.
func endsRun(op arm.Op) bool {
	switch op {
	case arm.B, arm.BL, arm.BCOND, arm.CBZ, arm.CBNZ, arm.BR, arm.BLR, arm.RET, arm.SVC, arm.HLT:
		return true
	}
	return false
}

// lookup returns the cached decode of pc, or nil. Only 4-aligned PCs are
// ever cached: a slot is a whole instruction word.
func (t *decodeTable) lookup(pc uint64) *arm.Inst {
	// pc below the window wraps to a huge index and fails the bound.
	i := pc/decodePageBytes - t.base
	if pc%arm.InstBytes != 0 || i >= uint64(len(t.pages)) {
		return nil
	}
	p := &t.pages[i]
	s := pc / arm.InstBytes % decodePageSlots
	if p.valid>>s&1 == 0 {
		return nil
	}
	return &p.insts[s]
}

// runAt returns the run that starts at pc: its page's slots, the index of
// its first slot and its length, which is 0 when pc's slot is not valid.
func (t *decodeTable) runAt(pc uint64) (insts *[decodePageSlots]arm.Inst, s, n int) {
	i := pc/decodePageBytes - t.base
	if pc%arm.InstBytes != 0 || i >= uint64(len(t.pages)) {
		return nil, 0, 0
	}
	p := &t.pages[i]
	s = int(pc / arm.InstBytes % decodePageSlots)
	// Bit k of stop: slot s+k ends a run or is not valid.
	stop := (p.ends | ^p.valid) >> s
	if stop == 0 {
		return p.insts, s, decodePageSlots - s
	}
	// A valid stop slot ends the run and belongs to it; one that is not
	// valid is left for a fetch of its own.
	k := bits.TrailingZeros64(stop)
	return p.insts, s, k + int(p.valid>>(s+k)&1)
}

// insert caches inst as the decode of the 4-aligned pc and returns the
// cached copy.
func (t *decodeTable) insert(pc uint64, inst arm.Inst) *arm.Inst {
	pn := pc / decodePageBytes
	switch {
	case len(t.pages) == 0:
		t.base = pn
	case pn < t.base:
		grow := int(t.base - pn)
		t.pages = append(make([]decodePage, grow, grow+len(t.pages)), t.pages...)
		t.base = pn
	}
	for pn-t.base >= uint64(len(t.pages)) {
		t.pages = append(t.pages, decodePage{})
	}
	p := &t.pages[pn-t.base]
	if p.insts == nil {
		p.insts = new([decodePageSlots]arm.Inst)
	}
	s := pc / arm.InstBytes % decodePageSlots
	p.insts[s] = inst
	p.valid |= 1 << s
	p.ends &^= 1 << s
	if endsRun(inst.Op) {
		p.ends |= 1 << s
	}
	return &p.insts[s]
}

// invalidate forgets the decode of every slot overlapping [addr, addr+n);
// the caller has checked that the range lies in memory. Slots outside the
// window hold nothing to forget.
func (t *decodeTable) invalidate(addr, n uint64) {
	lo, hi := t.base*decodePageSlots, (t.base+uint64(len(t.pages)))*decodePageSlots
	first, end := max(addr/arm.InstBytes, lo), min((addr+n+arm.InstBytes-1)/arm.InstBytes, hi)
	for s := first; s < end; s++ {
		t.pages[s/decodePageSlots-t.base].valid &^= 1 << (s % decodePageSlots)
	}
}

// invalidateAll forgets every decode.
func (t *decodeTable) invalidateAll() {
	for i := range t.pages {
		t.pages[i].valid = 0
	}
}
