package machine

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/isa/arm"
)

// A decode page covers 64 instruction slots — 256 bytes of code — so its
// validity fits one word and a machine that fetches ~100 contiguous
// instructions (a compiled litmus program) pays for two or three pages.
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
// A machine's Reset suspends the valid slots instead of forgetting them
// (suspendAll): a suspended slot is not valid, so a fetch decodes memory
// afresh as on a new machine, but a later Write that leaves the slot's
// whole word in memory equal to the word it decoded revalidates it. The
// raw words live in the slot block beside the decodes, so a reload of the
// same code (opcheck's walks) costs a word compare per slot and no
// decode.
//
// A page also marks the slots that end a run (endsRun), so the run that
// starts at a slot — the valid slots up to and including the next run end,
// or up to the first slot that is not valid, or to the end of the page —
// is two words and a bit scan away, and is never stale: rewriting a slot
// rewrites its mark, and a slot that is not valid stops every run that
// reaches it. A second mark, mem, is the stop set of a run that logs its
// accesses (a transition's, see advance): the slots that may access
// memory (mayAccess) end such a run too.
//
// The zero value is an empty table.
type decodeTable struct {
	base  uint64 // page number of pages[0]
	pages []decodePage
}

type decodePage struct {
	valid uint64 // bit s: slots.insts[s] decodes the word in Mem
	ends  uint64 // bit s: slots.insts[s] ends a run
	mem   uint64 // bit s: slots.insts[s] may access memory
	// kept marks the suspended slots: not valid, but made valid again by
	// a Write that leaves slots.words[s] in memory.
	kept  uint64
	slots *decodeSlots
}

// decodeSlots is a page's slot block, allocated on the page's first fetch.
type decodeSlots struct {
	insts [decodePageSlots]arm.Inst
	// words[s] is the raw word insts[s] was decoded from.
	words [decodePageSlots]uint32
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

// mayAccess reports whether op may access memory, directly or by
// flushing a store buffer: besides the run ends, the instructions after
// which an exec transition may have to end.
func mayAccess(op arm.Op) bool {
	switch op {
	case arm.LDR, arm.STR, arm.LDAR, arm.LDAPR, arm.STLR, arm.LDXR, arm.STXR, arm.LDAXR, arm.STLXR,
		arm.CAS, arm.CASAL, arm.LDADDAL, arm.SWPAL, arm.DMB:
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
	return &p.slots.insts[s]
}

// runAt returns the run that starts at pc: its page's slots, the index of
// its first slot and its length, which is 0 when pc's slot is not valid.
// With mem, a slot that may access memory ends the run too.
func (t *decodeTable) runAt(pc uint64, mem bool) (insts *[decodePageSlots]arm.Inst, s, n int) {
	i := pc/decodePageBytes - t.base
	if pc%arm.InstBytes != 0 || i >= uint64(len(t.pages)) {
		return nil, 0, 0
	}
	p := &t.pages[i]
	s = int(pc / arm.InstBytes % decodePageSlots)
	// Bit k of stop: slot s+k ends the run or is not valid.
	stop := p.ends | ^p.valid
	if mem {
		stop |= p.mem
	}
	if stop >>= s; stop == 0 {
		return &p.slots.insts, s, decodePageSlots - s
	}
	// A valid stop slot ends the run and belongs to it; one that is not
	// valid is left for a fetch of its own. A page with no valid slot may
	// have no block: its runs are empty.
	k := bits.TrailingZeros64(stop)
	if n = k + int(p.valid>>(s+k)&1); n == 0 {
		return nil, 0, 0
	}
	return &p.slots.insts, s, n
}

// insert caches inst, decoded from word, as the decode of the 4-aligned pc
// and returns the cached copy.
func (t *decodeTable) insert(pc uint64, word uint32, inst arm.Inst) *arm.Inst {
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
	if p.slots == nil {
		p.slots = new(decodeSlots)
	}
	s := pc / arm.InstBytes % decodePageSlots
	p.slots.insts[s] = inst
	p.slots.words[s] = word
	p.kept &^= 1 << s
	p.valid |= 1 << s
	p.ends &^= 1 << s
	p.mem &^= 1 << s
	if endsRun(inst.Op) {
		p.ends |= 1 << s
	}
	if mayAccess(inst.Op) {
		p.mem |= 1 << s
	}
	return &p.slots.insts[s]
}

// wrote updates the table after [addr, addr+n) of mem was written; the
// caller has checked that the range lies in mem. Every slot the range
// overlaps stops being valid, except a suspended one whose whole word in
// mem is again the word it decoded: that one is valid again. Either way
// it is no longer suspended. Slots outside the window hold nothing.
func (t *decodeTable) wrote(mem []byte, addr, n uint64) {
	lo, hi := t.base*decodePageSlots, (t.base+uint64(len(t.pages)))*decodePageSlots
	first, end := max(addr/arm.InstBytes, lo), min((addr+n+arm.InstBytes-1)/arm.InstBytes, hi)
	for s := first; s < end; {
		p := &t.pages[s/decodePageSlots-t.base]
		// Slots i..i+k-1 of this page are in the range.
		i := s % decodePageSlots
		k := min(end-s, decodePageSlots-i)
		mask := ^uint64(0) >> (decodePageSlots - k) << i
		p.valid &^= mask
		if p.kept&mask != 0 {
			pc := (s - i) * arm.InstBytes
			for w := p.kept & mask; w != 0; w &= w - 1 {
				j := bits.TrailingZeros64(w)
				if binary.LittleEndian.Uint32(mem[pc+uint64(j)*arm.InstBytes:]) == p.slots.words[j] {
					p.valid |= 1 << j
				}
			}
			p.kept &^= mask
		}
		s += k
	}
}

// suspendAll suspends every valid slot: none is valid, and each waits for
// a Write of its word (see wrote).
func (t *decodeTable) suspendAll() {
	for i := range t.pages {
		p := &t.pages[i]
		p.kept |= p.valid
		p.valid = 0
	}
}
