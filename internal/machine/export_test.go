package machine

import (
	"bytes"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/isa/arm"
)

// CheckFetches installs the decode-coherence hook on m: every fetch the
// decode table serves is compared with a fresh decode of memory at that PC,
// and a difference fails t (the first few in full, the rest as a count).
// The returned counter is the number of fetches compared, so a test can
// tell the hook ran.
func CheckFetches(t testing.TB, m *Machine) *uint64 {
	t.Helper()
	var checked, stale uint64
	m.fetchCheck = func(pc uint64, cached *arm.Inst) {
		checked++
		fresh, err := arm.DecodeAt(m.Mem, int(pc))
		if err == nil && fresh == *cached {
			return
		}
		if stale++; stale <= 3 {
			t.Errorf("stale decode at %#x: table has %v, memory decodes to %v (%v)", pc, *cached, fresh, err)
		}
	}
	t.Cleanup(func() {
		if stale > 3 {
			t.Errorf("%d stale decodes in %d fetches", stale, checked)
		}
	})
	return &checked
}

// PerInstruction makes m's Run, RunAll and exec transitions fetch and
// execute one instruction at a time, the path runs are compared against.
func PerInstruction(m *Machine) { m.perInst = true }

// EndsRun reports whether op ends a straight-line run.
func EndsRun(op arm.Op) bool { return endsRun(op) }

// MayAccess reports whether op ends a run inside an exec transition
// without ending every run.
func MayAccess(op arm.Op) bool { return mayAccess(op) }

// MaxInvisible bounds the instructions of an exec transition that
// accesses no memory.
const MaxInvisible = maxInvisible

// WrittenPages lists the page numbers in m's written-page set, ascending.
func WrittenPages(m *Machine) []uint64 {
	var pages []uint64
	for i, w := range m.written {
		for ; w != 0; w &= w - 1 {
			pages = append(pages, uint64(i*64+bits.TrailingZeros64(w)))
		}
	}
	return pages
}

// StateDiff lists how a's state differs from b's: memory, every field of
// every CPU (a parked CPU's by the ID it waits on), weak mode with its
// store buffers, their Seqs and nextSeq, the DMB and atomic counters, the
// monitor count, the line owners and the output. It also lists every
// valid decode slot of a or b that does not decode the word in its
// machine's memory. An empty list means the two are the same state.
func StateDiff(a, b *Machine) []string {
	var d []string
	diff := func(format string, args ...any) { d = append(d, fmt.Sprintf(format, args...)) }
	if !bytes.Equal(a.Mem, b.Mem) {
		i := 0
		for i < min(len(a.Mem), len(b.Mem)) && a.Mem[i] == b.Mem[i] {
			i++
		}
		diff("memory differs first at %#x", i)
	}
	if len(a.CPUs) != len(b.CPUs) {
		diff("%d CPUs, want %d", len(a.CPUs), len(b.CPUs))
	} else {
		for i, ca := range a.CPUs {
			x, y := *ca, *b.CPUs[i]
			wx, wy := waitID(&x), waitID(&y)
			x.waitOn, y.waitOn = nil, nil
			if x != y || wx != wy {
				diff("cpu%d: %+v waiting on %d, want %+v waiting on %d", i, x, wx, y, wy)
			}
		}
	}
	switch {
	case (a.weak == nil) != (b.weak == nil):
		diff("weak mode %v, want %v", a.weak != nil, b.weak != nil)
	case a.weak != nil:
		if !slices.EqualFunc(a.weak.buffers, b.weak.buffers, slices.Equal) {
			diff("store buffers %v, want %v", a.weak.buffers, b.weak.buffers)
		}
		if a.weak.nextSeq != b.weak.nextSeq {
			diff("nextSeq %d, want %d", a.weak.nextSeq, b.weak.nextSeq)
		}
	}
	if a.DMBExec != b.DMBExec || a.AtomicExec != b.AtomicExec || a.armed != b.armed {
		diff("DMBs %v atomics %d armed %d, want %v %d %d", a.DMBExec, a.AtomicExec, a.armed, b.DMBExec, b.AtomicExec, b.armed)
	}
	if !maps.Equal(a.lineOwner, b.lineOwner) {
		diff("line owners %v, want %v", a.lineOwner, b.lineOwner)
	}
	if !bytes.Equal(a.Output, b.Output) {
		diff("output %q, want %q", a.Output, b.Output)
	}
	for _, m := range []*Machine{a, b} {
		for i, p := range m.decode.pages {
			for v := p.valid; v != 0; v &= v - 1 {
				s := bits.TrailingZeros64(v)
				pc := (m.decode.base+uint64(i))*decodePageBytes + uint64(s)*arm.InstBytes
				if fresh, err := arm.DecodeAt(m.Mem, int(pc)); err != nil || fresh != p.slots.insts[s] {
					diff("decode slot %#x holds %v, memory decodes to %v (%v)", pc, p.slots.insts[s], fresh, err)
				}
			}
		}
	}
	return d
}

// waitID is the ID of the CPU c waits on, or -1.
func waitID(c *CPU) int {
	if c.waitOn == nil {
		return -1
	}
	return c.waitOn.ID
}
