package machine

import (
	"math/bits"
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
