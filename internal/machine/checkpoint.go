// Checkpoints: a machine state a driver can return to. Explore's DPOR
// search backtracks by rolling the machine back to the frame it resumes
// instead of resetting it and re-executing the decision prefix.
//
// A checkpoint copies the small state — the CPUs, the store buffers, the
// counters, the cache-line owners — and marks the write journal, which
// records the old bytes of every write to memory a transition makes.
// Rolling back unwinds the journal to the mark and copies the small state
// back. The line owners are copied rather than journaled so that
// atomicTouch, on every atomic of the strong host, stays small enough to
// inline: a litmus program's atomics touch a line or two.

package machine

import "maps"

// Checkpoint is the state of a machine as Save found it. Its buffers are
// reused by the next Save into it, so a driver that keeps one checkpoint
// per search depth allocates only while the search deepens.
type Checkpoint struct {
	cpus    []CPU
	buffers [][]PendingStore
	nextSeq uint64
	lines   map[uint64]int
	dmb     [3]uint64
	atomics uint64
	armed   int
	output  int
	// undos and old are the journal's lengths at the Save.
	undos, old int
}

// journal records, once a checkpoint exists, the memory transitions
// overwrite, so Rollback can put it back.
type journal struct {
	// on is set by the first Save and cleared by Reset: until then no
	// state can be returned to and nothing is recorded.
	on    bool
	undos []undo
	// old holds the bytes the undos put back, each undo's at the tail
	// when it is unwound.
	old []byte
}

// undo is one journal entry: n bytes written at addr, by a store
// (WriteMem) or, when write is set, by Write, whose undo updates the
// decode table as Write does.
type undo struct {
	addr  uint64
	n     int
	write bool
}

// Save copies the machine's state into cp and starts journaling what
// transitions change, so Rollback(cp) can return to it. A checkpoint
// stays valid across any number of rollbacks to it, until a rollback to
// an earlier checkpoint, or a Reset, discards it. Between a Save and a
// Rollback the machine must change only through transitions (Apply, Walk,
// WalkAll) and the hooks they call: writes made outside a transition are
// not journaled.
func (m *Machine) Save(cp *Checkpoint) {
	cp.cpus = cp.cpus[:0]
	for _, c := range m.CPUs {
		cp.cpus = append(cp.cpus, *c)
	}
	cp.buffers = cp.buffers[:0]
	if w := m.weak; w != nil {
		// The slices past len(cp.buffers) are kept for reuse.
		bufs := cp.buffers[:cap(cp.buffers)]
		for len(bufs) < len(w.buffers) {
			bufs = append(bufs, nil)
		}
		for i, b := range w.buffers {
			bufs[i] = append(bufs[i][:0], b...)
		}
		cp.buffers, cp.nextSeq = bufs[:len(w.buffers)], w.nextSeq
	}
	if cp.lines == nil {
		cp.lines = make(map[uint64]int, len(m.lineOwner))
	}
	copyLines(cp.lines, m.lineOwner)
	cp.dmb, cp.atomics, cp.armed, cp.output = m.DMBExec, m.AtomicExec, m.armed, len(m.Output)
	cp.undos, cp.old = len(m.journal.undos), len(m.journal.old)
	m.journal.on = true
}

// Rollback returns the machine to the state Save(cp) copied: it unwinds
// the journal to cp's mark and copies back the CPUs, the store buffers,
// the line owners and the counters. CPUs started since the Save are dropped (AddCPU
// reuses them); pointers to the others stay valid. Decode-table slots
// filled since stay, as they still decode memory; a slot a Write since
// the Save overlapped is invalidated as the undone Write's bytes go back.
func (m *Machine) Rollback(cp *Checkpoint) {
	j := &m.journal
	for len(j.undos) > cp.undos {
		u := j.undos[len(j.undos)-1]
		j.undos = j.undos[:len(j.undos)-1]
		tail := len(j.old) - u.n
		copy(m.Mem[u.addr:], j.old[tail:])
		j.old = j.old[:tail]
		if u.write {
			m.decode.wrote(m.Mem, u.addr, uint64(u.n))
		}
	}
	copyLines(m.lineOwner, cp.lines)
	m.CPUs = m.CPUs[:len(cp.cpus)]
	for i := range cp.cpus {
		*m.CPUs[i] = cp.cpus[i]
	}
	if m.weak != nil {
		m.weak.buffers = m.weak.buffers[:len(cp.buffers)]
		for i, b := range cp.buffers {
			m.weak.buffers[i] = append(m.weak.buffers[i][:0], b...)
		}
		m.weak.nextSeq = cp.nextSeq
	}
	m.DMBExec, m.AtomicExec, m.armed, m.Output = cp.dmb, cp.atomics, cp.armed, m.Output[:cp.output]
}

// journalBytes records the n bytes at addr, about to be overwritten by
// Write (write) or a store.
func (m *Machine) journalBytes(addr, n uint64, write bool) {
	j := &m.journal
	j.old = append(j.old, m.Mem[addr:addr+n]...)
	j.undos = append(j.undos, undo{addr: addr, n: int(n), write: write})
}

// copyLines makes dst a copy of src, two line-owner maps; most programs
// run no atomic, and two empty maps cost nothing.
func copyLines(dst, src map[uint64]int) {
	if len(dst) == 0 && len(src) == 0 {
		return
	}
	clear(dst)
	maps.Copy(dst, src)
}
