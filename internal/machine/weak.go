package machine

import "repro/internal/isa/arm"

// Weak-memory mode: an operational approximation of Arm's store-side
// relaxations, complementing the axiomatic models in internal/models.
//
// Each CPU gets a store buffer; plain STRs enter the buffer and drain to
// memory later — possibly out of program order (store-store reordering)
// and after subsequent loads execute (store-load reordering). Loads
// forward from the CPU's own buffer (reading own writes early, like real
// store buffers). Barriers restore order:
//
//   - DMB ISH and DMB ISHST flush the buffer (no store may pass them);
//   - STLR (release) flushes before writing;
//   - exclusives and single-copy atomics flush before operating
//     (Arm atomics are never satisfied from a local buffer).
//
// Load-side relaxations (load-load reordering, speculation past an
// acquire) are NOT modelled operationally; those behaviours are covered
// by the axiomatic checker. The mode exists to demonstrate that the weak
// outcomes predicted by the models actually manifest in execution and
// that the verified mappings' fences suppress them.
//
// Which store drains when is a choice. The machine offers every such
// choice as a transition (Enabled/Apply in transition.go), and the drivers
// that explore, sample or replay executions take them one at a time. Whole
// guests running under RunAll instead get a SeededDrains policy, which
// retires stores on a fixed pseudo-random schedule as instructions execute.
// The exact-as-implemented axiomatic counterpart of this machine is
// internal/models/opref.
type weakState struct {
	// buffers is indexed by CPU id; AddCPU grows it.
	buffers [][]PendingStore
	// nextSeq numbers buffered stores machine-globally (see PendingStore.Seq).
	nextSeq uint64
	// drains, when non-nil, retires stores as instructions execute.
	drains *SeededDrains
}

// EnableWeakMode switches the machine into weak mode. With a nil policy
// stores buffer and forward but retire only at barriers, halts and drain
// transitions: the regime in which a driver owns every drain through Apply.
func (m *Machine) EnableWeakMode(drains *SeededDrains) {
	m.weak = &weakState{buffers: make([][]PendingStore, len(m.CPUs)), drains: drains}
}

// WeakEnabled reports whether weak mode is on.
func (m *Machine) WeakEnabled() bool { return m.weak != nil }

// weakStore buffers a plain store.
func (m *Machine) weakStore(c *CPU, addr uint64, size uint8, v uint64) error {
	if err := m.check(addr, size); err != nil {
		return err
	}
	w := m.weak
	w.nextSeq++
	w.buffers[c.ID] = append(w.buffers[c.ID], PendingStore{Addr: addr, Size: size, Val: v, Seq: w.nextSeq})
	m.record(addr, size, true, true)
	return nil
}

// weakLoad reads with store-buffer forwarding: the newest exactly-matching
// buffered store wins; a partially-overlapping buffered store forces a
// flush (real hardware merges; flushing is the simple sound choice).
func (m *Machine) weakLoad(c *CPU, addr uint64, size uint8) (uint64, error) {
	buf := m.weak.buffers[c.ID]
	for i := len(buf) - 1; i >= 0; i-- {
		p := buf[i]
		if p.Addr == addr && p.Size == size {
			m.record(addr, size, false, true)
			return p.Val, nil
		}
		if overlap(addr, uint64(size), p.Addr, uint64(p.Size)) {
			if err := m.weakFlush(c); err != nil {
				return 0, err
			}
			return m.ReadMem(addr, size)
		}
	}
	return m.ReadMem(addr, size)
}

// weakFlush drains the CPU's entire buffer in order.
func (m *Machine) weakFlush(c *CPU) error {
	buf := m.weak.buffers[c.ID]
	m.weak.buffers[c.ID] = nil
	for _, p := range buf {
		if err := m.WriteMem(p.Addr, p.Size, p.Val); err != nil {
			return err
		}
	}
	return nil
}

// weakMaybeDrain consults the drain policy after an executed instruction
// and retires at most one buffered store.
func (m *Machine) weakMaybeDrain(c *CPU) error {
	buf := m.weak.buffers[c.ID]
	if len(buf) == 0 || m.weak.drains == nil {
		return nil
	}
	i := m.weak.drains.pick(buf)
	if i < 0 {
		return nil
	}
	return m.drain(c, i)
}

// drain retires c's i-th buffered store. Coherence: a store may not drain
// before an older buffered store to an overlapping address, so the drain
// is redirected to the head of i's overlap chain — transitively: the first
// older overlap may itself have an older overlap (the historical bug here
// stopped after one hop and could write a middle-of-chain store first).
func (m *Machine) drain(c *CPU, i int) error {
	buf := m.weak.buffers[c.ID]
	i = oldestOverlap(buf, i)
	p := buf[i]
	m.weak.buffers[c.ID] = append(buf[:i], buf[i+1:]...)
	return m.WriteMem(p.Addr, p.Size, p.Val)
}

// oldestOverlap follows i's coherence chain to its oldest member: while
// some older buffered store overlaps buf[i], move to the first such store
// and repeat. The fixpoint — not a single hop — is what guarantees no
// store drains past an older same-location store anywhere in the chain.
func oldestOverlap(buf []PendingStore, i int) int {
	for {
		j := i
		for k := 0; k < i; k++ {
			if overlap(buf[k].Addr, uint64(buf[k].Size), buf[i].Addr, uint64(buf[i].Size)) {
				j = k
				break
			}
		}
		if j == i {
			return i
		}
		i = j
	}
}

// weakBarrier implements DMB in weak mode. DMB ISH and DMB ISHST order
// buffered stores with later accesses: flush. DMB ISHLD constrains only
// the load side, which this model executes in order anyway.
func (m *Machine) weakBarrier(c *CPU, b arm.Barrier) error {
	if b == arm.BarrierLoad {
		return nil
	}
	return m.weakFlush(c)
}

// FlushWeak drains one CPU's buffer; runtimes call it at thread-exit
// points (thread exit synchronizes with join).
func (m *Machine) FlushWeak(c *CPU) error {
	if m.weak == nil {
		return nil
	}
	return m.weakFlush(c)
}

// FlushAllWeak drains every CPU's buffer (used at join/halt points and by
// tests before inspecting memory).
func (m *Machine) FlushAllWeak() error {
	if m.weak == nil {
		return nil
	}
	for _, c := range m.CPUs {
		if err := m.weakFlush(c); err != nil {
			return err
		}
	}
	return nil
}
