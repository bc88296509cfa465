// CPU/memory snapshotting for shadow execution: the DBT's -selfcheck mode
// runs each freshly translated block once on a copy of the machine state
// and compares its effects against the TCG interpreter's, so a snapshot
// must capture everything generated code can read or write — including,
// under weak mode, the CPU's own buffered stores, which its loads see.

package machine

// Snapshot is a deep copy of the machine's memory plus one CPU's state,
// taken at a block boundary.
type Snapshot struct {
	// Mem is a private copy of the full memory (guest data and code cache
	// alike — shadow runs fetch generated code from it) as the CPU sees
	// it: under weak mode, with its buffered stores applied in order.
	Mem []byte
	// CPU is the copied register state. The exclusive monitor is cleared:
	// a block boundary is never inside an exclusive sequence.
	CPU CPU
}

// Snapshot deep-copies the machine memory as c sees it, and c's state.
// Other CPUs' buffered stores are not in it: c cannot see them yet.
func (m *Machine) Snapshot(c *CPU) *Snapshot {
	s := &Snapshot{Mem: append([]byte(nil), m.Mem...), CPU: *c}
	s.CPU.monValid, s.CPU.waitOn = false, nil
	if m.weak != nil {
		for _, p := range m.weak.buffers[c.ID] {
			for i := uint8(0); i < p.Size; i++ {
				s.Mem[p.Addr+uint64(i)] = byte(p.Val >> (8 * i))
			}
		}
	}
	return s
}

// ShadowMachine builds a fresh single-CPU machine over the snapshot state,
// for deterministic shadow execution: no injector, no weak-memory mode, no
// observability, no watchdogs — just the sequentially consistent
// interpreter over the snapshot's memory, in which the CPU's own stores
// have already happened. The caller installs its own Syscall and OnBLR
// hooks and bounds execution via Run's maxSteps.
func (s *Snapshot) ShadowMachine() *Machine {
	cpu := s.CPU
	cpu.ID = 0
	cpu.Halted = false
	m := &Machine{
		Mem:       s.Mem,
		CPUs:      []*CPU{&cpu},
		Cost:      DefaultCost(),
		cost:      defaultCost,
		lineOwner: make(map[uint64]int),
		written:   newPageSet(len(s.Mem)),
	}
	// The copy wrote every page: Reset must clear them all.
	if len(s.Mem) > 0 {
		m.markRange(0, uint64(len(s.Mem)))
	}
	return m
}
