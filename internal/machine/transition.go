// The machine's nondeterminism — which CPU moves next, and when a buffered
// store becomes visible to the other CPUs — is a transition system the
// machine itself owns: Enabled lists the moves the current state offers and
// Apply takes one. Every driver that resolves a choice is a client of that
// pair: Walk below (seeded uniform sampling, under opcheck's sampler,
// explore's soak and whole guests on the weak host, core.WithWeakMemory),
// explore's exhaustive DPOR search, and trace replay. No store leaves a
// buffer early any other way: outside OpDrain, only barriers, atomics and
// flushes retire buffered stores.

package machine

import (
	"fmt"
	"math"
)

// PendingStore is one store sitting in a CPU's store buffer, not yet
// visible to other CPUs. Seq is a machine-global monotonic sequence number
// assigned at buffering time: it names the store stably across drains, so
// a drain transition keeps its identity even as buffer indices shift.
type PendingStore struct {
	Addr uint64 `json:"addr"`
	Size uint8  `json:"size"`
	Val  uint64 `json:"val"`
	Seq  uint64 `json:"seq"`
}

// The kinds of transition.
const (
	// OpExec runs one CPU up to and including its next instruction that
	// accesses memory, halts it or parks it (Wait).
	OpExec = "x"
	// OpDrain retires one buffered store to memory.
	OpDrain = "d"
)

// Transition is one move of the machine. Its JSON form is the decision
// line of explore's replay traces.
type Transition struct {
	Op  string `json:"op"`
	CPU int    `json:"cpu"`
	// Seq, for drains, is the PendingStore.Seq of the store to retire, so
	// a recorded transition replays against live buffers, not positions.
	Seq uint64 `json:"seq,omitempty"`
}

// maxInvisible bounds the instructions one OpExec retires when none of
// them accesses memory, halts or parks: a long register-only stretch is
// several exec transitions, so no one transition hangs its driver. A spin
// that never ends is the driver's to bound: Walk's step cap, explore's
// state budget, WalkAll's watchdog.
const maxInvisible = 10000

// Enabled appends the current state's transitions to ts in a fixed order:
// one OpExec per runnable CPU (neither halted nor parked by Wait) in
// ascending id, then, per CPU in ascending id, one OpDrain per buffered
// store that heads its coherence chain (no older overlapping store in the
// buffer), in buffer order: a parked CPU's stores still drain. Nothing
// appended means every CPU has halted — Wait refuses the cycles that
// could park them all, and halting flushes, so no drain outlives its CPU.
func (m *Machine) Enabled(ts []Transition) []Transition {
	for _, c := range m.CPUs {
		if c.runnable() {
			ts = append(ts, Transition{Op: OpExec, CPU: c.ID})
		}
	}
	if m.weak != nil {
		for id, buf := range m.weak.buffers {
			for i := range buf {
				if oldestOverlap(buf, i) == i {
					ts = append(ts, Transition{Op: OpDrain, CPU: id, Seq: buf[i].Seq})
				}
			}
		}
	}
	return ts
}

// Apply takes one transition and returns its footprint: the memory
// accesses it made that other CPUs can observe (a store entering the
// buffer and a load forwarded from it are private to their CPU and left
// out). A transition Enabled would not list — a CPU out of range, halted
// or parked, a store no longer buffered or behind an older overlapping
// one — is refused with an error and changes nothing.
func (m *Machine) Apply(t Transition) ([]MemAccess, error) {
	if err := m.apply(t, nil); err != nil {
		return nil, err
	}
	var fp []MemAccess
	for _, a := range m.accLog {
		if !a.Local {
			fp = append(fp, a)
		}
	}
	return fp, nil
}

// apply takes one transition, leaving every access it made in m.accLog.
// Under a walk's watchdog w (nil for a lone Apply) an OpExec is a
// quantum: the step-site fault guards it, and it ends where a step budget
// traps.
func (m *Machine) apply(t Transition, w *watchdog) error {
	if t.CPU < 0 || t.CPU >= len(m.CPUs) {
		return fmt.Errorf("machine: transition names CPU %d of %d", t.CPU, len(m.CPUs))
	}
	c := m.CPUs[t.CPU]
	m.accLog, m.accLogOn = m.accLog[:0], true
	defer func() { m.accLogOn = false }()
	switch t.Op {
	case OpDrain:
		if m.weak == nil {
			return fmt.Errorf("machine: drain transition without weak mode")
		}
		buf := m.weak.buffers[c.ID]
		for i := range buf {
			if buf[i].Seq != t.Seq {
				continue
			}
			if oldestOverlap(buf, i) != i {
				return fmt.Errorf("machine: store seq %d is behind an older overlapping store in CPU %d's buffer", t.Seq, c.ID)
			}
			return m.drain(c, i)
		}
		return fmt.Errorf("machine: store seq %d is not in CPU %d's buffer", t.Seq, c.ID)
	case OpExec:
		if !c.runnable() {
			return fmt.Errorf("machine: exec transition for halted or parked CPU %d", c.ID)
		}
		limit := maxInvisible
		if w != nil {
			if err := m.beginQuantum(c); err != nil {
				return err
			}
			limit = w.clip(c, limit)
		}
		before := c.Insts
		for i := limit; i > 0; i-- {
			if err := m.step(c); err != nil {
				return err
			}
			if len(m.accLog) > 0 || !c.runnable() {
				break
			}
		}
		if w == nil {
			return nil
		}
		return w.charge(c, int(c.Insts-before))
	}
	return fmt.Errorf("machine: unknown transition kind %q", t.Op)
}

// Walk samples one path through the transition system: from the current
// state it applies an enabled transition chosen uniformly by a PRNG seeded
// with seed, and repeats. It returns halted = true when no transition is
// enabled any more and every CPU has halted; live CPUs of which none can
// move are an error. It stops short of that after maxSteps transitions,
// when Apply fails (visit sees the transition and the error, which Walk
// then returns), or when visit — called after every Apply; nil means
// "keep going" — returns false. The machine's StepBudget, Deadline and
// step-site fault guard it as they guard RunAll, and like RunAll it
// publishes the execution gauges on return.
func (m *Machine) Walk(seed uint64, maxSteps int, visit func(Transition, error) bool) (halted bool, err error) {
	defer func() { m.endRun(err) }()
	return m.walk(seed, maxSteps, m.watch(math.MaxUint64), visit)
}

// WalkAll is RunAll on the weak host: it walks from seed until every CPU
// halts, under RunAll's budgets — maxSteps instructions across all CPUs,
// StepBudget, Deadline — and step-site fault, with RunAll's traps. Each
// exec transition is one of RunAll's quanta, clipped where a step budget
// traps.
func (m *Machine) WalkAll(seed, maxSteps uint64) (err error) {
	defer func() { m.endRun(err) }()
	_, err = m.walk(seed, math.MaxInt, m.watch(maxSteps), nil)
	return err
}

// walk is Walk and WalkAll under the watchdog w.
func (m *Machine) walk(seed uint64, maxSteps int, w watchdog, visit func(Transition, error) bool) (bool, error) {
	rng := splitmix{state: seed}
	ts := make([]Transition, 0, 8)
	for n := 0; ; n++ {
		if ts = m.Enabled(ts[:0]); len(ts) == 0 {
			err := m.stuck()
			return err == nil, err
		}
		if n >= maxSteps {
			return false, nil
		}
		t := ts[rng.intn(len(ts))]
		err := m.apply(t, &w)
		if (visit != nil && !visit(t, err)) || err != nil {
			return false, err
		}
	}
}

// splitmix64 is the machine's one PRNG. Unlike math/rand, its entire state
// is one word: a seed alone fixes the stream, on every platform.
type splitmix struct{ state uint64 }

func (p *splitmix) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	z := p.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func (p *splitmix) intn(n int) int {
	return int(p.next() % uint64(n))
}
