// Package machine simulates the multi-core Arm host that Risotto-Go's
// generated code runs on. It interprets the internal/isa/arm instruction
// set over a flat little-endian memory, with:
//
//   - a per-instruction cycle cost model (see cost.go) standing in for the
//     ThunderX2 of the paper's testbed — fence and atomic costs follow the
//     relative magnitudes reported by Liu et al. [51]; the table is
//     resolved per opcode when the machine is built or reset, and an
//     instruction's cost is charged each time it executes;
//   - per-CPU exclusive monitors for LDXR/STXR;
//   - a cache-line ownership model that charges a transfer penalty to
//     atomics contending on a line another CPU touched last (Figure 15's
//     contention behaviour);
//   - a deterministic round-robin scheduler interleaving the CPUs, so
//     guest threads genuinely race;
//   - SVC and BLR hooks through which the DBT runtime (internal/core)
//     implements guest syscalls and helper calls.
//   - one writer, Write, through which everything but the instruction path
//     writes memory, keeping exclusive monitors and decoded code coherent.
//
// One loop, advance, fetches and executes for both hosts: Run and RunAll
// on the strong one, the transition system's exec transitions (Apply,
// Walk, WalkAll) on the weak one. It interprets a run at a time: one
// decode lookup finds the straight-line run up to the next branch, halt
// or hook — and, inside a transition, up to the next instruction that may
// access memory — and executes as much of it as the quantum and budgets
// allow, so interleaving, transitions, trap points and instruction counts
// are those of one instruction at a time (see decode.go).
//
// The interpreter executes sequentially consistently; weak-memory
// *ordering* effects are studied axiomatically (internal/models) and
// operationally via the store-buffer mode in weak.go, while this fast mode
// is used for all performance experiments.
package machine

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/faults"
	"repro/internal/isa/arm"
	"repro/internal/obs"
)

// Machine is one simulated host: memory plus a set of CPUs.
type Machine struct {
	// Mem is the flat physical memory, shared by all CPUs. Write and
	// WriteMem are its writers: they mark the pages they touch, and Reset
	// clears only marked pages, so bytes written around them are invisible
	// to Reset and survive it.
	Mem []byte
	// CPUs holds every CPU ever started; halted ones stay in place.
	CPUs []*CPU
	// Cost is the cycle cost table. New resolves it per opcode, and Reset
	// again if it changed: a change to an instruction's cost takes effect
	// at the next Reset. The contention penalty and ChargeAtomic read it
	// when they charge.
	Cost CostTable
	// cost is Cost resolved, as of New or the last Reset.
	cost *resolvedCost

	// StepBudget, when non-zero, bounds each CPU's executed instruction
	// count: a CPU that reaches it makes RunAll (or a walk) return a
	// structured faults.TrapBudget — the watchdog that halts runaway or
	// livelocked guests instead of spinning forever.
	StepBudget uint64
	// Deadline, when non-zero, is a wall-clock watchdog for RunAll and
	// walks, measured from their invocation.
	Deadline time.Duration
	// Inject, when non-nil, forces traps at instrumented sites (memory
	// accesses, scheduler quanta) for fault-matrix testing.
	Inject *faults.Injector

	// Syscall handles SVC instructions. The PC has already been advanced
	// past the SVC. A handler that must block calls Wait.
	Syscall func(m *Machine, c *CPU, imm uint16) error
	// OnBLR, when non-nil, may intercept BLR targets (the DBT uses this
	// for helper calls and host-library dispatch). If it reports handled,
	// the branch is suppressed and execution continues at the link
	// address. A hook that must block calls Wait.
	OnBLR func(m *Machine, c *CPU, target uint64) (handled bool, err error)

	// Output accumulates bytes written via the write syscall.
	Output []byte

	// DMBExec counts executed barriers by flavour (indexed by
	// arm.Barrier) — the *dynamic* fence counts behind the fence-share
	// numbers, complementing the DBT's static per-block statistics.
	DMBExec [3]uint64
	// AtomicExec counts executed single-copy atomics.
	AtomicExec uint64

	// lineOwner tracks which CPU last performed an atomic on each
	// 64-byte line, for the contention penalty.
	lineOwner map[uint64]int

	// written is the written-page set: bit p%64 of word p/64 is set once
	// a byte of page p (pageBytes of Mem) may be non-zero. Every
	// constructor sizes it, so the store path needs no nil check.
	written []uint64

	// decode caches decoded instructions by PC; see decode.go.
	decode decodeTable
	// fetchCheck, when non-nil, sees every fetch served from the decode
	// table, a run's instructions before the run executes (tests compare
	// them with a fresh decode of memory).
	fetchCheck func(pc uint64, cached *arm.Inst)
	// perInst makes advance, and so Run, RunAll and exec transitions,
	// fetch and execute one instruction at a time, through step; tests set
	// it to compare that path with runs.
	perInst bool

	// armed counts the CPUs whose exclusive monitor is valid, so stores
	// skip the monitor scan when it is zero.
	armed int

	// weak, when non-nil, enables the operational weak-memory mode
	// (store buffers with out-of-order drain; see weak.go).
	weak *weakState
	// idleWeak is the weak state Reset switched off, kept for
	// EnableWeakMode to reuse with its buffers' capacity.
	idleWeak *weakState

	// accLog records, while Apply runs a transition, every memory access
	// executed: where an exec transition ends, and the footprint DPOR
	// needs to decide which transitions commute. While accLogOn, advance
	// ends a run after each instruction that may access memory.
	accLog   []MemAccess
	accLogOn bool

	// sc/quanta are the observability hooks installed by SetObs: quanta
	// is bumped once per scheduler quantum or exec transition (one atomic
	// add per `quantum` instructions, cheap enough for the hot loop), and
	// the dynamic execution counters are published as gauges when RunAll
	// or Walk returns.
	sc     *obs.Scope
	quanta *obs.Counter

	// journal records, while accLogOn and once Save made a checkpoint,
	// the memory a transition overwrites; see checkpoint.go.
	journal journal
}

// CPU is one simulated hardware thread.
type CPU struct {
	// ID indexes the CPU in Machine.CPUs.
	ID int
	// Regs are X0..X30; index 31 is XZR and must be read as 0 via reg().
	Regs [arm.NumRegs]uint64
	// PC is the program counter.
	PC uint64
	// NZCV condition flags.
	N, Z, C, V bool
	// Cycles accumulates the cost of executed instructions.
	Cycles uint64
	// Insts counts executed instructions.
	Insts uint64
	// Halted is set by HLT or an exit syscall.
	Halted bool
	// ExitCode is the value passed to the exit syscall.
	ExitCode uint64
	// waitOn is the CPU this one last waited on (Wait): while it has not
	// halted, this CPU is parked.
	waitOn *CPU

	// Exclusive monitor state.
	monAddr  uint64
	monSize  uint8
	monValid bool
}

// The written-page set's pages are 4 KiB.
const (
	pageShift = 12
	pageBytes = 1 << pageShift
)

// New creates a machine with memSize bytes of memory and one CPU.
func New(memSize int) *Machine {
	m := &Machine{
		Mem:       make([]byte, memSize),
		Cost:      DefaultCost(),
		cost:      defaultCost,
		lineOwner: make(map[uint64]int),
		written:   newPageSet(memSize),
	}
	m.AddCPU()
	return m
}

// newPageSet returns an empty written-page set for memSize bytes.
func newPageSet(memSize int) []uint64 {
	pages := (memSize + pageBytes - 1) >> pageShift
	return make([]uint64, (pages+63)/64)
}

// markPage adds page p to the written-page set.
func (m *Machine) markPage(p uint64) { m.written[p/64] |= 1 << (p % 64) }

// markRange adds every page [addr, +n) touches, n > 0, to the set.
func (m *Machine) markRange(addr, n uint64) {
	for p := addr >> pageShift; p <= (addr+n-1)>>pageShift; p++ {
		m.markPage(p)
	}
}

// pagesWritten counts the pages in the written-page set.
func (m *Machine) pagesWritten() int {
	n := 0
	for _, w := range m.written {
		n += bits.OnesCount64(w)
	}
	return n
}

// Reset returns m to the state New(len(m.Mem)) builds while keeping its
// allocations, so a driver that runs a program many times (explore's
// explorations, opcheck's walks, a risottod worker's jobs) reuses one
// machine: the pages Write and WriteMem marked are zeroed in place and the
// written-page set emptied, the first CPU is zeroed and the others dropped
// (AddCPU reuses them), the counters, line owners, monitors and access log
// are cleared, weak mode is switched off (EnableWeakMode reuses its store
// buffers), the write journal is emptied and stopped, so every checkpoint
// is discarded, and a changed Cost is resolved.
//
// Every valid decode-table slot is suspended: no fetch is served from it,
// so a fetch decodes memory as a new machine's would (and traps where it
// would), until a Write leaves in memory the very word the slot decoded,
// which makes it valid again. A program reloaded over itself is therefore
// not decoded again; any other write, or a fetch before the rewrite,
// drops the slot's decode.
//
// What the caller configured — Cost, the budgets, Inject, the Syscall and
// OnBLR hooks, SetObs's scope — stays installed. Pointers to m's CPUs
// taken before the call are stale after it.
func (m *Machine) Reset() {
	for i, w := range m.written {
		for ; w != 0; w &= w - 1 {
			lo := (i*64 + bits.TrailingZeros64(w)) << pageShift
			clear(m.Mem[lo:min(lo+pageBytes, len(m.Mem))])
		}
	}
	clear(m.written)
	*m.CPUs[0] = CPU{}
	m.CPUs = m.CPUs[:1]
	m.Output = m.Output[:0]
	m.DMBExec = [3]uint64{}
	m.AtomicExec = 0
	clear(m.lineOwner)
	if m.Cost != m.cost.from {
		m.cost = resolveCost(m.Cost)
	}
	m.decode.suspendAll()
	m.armed = 0
	if m.weak != nil {
		m.weak, m.idleWeak = nil, m.weak
	}
	m.accLog = m.accLog[:0]
	m.journal = journal{undos: m.journal.undos[:0], old: m.journal.old[:0]}
}

// SetObs points the machine's instrumentation at root's "machine" child
// scope: scheduler quanta (and exec transitions) are counted under
// "machine.sched.quanta", and RunAll and Walk publish the dynamic
// execution counters (instructions, atomics, per-flavour DMBs, CPU count)
// and the size of the written-page set as gauges on exit. Nil-scope safe.
func (m *Machine) SetObs(root *obs.Scope) {
	m.sc = root.Child("machine")
	m.quanta = m.sc.Counter("sched.quanta")
}

// endRun closes a RunAll or a Walk: it mirrors the dynamic execution
// counters into gauges and records a trap as a machine.trap event.
func (m *Machine) endRun(err error) {
	if m.sc == nil {
		return
	}
	if err != nil {
		m.sc.Event("machine.trap", err.Error(), -1, 0, 0)
	}
	m.sc.Gauge("insts").Set(int64(m.TotalInsts()))
	m.sc.Gauge("atomics").Set(int64(m.AtomicExec))
	m.sc.Gauge("dmb_exec.full").Set(int64(m.DMBExec[arm.BarrierFull]))
	m.sc.Gauge("dmb_exec.load").Set(int64(m.DMBExec[arm.BarrierLoad]))
	m.sc.Gauge("dmb_exec.store").Set(int64(m.DMBExec[arm.BarrierStore]))
	m.sc.Gauge("cpus").Set(int64(len(m.CPUs)))
	m.sc.Gauge("pages_written").Set(int64(m.pagesWritten()))
}

// AddCPU starts a new (halted=false, PC=0) CPU and returns it. A CPU that
// Reset dropped is zeroed and reused.
func (m *Machine) AddCPU() *CPU {
	id := len(m.CPUs)
	var c *CPU
	if id < cap(m.CPUs) {
		c = m.CPUs[:id+1][id]
	}
	if c == nil {
		c = new(CPU)
	}
	*c = CPU{ID: id}
	m.CPUs = append(m.CPUs, c)
	if m.weak != nil {
		m.weak.addBuffer()
	}
	return c
}

// MemAccess is one executed memory access. Local marks accesses satisfied
// entirely inside a CPU's private store buffer (buffered stores, forwarded
// loads): they are invisible to other CPUs, so dependence analysis ignores
// them. Instruction fetches are never recorded.
type MemAccess struct {
	Addr  uint64
	Size  uint8
	Write bool
	Local bool
}

// record appends to the access log when enabled; free otherwise. A store
// to memory records before it writes, so that once a checkpoint exists
// the journal keeps the bytes it overwrites.
func (m *Machine) record(addr uint64, size uint8, write, local bool) {
	if m.accLogOn {
		m.accLog = append(m.accLog, MemAccess{Addr: addr, Size: size, Write: write, Local: local})
		if write && !local && m.journal.on {
			m.journalBytes(addr, uint64(size), false)
		}
	}
}

// reg reads a register, honouring XZR.
func (c *CPU) reg(r arm.Reg) uint64 {
	if r == arm.XZR {
		return 0
	}
	return c.Regs[r]
}

// setReg writes a register, honouring XZR.
func (c *CPU) setReg(r arm.Reg, v uint64) {
	if r != arm.XZR {
		c.Regs[r] = v
	}
}

// --- Memory access ---------------------------------------------------------

func (m *Machine) check(addr uint64, size uint8) error {
	return m.CheckRange(addr, uint64(size))
}

// CheckRange reports whether the n bytes at addr lie inside memory, as an
// unmapped-access trap if not. n may be anything up to 2^64-1 — a syscall
// buffer's length is the guest's choice — so it is compared without
// forming addr+n. An empty range is valid anywhere up to the end of memory.
func (m *Machine) CheckRange(addr, n uint64) error {
	size := uint64(len(m.Mem))
	if addr > size || n > size-addr {
		t := faults.New(faults.TrapUnmapped, "access [%#x,+%d) out of bounds (mem %#x)", addr, n, size)
		t.Addr = addr
		return t
	}
	return nil
}

// injectMem consults the injector's memory site, attributing the forced
// trap to addr. Nil-injector calls are free.
func (m *Machine) injectMem(addr uint64) error {
	if m.Inject == nil {
		return nil
	}
	if t := m.Inject.Hit(faults.SiteMemory); t != nil {
		t.Addr = addr
		return t
	}
	return nil
}

// ReadMem loads size bytes (1/2/4/8) at addr, zero-extended.
func (m *Machine) ReadMem(addr uint64, size uint8) (uint64, error) {
	if err := m.injectMem(addr); err != nil {
		return 0, err
	}
	if err := m.check(addr, size); err != nil {
		return 0, err
	}
	var v uint64
	switch b := m.Mem[addr:]; size {
	case 1:
		v = uint64(b[0])
	case 2:
		v = uint64(binary.LittleEndian.Uint16(b))
	case 4:
		v = uint64(binary.LittleEndian.Uint32(b))
	case 8:
		v = binary.LittleEndian.Uint64(b)
	default:
		for i := uint8(0); i < size; i++ {
			v |= uint64(b[i]) << (8 * i)
		}
	}
	m.record(addr, size, false, false)
	return v, nil
}

// WriteMem stores the low size (> 0) bytes of v at addr: the instruction
// path's store. It marks the first and last page it touches before storing
// — a store of at most 255 bytes spans no more than two. It keeps its
// per-store cost by not consulting the decode table, so
// its contract is that no program stores over code the machine has fetched,
// which includes the rest of a fetched word's run (CheckFetches enforces
// it in tests); code is written through Write.
func (m *Machine) WriteMem(addr uint64, size uint8, v uint64) error {
	if err := m.injectMem(addr); err != nil {
		return err
	}
	if err := m.check(addr, size); err != nil {
		return err
	}
	m.markPage(addr >> pageShift)
	m.markPage((addr + uint64(size) - 1) >> pageShift)
	m.record(addr, size, true, false)
	switch b := m.Mem[addr:]; size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	default:
		for i := uint8(0); i < size; i++ {
			b[i] = byte(v >> (8 * i))
		}
	}
	if m.armed != 0 {
		m.clearMonitors(addr, uint64(size))
	}
	return nil
}

// Write copies b into memory at addr. It is the one writer of memory from
// outside the instruction path — image loads, code installs and patches,
// the interpreter tier, host functions — and keeps what a write can
// invalidate coherent: exclusive monitors overlapping the range are
// cleared, as a store's are, and so are the decode-table slots it
// overlaps, so a valid slot always decodes the current word — but a slot
// Reset suspended is valid again when the write leaves in memory the word
// it decoded (see decode.go). It marks
// every page it touches before copying. It consults no injector, records
// no access and charges no cycle; inside a transition, once a checkpoint
// exists, the journal keeps the bytes it overwrites.
func (m *Machine) Write(addr uint64, b []byte) error {
	n := uint64(len(b))
	if err := m.CheckRange(addr, n); err != nil || n == 0 {
		return err
	}
	m.markRange(addr, n)
	if m.accLogOn && m.journal.on {
		m.journalBytes(addr, n, true)
	}
	copy(m.Mem[addr:], b)
	if m.armed != 0 {
		m.clearMonitors(addr, n)
	}
	m.decode.wrote(m.Mem, addr, n)
	return nil
}

// Read returns the n bytes at addr, or CheckRange's trap. The slice
// aliases memory and is for reading only: writes go through Write.
func (m *Machine) Read(addr, n uint64) ([]byte, error) {
	if err := m.CheckRange(addr, n); err != nil {
		return nil, err
	}
	return m.Mem[addr : addr+n : addr+n], nil
}

// clearMonitors invalidates any exclusive monitor overlapping [addr, +n).
func (m *Machine) clearMonitors(addr, n uint64) {
	for _, c := range m.CPUs {
		if c.monValid && overlap(addr, n, c.monAddr, uint64(c.monSize)) {
			m.disarm(c)
		}
	}
}

// arm sets c's exclusive monitor on [addr, +size).
func (m *Machine) arm(c *CPU, addr uint64, size uint8) {
	if !c.monValid {
		m.armed++
	}
	c.monAddr, c.monSize, c.monValid = addr, size, true
}

// disarm invalidates c's exclusive monitor. Every write of monValid goes
// through arm and disarm: m.armed must never undercount.
func (m *Machine) disarm(c *CPU) {
	if c.monValid {
		m.armed--
		c.monValid = false
	}
}

func overlap(a, alen, b, blen uint64) bool {
	return a < b+blen && b < a+alen
}

// ChargeAtomic charges the base atomic cost plus any contention transfer
// penalty, for runtime helpers that perform atomics outside generated code.
func (m *Machine) ChargeAtomic(c *CPU, addr uint64) {
	c.Cycles += m.Cost.Atomic + m.atomicTouch(c, addr)
}

// atomicTouch charges the contention penalty for an atomic on addr and
// records the new line owner. Returns extra cycles.
func (m *Machine) atomicTouch(c *CPU, addr uint64) uint64 {
	m.AtomicExec++
	line := addr >> 6
	owner, seen := m.lineOwner[line]
	m.lineOwner[line] = c.ID
	if seen && owner != c.ID {
		return m.Cost.AtomicTransfer
	}
	return 0
}

// --- Flags -------------------------------------------------------------------

func (c *CPU) setFlagsSub(a, b uint64) uint64 {
	res := a - b
	c.N = int64(res) < 0
	c.Z = res == 0
	c.C = a >= b
	c.V = (int64(a) < 0) != (int64(b) < 0) && (int64(res) < 0) != (int64(a) < 0)
	return res
}

func (c *CPU) cond(cc arm.Cond) bool {
	switch cc {
	case arm.EQ:
		return c.Z
	case arm.NE:
		return !c.Z
	case arm.LT:
		return c.N != c.V
	case arm.LE:
		return c.Z || c.N != c.V
	case arm.GT:
		return !c.Z && c.N == c.V
	case arm.GE:
		return c.N == c.V
	case arm.LO:
		return !c.C
	case arm.LS:
		return !c.C || c.Z
	case arm.HI:
		return c.C && !c.Z
	case arm.HS:
		return c.C
	}
	return false
}

// --- Scheduling ---------------------------------------------------------------

// step executes one instruction on c, fetching it alone: the
// per-instruction reference that advance takes under perInst and at an
// unaligned PC. Halted CPUs are a no-op.
func (m *Machine) step(c *CPU) error {
	if c.Halted {
		return nil
	}
	inst := m.decode.lookup(c.PC)
	if inst == nil {
		var err error
		if inst, err = m.decodeMiss(c.PC); err != nil {
			return cpuErr(c, err)
		}
	} else if m.fetchCheck != nil {
		m.fetchCheck(c.PC, inst)
	}
	return m.exec(c, inst)
}

// decodeMiss decodes the instruction at pc from memory and caches it.
// A PC that is not 4-aligned still decodes, uncached: the table's slots
// are whole instruction words.
func (m *Machine) decodeMiss(pc uint64) (*arm.Inst, error) {
	if err := m.check(pc, arm.InstBytes); err != nil {
		return nil, fmt.Errorf("fetch: %w", err)
	}
	word := binary.LittleEndian.Uint32(m.Mem[pc:])
	inst, err := arm.Decode(word)
	if err != nil {
		return nil, faults.Wrap(faults.TrapDecode, err, "host instruction decode")
	}
	if pc%arm.InstBytes != 0 {
		// A copy, so that only this path's result escapes to the heap.
		uncached := inst
		return &uncached, nil
	}
	return m.decode.insert(pc, word, inst), nil
}

// fillRun decodes into the table the run that starts at the 4-aligned
// c.PC, whose slot is not valid: its first word, then the words after it
// up to a run end or the end of the page. It stops short of a word that
// does not decode or lies outside memory; only a fetch of that word
// itself traps.
func (m *Machine) fillRun(c *CPU) error {
	inst, err := m.decodeMiss(c.PC)
	if err != nil {
		return cpuErr(c, err)
	}
	for pc := c.PC + arm.InstBytes; !endsRun(inst.Op) && pc%decodePageBytes != 0; pc += arm.InstBytes {
		if inst = m.decode.lookup(pc); inst == nil {
			if inst, err = m.decodeMiss(pc); err != nil {
				break
			}
		}
	}
	return nil
}

// advance executes at most limit (≥ 1) instructions on the live CPU c and
// returns how many it executed: the run at c.PC, clipped to limit, for one
// decode lookup. It is the machine's one fetch/execute loop. A run ends at
// the only instructions that branch, halt or call a hook, so its
// instructions are the ones the per-instruction path would have executed,
// at the same PCs. While the access log is on — inside apply — a run also
// ends after each instruction that may access memory, so an exec
// transition sees its first logged access, or its halt or park, the
// moment the run that made it returns. An unaligned PC and perInst take
// step, one instruction.
func (m *Machine) advance(c *CPU, limit int) (int, error) {
	if m.perInst {
		return 1, m.step(c)
	}
	insts, s, n := m.decode.runAt(c.PC, m.accLogOn)
	if n == 0 {
		if c.PC%arm.InstBytes != 0 {
			return 1, m.step(c)
		}
		if err := m.fillRun(c); err != nil {
			return 0, err
		}
		insts, s, n = m.decode.runAt(c.PC, m.accLogOn)
	}
	run := insts[s : s+min(n, limit)]
	if m.fetchCheck != nil {
		for i := range run {
			m.fetchCheck(c.PC+uint64(i)*arm.InstBytes, &run[i])
		}
	}
	for i := range run {
		if err := m.exec(c, &run[i]); err != nil {
			return i + 1, err
		}
	}
	return len(run), nil
}

// Wait parks c until on halts. A Syscall or OnBLR hook calls it when c
// cannot go on before then, as a join whose thread still runs: exec then
// undoes the SVC or BLR the hook serves, so it executes again, once, when
// on has halted. Until then RunAll skips c and Enabled offers no exec for
// it, though its buffered stores still drain. A wait that closes a cycle
// — on is c, or waits on c through a chain of waiters — could never end:
// Wait refuses it with an error naming both CPUs and parks nothing, so
// some waiter's chain always ends at a CPU that can move. on must not
// have halted.
func (m *Machine) Wait(c, on *CPU) error {
	for w := on; ; w = w.waitOn {
		if w == c {
			return fmt.Errorf("cpu %d waiting for cpu %d to halt would wait on itself", c.ID, on.ID)
		}
		if !w.Waiting() {
			break
		}
	}
	c.waitOn = on
	return nil
}

// Waiting reports whether c is parked by Wait on a CPU that has not
// halted.
func (c *CPU) Waiting() bool { return c.waitOn != nil && !c.waitOn.Halted }

// runnable reports whether c can execute: it has neither halted nor
// parked.
func (c *CPU) runnable() bool { return !c.Halted && !c.Waiting() }

// Run executes a single CPU until it halts or maxSteps elapse, a run at a
// time as RunAll does.
func (m *Machine) Run(c *CPU, maxSteps uint64) error {
	for i := uint64(0); i < maxSteps; {
		if c.Halted {
			return nil
		}
		n, err := m.advance(c, int(min(maxSteps-i, decodePageSlots)))
		if err != nil {
			return err
		}
		i += uint64(n)
	}
	return budgetTrap(c, maxSteps, "step budget %d exhausted", maxSteps)
}

// RunAll interleaves every live CPU round-robin, quantum instructions at a
// time, until all halt or a budget expires: the per-machine maxSteps, the
// per-CPU StepBudget, or the wall-clock Deadline. Budget expiry returns a
// structured faults.TrapBudget, so a runaway or livelocked guest degrades
// to a typed, reportable halt instead of an unbounded spin. CPUs added
// during execution (spawn) join the rotation; a CPU that parks (Wait)
// ends its quantum and leaves the rotation until the CPU it waits on
// halts.
//
// A CPU advances a run at a time, each run clipped so that it ends where
// the quantum or a step budget does: quanta, trap points and Insts are
// those of one instruction at a time.
func (m *Machine) RunAll(quantum int, maxSteps uint64) (err error) {
	if quantum <= 0 {
		quantum = 64
	}
	defer func() { m.endRun(err) }()
	w := m.watch(maxSteps)
	rr := 0 // round-robin cursor: next CPU ID to consider
	for {
		c := m.nextLive(rr)
		if c == nil {
			return m.stuck()
		}
		rr = c.ID + 1
		if err := m.beginQuantum(c); err != nil {
			return err
		}
		for q := 0; q < quantum && c.runnable(); {
			n, err := m.advance(c, w.clip(c, quantum-q))
			if err != nil {
				return err
			}
			q += n
			if err := w.charge(c, n); err != nil {
				return err
			}
		}
	}
}

// beginQuantum opens c's turn, a RunAll quantum or a walk's exec
// transition: it counts it and fires the step-site fault.
func (m *Machine) beginQuantum(c *CPU) error {
	m.quanta.Inc()
	if t := m.Inject.Hit(faults.SiteStep); t != nil {
		t.Steps = c.Insts
		return t.WithCPU(c.ID).WithHostPC(c.PC)
	}
	return nil
}

// watchdog is the budget policy of one RunAll or walk: maxSteps
// instructions across all CPUs, the machine's per-CPU StepBudget, and its
// wall-clock Deadline measured from the start.
type watchdog struct {
	maxSteps, total uint64
	// perCPU is StepBudget, or no bound when StepBudget is 0.
	perCPU   uint64
	deadline time.Duration
	start    time.Time
	// poll is the total past which charge takes its slow path: maxSteps,
	// or with a deadline the next multiple of 1024, where the clock is
	// read — cheap enough for the hot loop, tight enough to bound a hang.
	poll uint64
}

// watch starts a watchdog over maxSteps and the machine's budgets.
func (m *Machine) watch(maxSteps uint64) watchdog {
	w := watchdog{maxSteps: maxSteps, perCPU: cmp.Or(m.StepBudget, math.MaxUint64), deadline: m.Deadline, poll: maxSteps}
	if w.deadline > 0 {
		w.start, w.poll = time.Now(), min(maxSteps, 1023)
	}
	return w
}

// clip clips limit, the instructions c is about to execute, to the one at
// which a step budget traps; a CPU already at its StepBudget traps after
// one more instruction.
func (w *watchdog) clip(c *CPU, limit int) int {
	if c.Insts >= w.perCPU {
		return 1
	}
	return int(min(uint64(limit-1), w.maxSteps-w.total, w.perCPU-c.Insts-1) + 1)
}

// charge counts n instructions c just executed and returns the trap of
// the budget they exhausted, if any.
func (w *watchdog) charge(c *CPU, n int) error {
	w.total += uint64(n)
	if w.total > w.poll || c.Insts >= w.perCPU {
		return w.expired(c)
	}
	return nil
}

// expired is charge's slow path: the trap of the budget that ran out, or
// nil when the deadline's poll finds time left.
func (w *watchdog) expired(c *CPU) error {
	switch {
	case w.total > w.maxSteps:
		return budgetTrap(c, w.total, "machine step budget %d exhausted", w.maxSteps)
	case c.Insts >= w.perCPU:
		return budgetTrap(c, c.Insts, "per-CPU step budget %d exhausted", w.perCPU)
	case w.deadline > 0 && time.Since(w.start) > w.deadline:
		return budgetTrap(c, w.total, "wall-clock deadline %v exceeded", w.deadline)
	}
	w.poll = min(w.maxSteps, w.total|1023)
	return nil
}

// nextLive returns the first runnable CPU with ID >= from, wrapping
// around — so CPUs spawned mid-run join the rotation as the cursor reaches
// them — or nil when no CPU can run.
func (m *Machine) nextLive(from int) *CPU {
	for _, c := range m.CPUs[from:] {
		if c.runnable() {
			return c
		}
	}
	for _, c := range m.CPUs[:from] {
		if c.runnable() {
			return c
		}
	}
	return nil
}

// stuck ends a RunAll or walk in which no CPU can move: nil when every
// CPU has halted, else an error naming a parked one. While Wait refuses
// cycles some waiter can always move, so the error means a broken
// invariant, never a finished run.
func (m *Machine) stuck() error {
	for _, c := range m.CPUs {
		if !c.Halted {
			return fmt.Errorf("machine: cpu %d waits on cpu %d and no CPU can move", c.ID, c.waitOn.ID)
		}
	}
	return nil
}

// budgetTrap builds the structured watchdog result for c: a TrapBudget
// with the spent steps, on c's CPU and PC.
func budgetTrap(c *CPU, steps uint64, format string, args ...any) error {
	t := faults.New(faults.TrapBudget, format, args...)
	t.Steps = steps
	return t.WithCPU(c.ID).WithHostPC(c.PC)
}

// MaxCycles returns the largest per-CPU cycle count — the simulated elapsed
// time of a parallel phase.
func (m *Machine) MaxCycles() uint64 {
	var max uint64
	for _, c := range m.CPUs {
		if c.Cycles > max {
			max = c.Cycles
		}
	}
	return max
}

// TotalInsts returns the instruction count summed over CPUs.
func (m *Machine) TotalInsts() uint64 {
	var n uint64
	for _, c := range m.CPUs {
		n += c.Insts
	}
	return n
}
