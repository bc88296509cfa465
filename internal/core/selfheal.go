// Self-healing execution mechanics: the runtime side of the tiered
// recovery layer whose policy lives in internal/selfheal.
//
//   - runHealed/healTrap absorb traps attributable to a translated block
//     by quarantining the block (invalidate + tier demotion) and resuming
//     execution, bounded by maxHeals.
//   - shadowVerify implements -selfcheck runtime translation validation:
//     every freshly compiled block runs once on a snapshot of CPU and
//     memory state, and its effects are compared against the TCG
//     interpreter executing the literal frontend IR.
//   - interpExec is the bottom tier: blocks demoted past every compiled
//     tier execute through the TCG interpreter with no generated code.
//   - CrashBundle/ReplayOptions serialize an unrecovered trap into a
//     deterministic triage document and rebuild a run from one.

package core

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/backend"
	"repro/internal/faults"
	"repro/internal/frontend"
	"repro/internal/guestimg"
	"repro/internal/machine"
	"repro/internal/selfheal"
	"repro/internal/tcg"
)

const (
	// interpCostPerOp approximates the cycle cost of one interpreted IR op
	// (roughly an order of magnitude over compiled code, matching the
	// classic interpreter/JIT gap).
	interpCostPerOp = 8
	// shadowStepBudget bounds one shadow verification run; a compiled
	// block that executes this long without exiting is itself divergent.
	shadowStepBudget = 1 << 20
)

// Heal exposes the quarantine registry (nil unless SelfHeal is enabled) —
// for tests that pin a block's tier and for replay seeding.
func (rt *Runtime) Heal() *selfheal.State { return rt.heal }

// runHealed runs f, absorbing healable traps until f succeeds, an
// unhealable trap surfaces, or the heal budget runs out.
func (rt *Runtime) runHealed(f func() error) error {
	for {
		err := f()
		if err == nil || !rt.cfg.SelfHeal {
			return err
		}
		if !rt.healTrap(err) {
			return err
		}
	}
}

// healTrap attempts recovery from one trap: attribute it to a translated
// block, quarantine that block (invalidate + demote one tier), and point
// the faulting CPU back at the guest PC so dispatch retranslates it lower
// on the ladder. Reports false when the trap must surface: watchdog kinds,
// unattributable PCs, an exhausted tier ladder, or a spent heal budget.
//
// Recovery re-executes the quarantined block from its entry. A trap at the
// block's first instruction (the miscompile marker, a corrupted fetch) is
// always sound to retry; a mid-block trap may repeat the prefix's stores —
// the documented price of continuing instead of dying.
func (rt *Runtime) healTrap(err error) bool {
	t, ok := faults.As(err)
	if !ok {
		return false
	}
	switch t.Kind {
	case faults.TrapBudget, faults.TrapCacheExhausted, faults.TrapWorkerPanic:
		// Budget expiry is a watchdog verdict on the whole run, not a
		// block defect; cache exhaustion already had its flush-and-retry.
		return false
	}
	pc, ok := rt.trapGuestPC(t)
	if !ok {
		return false
	}
	if t.CPU < 0 || t.CPU >= len(rt.M.CPUs) {
		return false
	}
	if rt.heals >= maxHeals {
		rt.obs.Event("core.selfheal.exhausted", t.Error(), t.CPU, pc, 0)
		return false
	}
	if !rt.quarantinePC(rt.M.CPUs[t.CPU], pc, t.Error()) {
		return false
	}
	rt.heals++
	rt.met.heals.Inc()
	c := rt.M.CPUs[t.CPU]
	if derr := rt.dispatch(c, pc); derr != nil {
		return rt.healTrap(derr)
	}
	rt.obs.Event("core.selfheal.heal", t.Kind.String(), t.CPU, pc, 0)
	return true
}

// trapGuestPC resolves the guest PC a trap is attributable to.
func (rt *Runtime) trapGuestPC(t *faults.Trap) (uint64, bool) {
	if t.GuestPC {
		return t.PC, true
	}
	return rt.guestPCOf(t.PC)
}

// quarantinePC invalidates guestPC's translation and demotes its tier,
// recording the event. Reports false when the ladder was already at the
// interpreter rung — there is nothing lower to retry. The demotion starts
// from the installed translation's actual tier, which under tier-up may
// differ from the registry's map (an unpinned block runs at the implicit
// TierNoOpt start tier; a promoted superblock at TierFull).
func (rt *Runtime) quarantinePC(c *machine.CPU, guestPC uint64, reason string) bool {
	cur := rt.heal.TierOf(guestPC)
	if t, ok := rt.tbs[guestPC]; ok {
		cur = t.tier
	}
	d := rt.heal.QuarantineAt(guestPC, cur, reason)
	rt.invalidateBlock(guestPC)
	if rt.tierup != nil {
		rt.tierup.demoted(guestPC)
	}
	if d.First {
		rt.met.quarantines.Inc()
	}
	if d.Demoted {
		rt.met.demotions.Inc()
	}
	rt.obs.Event("core.selfheal.quarantine",
		fmt.Sprintf("%s->%s: %s", d.From, d.To, reason), c.ID, guestPC, 0)
	return d.Demoted
}

// blockCalls reports whether the IR contains a helper call. Helper effects
// (RMW emulation, guest syscalls) are externally visible, so a shadow run
// must not replay them.
func blockCalls(ir *tcg.Block) bool {
	for _, in := range ir.Insts {
		if in.Op == tcg.OpCall {
			return true
		}
	}
	return false
}

// shadowVerify runs runtime translation validation on a freshly emitted
// block: the emitted code executes once on a shadow machine over a deep
// snapshot of memory and c's registers, the TCG interpreter executes the
// literal frontend IR on its own copy, and any disagreement in trap
// behaviour, exit, globals or memory is reported as a Divergence (nil
// when the block verifies). The live machine is never touched.
func (rt *Runtime) shadowVerify(c *machine.CPU, t *tb, ir *tcg.Block) *selfheal.Divergence {
	if ir == nil {
		return nil
	}
	if blockCalls(ir) {
		rt.met.selfSkipped.Inc()
		return nil
	}
	rt.met.selfChecks.Inc()
	start := rt.obs.Begin()
	defer func() {
		rt.obs.Span("core.selfcheck", "", c.ID, t.guestPC, t.hostAddr, start)
	}()
	div := func(kind, format string, args ...any) *selfheal.Divergence {
		return &selfheal.Divergence{
			GuestPC: t.guestPC, Tier: t.tier,
			Kind: kind, Detail: fmt.Sprintf(format, args...),
		}
	}

	// Drain c's store buffer before snapshotting: flushing is always an
	// allowed weak-memory transition, and it puts the oracle interpreter
	// and the shadow machine on the same memory image. A flush trap will
	// re-trap on the live machine; it is not the block's miscompile.
	if err := rt.M.FlushWeak(c); err != nil {
		rt.met.selfSkipped.Inc()
		return nil
	}
	snap := rt.M.Snapshot(c)

	// Oracle: the interpreter over the literal IR on its own copies.
	n := ir.NumTemps
	if n < tcg.NumGlobals {
		n = tcg.NumGlobals
	}
	oracleMem := tcg.Flat(append([]byte(nil), snap.Mem...))
	it := &tcg.Interp{Temps: make([]uint64, n), Mem: oracleMem}
	copy(it.Temps, snap.CPU.Regs[:tcg.NumGlobals])
	ierr := it.Run(ir)

	// Candidate: the emitted code on a shadow machine over the snapshot.
	sm := snap.ShadowMachine()
	sc := sm.CPUs[0]
	var hostNext uint64
	var hostHalt bool
	sm.Syscall = func(m *machine.Machine, cc *machine.CPU, imm uint16) error {
		switch imm {
		case backend.SvcTBExit:
			hostNext = cc.Regs[18]
			cc.Halted = true
			return nil
		case backend.SvcHalt:
			hostHalt = true
			cc.Halted = true
			return nil
		}
		return fmt.Errorf("shadow: unexpected svc #%d", imm)
	}
	sm.OnBLR = func(m *machine.Machine, cc *machine.CPU, target uint64) (bool, error) {
		return false, fmt.Errorf("shadow: unexpected helper call to %#x", target)
	}
	sc.PC = t.hostAddr
	herr := sm.Run(sc, shadowStepBudget)

	// Both sides trapping is agreement: live execution will surface the
	// same trap and the self-heal layer judges it there.
	if (herr != nil) != (ierr != nil) {
		return div("trap", "host err %v, interp err %v", herr, ierr)
	}
	if herr != nil {
		return nil
	}
	if hostHalt != it.Halted {
		return div("exit", "host halted=%v, interp halted=%v", hostHalt, it.Halted)
	}
	if !hostHalt && hostNext != it.NextPC {
		return div("exit", "host next=%#x, interp next=%#x", hostNext, it.NextPC)
	}
	for i := 0; i < tcg.NumGlobals; i++ {
		if sc.Regs[i] != it.Temps[i] {
			return div("register", "global %d: host %#x, interp %#x", i, sc.Regs[i], it.Temps[i])
		}
	}
	if !bytes.Equal(sm.Mem, oracleMem) {
		for i := range sm.Mem {
			if sm.Mem[i] != oracleMem[i] {
				return div("memory", "byte %#x: host %#02x, interp %#02x", i, sm.Mem[i], oracleMem[i])
			}
		}
	}
	return nil
}

// interpExec executes guestPC's cached frontend IR through the TCG
// interpreter — the bottom tier, trusting no generated code. Globals are
// mirrored between the interpreter and the vCPU; helper calls go through
// interpHelper; a blocked syscall (join) rewinds the CPU to the stub and
// yields, so the scheduler retries the block once per rotation.
func (rt *Runtime) interpExec(c *machine.CPU, guestPC, stubAddr uint64) error {
	ir, ok := rt.irCache[guestPC]
	if !ok {
		return faults.New(faults.TrapDecode,
			"core: interp stub without cached IR for %#x", guestPC).
			WithCPU(c.ID).WithGuestPC(guestPC)
	}
	rt.met.interpBlocks.Inc()
	// Interpreter-tier execution is sequentially consistent (a sound
	// strengthening).
	if err := rt.drainFor(c); err != nil {
		return err
	}
	n := ir.NumTemps
	if n < tcg.NumGlobals {
		n = tcg.NumGlobals
	}
	it := &tcg.Interp{Temps: make([]uint64, n), Mem: rt.M}
	copy(it.Temps, c.Regs[:tcg.NumGlobals])
	var yielded bool
	it.OnCall = func(in tcg.Inst, a, b uint64) (uint64, error) {
		return rt.interpHelper(c, it, in, a, b, &yielded)
	}
	err := it.Run(ir)
	copy(c.Regs[:tcg.NumGlobals], it.Temps[:tcg.NumGlobals])
	steps := uint64(it.Steps)
	c.Insts += steps
	c.Cycles += interpCostPerOp * steps
	if err != nil {
		return rt.interpTrap(c, guestPC, err)
	}
	if yielded {
		c.PC = stubAddr
		return nil
	}
	if it.Halted || c.Halted {
		c.Halted = true
		return nil
	}
	return rt.dispatch(c, it.NextPC)
}

// interpHelper serves an interpreted block's helper call with the same
// semantics as the compiled path's handleBLR: guest registers are read and
// written directly, so the interpreter's globals are mirrored into the
// vCPU around the call. The result is returned for local-temp DSTs
// (tcg.Interp's OnCall convention); global effects travel through the
// register mirror.
func (rt *Runtime) interpHelper(c *machine.CPU, it *tcg.Interp, in tcg.Inst, a, b uint64, yielded *bool) (uint64, error) {
	copy(c.Regs[:tcg.NumGlobals], it.Temps[:tcg.NumGlobals])
	defer copy(it.Temps[:tcg.NumGlobals], c.Regs[:tcg.NumGlobals])
	rt.met.helperCalls.Inc()
	switch in.Helper {
	case tcg.HelperCmpXchg, tcg.HelperXAdd, tcg.HelperXchg:
		return rt.atomicHelper(c, in.Helper, in.Size, a, b)

	case frontend.HelperSyscall:
		rt.met.syscalls.Inc()
		err := rt.guestSyscall(rt.M, c)
		if err == errJoinBlocked {
			// The block (isolated by the frontend's SyscallBarrier) retries
			// from its stub next rotation.
			*yielded = true
			return 0, nil
		}
		return 0, err
	}
	return 0, faults.New(faults.TrapHostCall,
		"core: unknown helper %d in interpreted block", in.Helper).WithCPU(c.ID)
}

// interpTrap converts interpreter-internal failures into structured traps
// attributed to the interpreted block; already-structured traps (helper
// effects, nested dispatch) pass through untouched.
func (rt *Runtime) interpTrap(c *machine.CPU, guestPC uint64, err error) error {
	if _, ok := faults.As(err); ok {
		return err
	}
	kind := faults.TrapDecode
	switch {
	case errors.Is(err, tcg.ErrInterpOOB):
		kind = faults.TrapUnmapped
	case errors.Is(err, tcg.ErrInterpBudget):
		kind = faults.TrapBudget
	}
	return faults.Wrap(kind, err, "interp tier").WithCPU(c.ID).WithGuestPC(guestPC)
}

// ParseVariant inverts Variant.String.
func ParseVariant(s string) (Variant, error) {
	for i, n := range variantNames {
		if n == s {
			return Variant(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown variant %q (want one of %v)", s, variantNames)
}

// CrashBundle serializes an unrecovered trap into a deterministic triage
// document: the full replay configuration plus post-mortem evidence (CPU
// state, quarantine history, faulting-block disassembly, recent spans,
// counter snapshot). tool names the producing CLI. Returns an error when
// runErr carries no structured trap.
func (rt *Runtime) CrashBundle(tool string, runErr error) (*selfheal.Bundle, error) {
	t, ok := faults.As(runErr)
	if !ok {
		return nil, fmt.Errorf("core: no structured trap in %v", runErr)
	}
	b := &selfheal.Bundle{
		Version:    selfheal.BundleVersion,
		Tool:       tool,
		Variant:    rt.cfg.Variant.String(),
		Kernel:     rt.cfg.Kernel,
		Image:      rt.img.Encode(),
		Replay:     rt.cfg.Replay,
		Trap:       selfheal.TrapInfoOf(t),
		Quarantine: rt.heal.History(),
	}
	if rt.cfg.TierUp.Enabled {
		tu := rt.cfg.TierUp
		b.TierUp = &tu
	}
	for _, c := range rt.M.CPUs {
		b.CPUs = append(b.CPUs, selfheal.CPUState{
			ID: c.ID, Regs: append([]uint64(nil), c.Regs[:]...), PC: c.PC,
			N: c.N, Z: c.Z, C: c.C, V: c.V,
			Cycles: c.Cycles, Insts: c.Insts,
			Halted: c.Halted, ExitCode: c.ExitCode,
		})
	}
	if pc, ok := rt.trapGuestPC(t); ok {
		if blk, ok := rt.tbs[pc]; ok {
			b.Disasm = rt.disasmTB(blk)
		}
	}
	if tr := rt.obs.Tracer(); tr != nil {
		b.Spans = selfheal.NormalizeSpans(tr.Spans(), 64)
	}
	counters := rt.obs.Snapshot().Counters
	if len(counters) > 0 {
		b.Metrics = make(map[string]uint64, len(counters))
		for k, v := range counters {
			b.Metrics[k] = v
		}
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// ReplayOptions rebuilds the options and guest image a bundle describes,
// rearming the fault injector from the recorded spec and seed; pass both
// to New. The one option installs the recorded Config wholesale. It
// carries no Obs scope; the caller appends its own WithObs.
func ReplayOptions(b *selfheal.Bundle) ([]Option, *guestimg.Image, error) {
	v, err := ParseVariant(b.Variant)
	if err != nil {
		return nil, nil, err
	}
	img, err := guestimg.Decode(b.Image)
	if err != nil {
		return nil, nil, err
	}
	cfg := Config{Replay: b.Replay, Variant: v, Kernel: b.Kernel}
	if b.TierUp != nil {
		cfg.TierUp = *b.TierUp
	}
	if b.FaultSpec != "" {
		specs, err := faults.ParseSpecs(b.FaultSpec)
		if err != nil {
			return nil, nil, err
		}
		inj := faults.NewInjector(b.FaultSeed)
		for _, sp := range specs {
			sp.Arm(inj)
		}
		cfg.Inject = inj
	}
	return []Option{func(c *Config) { *c = cfg }}, img, nil
}
