// Package core is Risotto-Go's DBT engine — the analogue of the paper's
// modified QEMU (§6). It owns the translation-block cache and execution
// loop, wires the x86 frontend, the TCG optimizer and the Arm backend
// together under a selectable variant (the four setups of §7.1), installs
// the runtime helpers (QEMU-style RMW emulation, guest syscalls), and
// implements the dynamic host library linker (§6.2) and the fast CAS
// translation (§6.3).
package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/backend"
	"repro/internal/faults"
	"repro/internal/frontend"
	"repro/internal/guestimg"
	"repro/internal/hostlib"
	"repro/internal/idl"
	"repro/internal/isa/arm"
	"repro/internal/isa/x86"
	"repro/internal/machine"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/selfheal"
	"repro/internal/tcg"
)

// Variant selects one of the evaluation's four DBT setups (§7.1).
type Variant int

const (
	// VariantQemu is vanilla QEMU 6.1.0: leading-fence mapping (Figure 2)
	// and helper-call RMWs.
	VariantQemu Variant = iota
	// VariantNoFences enforces no memory model at all — incorrect, but
	// the oracle for the maximum possible gain from fence optimization.
	VariantNoFences
	// VariantTCGVer is QEMU with Risotto's verified mappings and fence
	// merging (the paper's tcg-ver / tcg-tso).
	VariantTCGVer
	// VariantRisotto is the full system: verified mappings, fence
	// merging, inline CAS translation, and the dynamic host linker.
	VariantRisotto
)

var variantNames = []string{"qemu", "no-fences", "tcg-ver", "risotto"}

func (v Variant) String() string {
	if int(v) < len(variantNames) {
		return variantNames[v]
	}
	return fmt.Sprintf("variant?%d", int(v))
}

// Config parameterizes a Runtime. Everything a crash bundle replays lives
// in the embedded selfheal.Replay, which the bundle embeds too; the fields
// below it are bundled apart from that block (Variant by name, Kernel
// beside the image, TierUp only when enabled) or not at all.
type Config struct {
	selfheal.Replay
	// Variant selects the DBT setup (bundled by name).
	Variant Variant
	// Kernel records the workload name for crash bundles; it does not
	// affect execution.
	Kernel string
	// Lib is the host library used by the linker (hostlib.Default() if
	// nil).
	Lib *hostlib.Library
	// Opt, when non-nil, overrides the variant's optimizer configuration
	// (used by the ablation benchmarks).
	Opt *tcg.OptConfig
	// Inject, when non-nil, arms deterministic fault injection across the
	// stack: frontend decode, code-cache allocation, memory accesses,
	// scheduler quanta, host-linked calls and emitted-code corruption.
	// Bundles record its FaultSpec instead.
	Inject *faults.Injector
	// Obs, when non-nil, is the observability scope the whole stack
	// reports into: the runtime threads it through the frontend, the
	// optimizer, the backend, the machine and the injector, prefixing its
	// own metrics "core.". When nil, the runtime creates a private scope
	// so Stats() keeps working; pass one to aggregate several subsystems
	// (or to dump metrics) instead.
	Obs *obs.Scope
	// TransCache, when non-nil, is a persistent translation cache
	// (internal/transcache): compiled-tier translations look up
	// post-optimization IR by (PC, tier) before running the frontend and
	// optimizer, and store fresh IR after. Host code is still emitted
	// per-run (it is position-dependent). Ignored when SelfCheck is on —
	// shadow verification needs the pre-optimization oracle IR, which
	// cached entries by design no longer have.
	TransCache TranslationCache
	// Machine, when non-nil, is the machine to run on instead of a new
	// one: New resets it (machine.Reset clears only the pages the last run
	// wrote) and installs the runtime's hooks and watchdogs on it. A zero
	// MemSize takes the machine's size; any other size must equal it.
	Machine *machine.Machine
	// TierUp configures the tier-up JIT (tierup.go): when enabled,
	// unpinned blocks start at the cheap TierNoOpt rung and hot ones are
	// promoted to full-tier superblocks by the dispatch that finds them hot.
	// Bundled only when enabled.
	TierUp TierUpConfig
}

// TranslationCache is the persistent-translation-cache hook: keys are
// (guest PC, tier) within whatever image/config scope the implementation
// pinned at construction. Implementations must be safe for concurrent use
// and must return blocks the runtime may own (no aliasing with internal
// state).
type TranslationCache interface {
	LoadBlock(pc uint64, tier selfheal.Tier) (*tcg.Block, bool)
	StoreBlock(pc uint64, tier selfheal.Tier, blk *tcg.Block)
}

// Stats is a plain-struct view of the runtime counters (all uint64; the
// historical mix of int and uint64 fields is gone). It is produced by
// Runtime.Stats() from the obs registry — kept as a compatibility façade
// over the metrics under "core.".
type Stats struct {
	Blocks      uint64
	GuestBytes  uint64
	HostInsts   uint64
	DMBFull     uint64
	DMBLoad     uint64
	DMBStore    uint64
	Casal       uint64
	ExclLoop    uint64
	HelperCalls uint64
	HostCalls   uint64
	Syscalls    uint64
	// ChainPatches counts block exits rewritten into direct branches.
	ChainPatches uint64
	// CacheFlushes counts full code-cache flush-and-retranslate cycles
	// taken to recover from cache exhaustion.
	CacheFlushes uint64
	// Quarantines counts blocks quarantined for the first time;
	// Demotions counts tier downgrades (a block demoted twice counts
	// once in Quarantines, twice in Demotions).
	Quarantines uint64
	Demotions   uint64
	// Divergences counts selfcheck shadow runs whose effects disagreed
	// with the TCG interpreter oracle.
	Divergences uint64
	// Heals counts traps absorbed by quarantine-and-retranslate.
	Heals uint64
	// SelfChecks counts shadow verifications performed; InterpBlocks
	// counts interpreter-tier block executions.
	SelfChecks   uint64
	InterpBlocks uint64
	// Promotions counts hot blocks promoted to TierFull by the tier-up
	// JIT; Superblocks counts promotions that stitched more than one
	// guest block, and SuperblockGuestBlocks the blocks they covered.
	Promotions            uint64
	Superblocks           uint64
	SuperblockGuestBlocks uint64
	// CrossBlockFenceMerges counts fences eliminated by merging across
	// block seams inside superblocks — merges the per-block scheme
	// cannot see.
	CrossBlockFenceMerges uint64
}

// tb is one cached translation block.
type tb struct {
	guestPC  uint64
	hostAddr uint64
	codeLen  int
	// tier is the self-healing ladder rung the block was translated at.
	tier selfheal.Tier
}

// pltEntry is a host-linked import.
type pltEntry struct {
	sig  idl.Signature
	fn   hostlib.Func
	name string
}

// Runtime is one emulated guest process.
//
// Single-owner rule: machine.RunAll drives every vCPU from the goroutine
// that called Run, and every table below — tbs, chainSites, patched,
// irCache, interpStubs, plt, the allocator cursors — is read and
// written only from it (dispatch, translation, flush, quarantine and
// tier-up promotion all run inside the SVC/BLR callbacks). The package
// starts no goroutine of its own, so none of it needs a lock; a Runtime
// must not be shared between goroutines.
//
// Every translation — a compiled block, an interpreter stub, a promoted
// superblock, a superblock re-emitted after a flush — enters the code
// cache through install, the only code that adds entries to tbs, irCache
// and interpStubs and the only caller of flushCodeCache.
type Runtime struct {
	// M is the underlying simulated host machine.
	M *machine.Machine

	obs *obs.Scope
	met metrics

	cfg        Config
	feCfg      frontend.Config
	beCfg      backend.Config
	optCfg     tcg.OptConfig
	tbs        map[uint64]*tb // guest PC → translation block
	codeCursor uint64
	plt        map[uint64]*pltEntry // guest PLT address → host function
	stackCur   uint64
	heapCur    uint64
	img        *guestimg.Image
	// tierup is the promotion engine (nil unless Config.TierUp.Enabled).
	tierup *tierUp
	// chainSites maps the host address of a patchable exit SVC to its
	// constant guest target (TB chaining).
	chainSites map[uint64]uint64
	// patched records exit SVCs rewritten into direct branches (host
	// address → guest target), so a cache flush can restore them (chain
	// reset) before recycling the region they branch into.
	patched map[uint64]uint64
	// pinned lists code-cache extents that survived the last flush
	// because a CPU was still executing inside them; the allocator skips
	// them until the next flush re-evaluates liveness.
	pinned []extent

	// heal is the quarantine registry (nil unless SelfHeal); heals counts
	// recoveries consumed against maxHeals.
	heal  *selfheal.State
	heals int
	// irCache holds the frontend IR of interpreter-tier blocks, keyed by
	// guest PC; interpStubs maps each interp stub's host address back to
	// its guest PC (stubs pinned across a cache flush stay resolvable).
	irCache     map[uint64]*tcg.Block
	interpStubs map[uint64]uint64
}

// extent is a half-open host-code byte range [start, end).
type extent struct{ start, end uint64 }

// Costs charged by the runtime on top of the machine's table.
const (
	// helperBodyCost models the helper function's prologue/epilogue and
	// the GCC-built-in wrapper around the atomic (§2.3's extra jumps).
	helperBodyCost = 36
	// marshalBase and marshalPerArg model argument marshaling between
	// guest and host ABIs (§6.2, the math-library overhead of Figure 14).
	marshalBase   = 24
	marshalPerArg = 6
	// translationCostPerByte amortizes translation work.
	translationCostPerByte = 2
)

// Runtime limits no caller varies.
const (
	// defaultMemSize is the machine memory size when Config leaves it 0:
	// a 2 MiB code cache over 6 MiB for the image, heap and stacks, which
	// holds every registered kernel at scale 1 with up to 16 threads.
	defaultMemSize = 8 << 20
	// stackSize is carved per guest thread.
	stackSize = 256 << 10
	// maxSteps bounds the host instructions one Run executes across all
	// vCPUs.
	maxSteps = 2_000_000_000
	// maxHeals caps the quarantine recoveries of one run with SelfHeal on.
	maxHeals = 16
	// bundleSpans is how many of the newest spans a crash bundle keeps.
	// The bundle is the one reader of a runtime's private scope (no
	// WithObs), whose span ring holds exactly that many.
	bundleSpans = 64
)

// guestReg maps a guest register to the host register carrying it.
func guestReg(c *machine.CPU, r x86.Reg) *uint64 { return &c.Regs[int(r)] }

// newRuntime creates a runtime for the given config and loads the image.
// Exported construction goes through New (options.go).
func newRuntime(cfg Config, img *guestimg.Image) (*Runtime, error) {
	if m := cfg.Machine; m != nil {
		switch {
		case cfg.MemSize == 0:
			cfg.MemSize = len(m.Mem)
		case cfg.MemSize != len(m.Mem):
			return nil, fmt.Errorf("core: memory size %d differs from the machine's %d", cfg.MemSize, len(m.Mem))
		}
	}
	if cfg.MemSize == 0 {
		cfg.MemSize = defaultMemSize
	}
	if cfg.CodeCacheBase == 0 {
		cfg.CodeCacheBase = defaultCodeCacheBase(cfg.MemSize)
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 64
	}
	if cfg.SelfCheck {
		cfg.SelfHeal = true
	}
	if cfg.TierUp.Enabled {
		cfg.TierUp = tierUpDefaults(cfg.TierUp)
	}

	scope := cfg.Obs
	if scope == nil {
		scope = obs.NewScopeCapacity("", bundleSpans)
	}
	met := newMetrics(scope)
	rt := &Runtime{
		obs:         scope,
		met:         met,
		cfg:         cfg,
		tbs:         make(map[uint64]*tb),
		plt:         make(map[uint64]*pltEntry),
		chainSites:  make(map[uint64]uint64),
		patched:     make(map[uint64]uint64),
		irCache:     make(map[uint64]*tcg.Block),
		interpStubs: make(map[uint64]uint64),
	}
	// Tier-up needs the registry even without SelfHeal: promotion pins,
	// the blacklist, and demotion of promoted blocks all live there.
	if cfg.SelfHeal || cfg.TierUp.Enabled {
		rt.heal = selfheal.NewState()
	}

	switch cfg.Variant {
	case VariantQemu:
		rt.feCfg = frontend.Config{Scheme: mapping.X86Qemu, CAS: frontend.CASHelper}
		rt.optCfg = tcg.OptConfig{ConstProp: true, AccessElim: true, DeadCode: true}
	case VariantNoFences:
		rt.feCfg = frontend.Config{Scheme: mapping.X86NoFences, CAS: frontend.CASHelper}
		rt.optCfg = tcg.OptConfig{ConstProp: true, AccessElim: true, DeadCode: true}
	case VariantTCGVer:
		rt.feCfg = frontend.Config{Scheme: mapping.X86Verified, CAS: frontend.CASHelper}
		rt.optCfg = tcg.DefaultOpt()
	case VariantRisotto:
		rt.feCfg = frontend.Config{Scheme: mapping.X86Verified, CAS: frontend.CASInline}
		rt.optCfg = tcg.DefaultOpt()
	default:
		return nil, fmt.Errorf("core: unknown variant %d", cfg.Variant)
	}
	if cfg.Opt != nil {
		rt.optCfg = *cfg.Opt
	}
	rt.beCfg = backend.Config{CAS: backend.CASCasal}
	rt.feCfg.Inject = cfg.Inject
	rt.feCfg.Obs = scope
	rt.optCfg.Obs = scope
	rt.beCfg.Obs = scope
	cfg.Inject.SetObs(scope)

	if cfg.Machine != nil {
		cfg.Machine.Reset()
		rt.M = cfg.Machine
	} else {
		rt.M = machine.New(cfg.MemSize)
	}
	rt.M.SetObs(scope)
	rt.M.Syscall = rt.handleSvc
	rt.M.OnBLR = rt.handleBLR
	rt.M.StepBudget = cfg.StepBudget
	rt.M.Deadline = cfg.Deadline
	rt.M.Inject = cfg.Inject
	if cfg.WeakSeed != nil {
		rt.M.EnableWeakMode()
	}

	if cfg.TierUp.Enabled {
		rt.tierup = newTierUp(rt, cfg.TierUp)
	}

	if err := rt.load(img); err != nil {
		return nil, err
	}
	return rt, nil
}

// load maps the image and prepares linker and allocator state.
func (rt *Runtime) load(img *guestimg.Image) error {
	if err := img.Load(rt.M); err != nil {
		return err
	}
	rt.img = img
	rt.codeCursor = rt.cfg.CodeCacheBase
	top := img.MaxAddr()
	rt.heapCur = (top + 0xFFF) &^ 0xFFF
	// Stacks grow down from just below the code cache.
	rt.stackCur = rt.cfg.CodeCacheBase &^ 0xF

	// Host linker setup (§6.2, steps 1–2): parse the IDL, match .dynsym
	// imports, index their PLT addresses.
	if rt.cfg.Variant == VariantRisotto && rt.cfg.IDL != "" {
		table, err := idl.ParseTable(rt.cfg.IDL)
		if err != nil {
			return err
		}
		lib := rt.cfg.Lib
		if lib == nil {
			lib = hostlib.Default()
		}
		for _, d := range img.DynSyms {
			sig, ok := table[d.Name]
			if !ok {
				continue // not declared: translated like any guest code
			}
			fn, ok := lib.Lookup(d.Name)
			if !ok {
				return fmt.Errorf("core: IDL declares %q but host library lacks it", d.Name)
			}
			rt.plt[d.PLT] = &pltEntry{sig: sig, fn: fn, name: d.Name}
		}
	}
	return nil
}

// defaultCodeCacheBase places the code cache in the upper quarter of
// memory; the guest image, its heap and its stacks share what is below.
func defaultCodeCacheBase(memSize int) uint64 { return uint64(memSize) * 3 / 4 }

// GuestRoom is how far a guest image and its heap may extend in a machine
// of memSize bytes (0 = the default size) with the default code cache,
// once threads stacks are carved below the cache; 0 when the stacks alone
// leave no room.
func GuestRoom(memSize, threads int) uint64 {
	if memSize == 0 {
		memSize = defaultMemSize
	}
	base := defaultCodeCacheBase(memSize)
	if threads < 0 || uint64(threads) >= base/stackSize {
		return 0
	}
	return base - uint64(threads)*stackSize
}

// newStack carves a stack below the previous one and returns its top. The
// room check compares against the gap instead of forming stackCur-stackSize,
// which would wrap below zero (or silently overlap the heap).
func (rt *Runtime) newStack() (uint64, error) {
	if rt.stackCur < rt.heapCur || rt.stackCur-rt.heapCur < stackSize {
		return 0, fmt.Errorf("guest spawn: stack space exhausted")
	}
	rt.stackCur -= stackSize
	return rt.stackCur + stackSize - 64, nil
}

// heapRoom is how far the guest heap may still grow: up to the lowest
// stack, less one further stack per live CPU held back for spawns.
func (rt *Runtime) heapRoom() uint64 {
	reserve := uint64(len(rt.M.CPUs)) * stackSize
	if reserve > rt.stackCur || rt.stackCur-reserve <= rt.heapCur {
		return 0
	}
	return rt.stackCur - reserve - rt.heapCur
}

// StartThread prepares a vCPU to run guest code at entry.
func (rt *Runtime) startThread(c *machine.CPU, entry uint64) error {
	return rt.dispatch(c, entry)
}

// Run executes the guest from its entry point to completion and returns
// the main thread's exit code. With SelfHeal enabled, traps attributable
// to a translated block are absorbed: the block is quarantined, demoted
// one tier and retranslated, and execution resumes — up to maxHeals times.
func (rt *Runtime) Run() (uint64, error) {
	c := rt.M.CPUs[0]
	sp, err := rt.newStack()
	if err != nil {
		return 0, err
	}
	*guestReg(c, x86.RSP) = sp
	err = rt.runHealed(func() error { return rt.startThread(c, rt.img.Entry) })
	if err == nil {
		// Round-robin quanta on the strong host; on the weak host a walk
		// of the machine's transition system seeded with WeakSeed.
		err = rt.runHealed(func() error {
			if s := rt.cfg.WeakSeed; s != nil {
				return rt.M.WalkAll(uint64(*s), maxSteps)
			}
			return rt.M.RunAll(rt.cfg.Quantum, maxSteps)
		})
	}
	if err != nil {
		return 0, err
	}
	return c.ExitCode, nil
}

// dispatch points the vCPU at the translation of guestPC, translating on
// a cache miss, or performs a host-linked library call when guestPC is a
// linked PLT entry.
func (rt *Runtime) dispatch(c *machine.CPU, guestPC uint64) error {
	if e, ok := rt.plt[guestPC]; ok {
		return rt.hostCall(c, e)
	}
	if rt.tierup != nil {
		rt.tierup.tick(c, guestPC)
	}
	t, ok := rt.tbs[guestPC]
	if !ok {
		var err error
		t, err = rt.translate(c, guestPC)
		if err != nil {
			return err
		}
	}
	c.PC = t.hostAddr
	return nil
}

// startTier is the tier a fresh translation of guestPC begins at: the
// pinned rung when the ladder has touched the block, TierNoOpt when
// tier-up is on (cheap first, promote if hot), TierFull otherwise.
func (rt *Runtime) startTier(guestPC uint64) selfheal.Tier {
	if t, pinned := rt.heal.Lookup(guestPC); pinned {
		return t
	}
	if rt.tierup != nil {
		return selfheal.TierNoOpt
	}
	return selfheal.TierFull
}

// translate builds and installs one block at the tier the quarantine
// registry prescribes for it, and vets it with verify; a divergence
// retries one tier down. A promoted superblock dropped by a cache flush is
// reinstalled from its retained IR instead, which was verified when it was
// promoted. A guest PC outside every image segment is an unmapped trap:
// memory there is zero-filled, and decoding it would slide through NOPs
// into whatever code lies above.
func (rt *Runtime) translate(c *machine.CPU, guestPC uint64) (*tb, error) {
	if !rt.inImage(guestPC) {
		t := faults.New(faults.TrapUnmapped, "core: guest pc %#x lies in no image segment", guestPC)
		t.Addr = guestPC
		return nil, t.WithCPU(c.ID).WithGuestPC(guestPC)
	}
	if rt.tierup != nil {
		if p := rt.tierup.promoted[guestPC]; p != nil {
			return rt.install(c, guestPC, selfheal.TierFull, p.ir)
		}
	}
	for {
		tier := rt.startTier(guestPC)
		tstart := rt.obs.Begin()
		ir, oracle, err := rt.translateIR(c, guestPC, tier)
		if err != nil {
			return nil, err
		}
		t, err := rt.install(c, guestPC, tier, ir)
		rt.met.translateNS.Observe(uint64(rt.obs.Begin() - tstart))
		if err != nil {
			return nil, err
		}
		if !rt.verify(c, t, oracle) {
			return t, nil
		}
	}
}

// inImage reports whether pc lies in one of the image's segments.
func (rt *Runtime) inImage(pc uint64) bool {
	for _, s := range rt.img.Segments {
		if pc >= s.Addr && pc-s.Addr < uint64(len(s.Data)) {
			return true
		}
	}
	return false
}

// translateIR produces guestPC's IR at tier. At a compiled tier that is
// the persistent cache's entry when one is installed, else the frontend
// over live guest memory and the optimizer at the tier's level, stored in
// the cache after. Under SelfCheck the cache is bypassed and oracle is the
// pre-optimization IR verify needs, which cached entries do not carry. At
// TierInterp it is the literal frontend IR, never cached, decoded with
// SyscallBarrier so a join that parks runs the whole block again from its
// stub; the interpreter tier meets the code-cache allocation fault site
// here, before decoding, and an injected failure is not retried by
// install's flush.
func (rt *Runtime) translateIR(c *machine.CPU, guestPC uint64, tier selfheal.Tier) (ir, oracle *tcg.Block, err error) {
	interp := tier == selfheal.TierInterp
	fe, detail, cache := rt.feCfg, "", rt.cfg.TransCache
	if interp {
		if t := rt.cfg.Inject.Hit(faults.SiteCacheAlloc); t != nil {
			return nil, nil, t.WithCPU(c.ID).WithGuestPC(guestPC)
		}
		fe.SyscallBarrier, detail, cache = true, "interp", nil
	}
	if rt.cfg.SelfCheck {
		cache = nil
	}
	if cache != nil {
		if blk, ok := cache.LoadBlock(guestPC, tier); ok {
			return blk, nil, nil
		}
	}
	tstart := rt.obs.Begin()
	ir, err = frontend.Translate(rt.M.Mem, guestPC, fe)
	rt.obs.Span("frontend.decode", detail, c.ID, guestPC, 0, tstart)
	if err != nil {
		if t, ok := faults.As(err); ok {
			t.WithCPU(c.ID).WithGuestPC(guestPC)
		}
		return nil, nil, err
	}
	if interp {
		return ir, nil, nil
	}
	if rt.cfg.SelfCheck {
		oracle = ir.Clone()
	}
	ostart := rt.obs.Begin()
	tcg.Optimize(ir, rt.optCfg.Degrade(tier.OptLevel()))
	rt.obs.Span("tcg.opt", "", c.ID, guestPC, 0, ostart)
	if cache != nil {
		cache.StoreBlock(guestPC, tier, ir)
	}
	return ir, oracle, nil
}

// interpStub is the whole host code of an interpreter-tier block: handleSvc
// recognizes it and runs the block's IR, kept in irCache, through the TCG
// interpreter — no generated code is trusted at all.
var interpStub = func() []byte {
	w, err := arm.Encode(arm.Inst{Op: arm.SVC, Imm: backend.SvcInterp})
	if err != nil {
		panic(err)
	}
	return binary.LittleEndian.AppendUint32(nil, w)
}()

// install is the one way into the code cache: it places ir's host code
// (the backend's, or interpStub at TierInterp) and records it as guestPC's
// translation at tier. Code-cache exhaustion is not fatal: it flushes the
// cache and places once more (QEMU's tb_flush recovery); only code that
// cannot fit an empty cache reports the typed trap. Compiled code also
// registers its chain sites, meets the miscompile fault site and is
// charged its translation cycles.
func (rt *Runtime) install(c *machine.CPU, guestPC uint64, tier selfheal.Tier, ir *tcg.Block) (*tb, error) {
	estart := rt.obs.Begin()
	base, code, st, err := rt.place(c, guestPC, tier, ir)
	if faults.IsKind(err, faults.TrapCacheExhausted) {
		rt.flushCodeCache()
		base, code, st, err = rt.place(c, guestPC, tier, ir)
	}
	if err != nil {
		return nil, err
	}
	if err := rt.M.Write(base, code); err != nil {
		return nil, err
	}
	t := &tb{guestPC: guestPC, hostAddr: base, codeLen: len(code), tier: tier}
	rt.codeCursor = (base + uint64(len(code)) + 15) &^ 15
	rt.tbs[guestPC] = t
	rt.met.blocks.Inc()
	rt.met.guestBytes.Add(ir.GuestBytes())
	if tier == selfheal.TierInterp {
		rt.irCache[guestPC] = ir
		rt.interpStubs[base] = guestPC
		rt.obs.Span("backend.emit", "interp-stub", c.ID, guestPC, base, estart)
		return t, nil
	}

	rt.met.hostInsts.Add(uint64(st.Insts))
	rt.met.dmbFull.Add(uint64(st.DMBFull))
	rt.met.dmbLoad.Add(uint64(st.DMBLoad))
	rt.met.dmbStore.Add(uint64(st.DMBStore))
	rt.met.casal.Add(uint64(st.Casal))
	rt.met.exclLoop.Add(uint64(st.ExclLoop))
	rt.met.codeBytes.Observe(uint64(len(code)))
	rt.obs.Span("backend.emit", "", c.ID, guestPC, base, estart)
	if rt.cfg.Chain {
		for _, slot := range st.ChainSlots {
			// Host-linked PLT targets must keep trapping: the host call
			// runs in the dispatcher.
			if _, linked := rt.plt[slot.GuestTarget]; linked {
				continue
			}
			rt.chainSites[base+uint64(slot.Off)] = slot.GuestTarget
		}
	}
	// Miscompile injection: corrupt the freshly installed code by
	// overwriting its first instruction with SVC #SvcMiscompile — a
	// recognizable marker the SVC handler turns into a structured
	// TrapMiscompile the moment the block executes. Corrupting the
	// first instruction guarantees the block has no partial effects,
	// so quarantine-and-retranslate recovery is always sound.
	if mt := rt.cfg.Inject.Hit(faults.SiteMiscompile); mt != nil {
		if rt.patch(base, arm.Inst{Op: arm.SVC, Imm: backend.SvcMiscompile}) == nil {
			rt.met.miscompiles.Inc()
			rt.obs.Event("core.selfheal.miscompile_injected", "", c.ID, guestPC, base)
		}
	}
	c.Cycles += translationCostPerByte * ir.GuestBytes()
	return t, nil
}

// place finds where ir's code at tier goes: the next free code-cache slot
// past any pinned extent. Compiled code is position-dependent, so it is
// generated afresh at each candidate base; each placement of it meets the
// code-cache allocation fault site once.
func (rt *Runtime) place(c *machine.CPU, guestPC uint64, tier selfheal.Tier, ir *tcg.Block) (base uint64, code []byte, st backend.Stats, err error) {
	interp := tier == selfheal.TierInterp
	if !interp {
		if t := rt.cfg.Inject.Hit(faults.SiteCacheAlloc); t != nil {
			return 0, nil, st, t.WithCPU(c.ID).WithGuestPC(guestPC)
		}
	}
	base = rt.codeCursor
	for {
		code = interpStub
		if !interp {
			if code, st, err = backend.Generate(ir, base, rt.beCfg); err != nil {
				return 0, nil, st, fmt.Errorf("core: generating %#x: %w", guestPC, err)
			}
		}
		end := base + uint64(len(code))
		if end > uint64(len(rt.M.Mem)) || end < base {
			t := faults.New(faults.TrapCacheExhausted,
				"code cache exhausted at %#x (block %d bytes, memory ends %#x)",
				base, len(code), len(rt.M.Mem))
			return 0, nil, st, t.WithCPU(c.ID).WithGuestPC(guestPC)
		}
		pe, ok := rt.pinnedOverlap(base, end)
		if !ok {
			return base, code, st, nil
		}
		base = (pe.end + 15) &^ 15
	}
}

// verify shadow-checks a freshly installed translation against its oracle
// IR and reports whether it diverged, quarantining a diverging block one
// tier down. Only compiled tiers carry an oracle, and only under
// -selfcheck, so a diverging block always has a rung to fall to.
func (rt *Runtime) verify(c *machine.CPU, t *tb, oracle *tcg.Block) bool {
	div := rt.shadowVerify(c, t, oracle)
	if div == nil {
		return false
	}
	rt.met.divergences.Inc()
	rt.obs.Event("core.selfheal.divergence", div.Summary(), c.ID, t.guestPC, t.hostAddr)
	rt.quarantinePC(c, t.guestPC, div.Summary())
	return true
}

// pinnedOverlap reports the first pinned extent intersecting [start, end).
func (rt *Runtime) pinnedOverlap(start, end uint64) (extent, bool) {
	for _, e := range rt.pinned {
		if start < e.end && e.start < end {
			return e, true
		}
	}
	return extent{}, false
}

// flushCodeCache drops every translation and resets the allocation cursor
// so translation can start over — the graceful-degradation answer to cache
// exhaustion. Correctness around the flush:
//
//   - Chain reset: every patched direct branch is restored to its exit
//     SVC first, so no surviving code can branch into recycled memory.
//   - Pinning: CPUs parked mid-block by the scheduler (or helper-call
//     link addresses in X30) keep executing old code until their next
//     block-end trap; the extents containing any live CPU's PC or LR are
//     pinned and the allocator routes around them until a later flush
//     observes them dead.
//
// Every word a flush or a later install rewrites goes through the machine's
// writer, which forgets the decodes it overwrites.
func (rt *Runtime) flushCodeCache() {
	for addr := range rt.patched {
		rt.patch(addr, tbExit) // a word chain wrote: the write cannot fail
	}
	clear(rt.patched)
	clear(rt.chainSites)

	var pins []extent
	pinIfLive := func(e extent) {
		for _, c := range rt.M.CPUs {
			if c.Halted {
				continue
			}
			if (c.PC >= e.start && c.PC < e.end) ||
				(c.Regs[30] >= e.start && c.Regs[30] < e.end) {
				pins = append(pins, e)
				return
			}
		}
	}
	for _, t := range rt.tbs {
		pinIfLive(extent{t.hostAddr, t.hostAddr + uint64(t.codeLen)})
	}
	for _, e := range rt.pinned {
		pinIfLive(e)
	}
	sort.Slice(pins, func(i, j int) bool { return pins[i].start < pins[j].start })
	rt.pinned = pins

	clear(rt.tbs)
	rt.codeCursor = rt.cfg.CodeCacheBase
	// Interp stubs inside pinned extents may still execute (a CPU parked
	// at the stub), so their reverse mapping must survive; the rest is
	// recycled memory. The IR cache is keyed by guest PC and simply gets
	// overwritten on retranslation.
	for addr := range rt.interpStubs {
		live := false
		for _, e := range pins {
			if addr >= e.start && addr < e.end {
				live = true
				break
			}
		}
		if !live {
			delete(rt.interpStubs, addr)
		}
	}
	rt.met.cacheFlushes.Inc()
	rt.obs.Event("core.cache.flush", fmt.Sprintf("pinned=%d", len(pins)), -1, 0, 0)
}

// invalidateBlock removes guestPC's translation so the next dispatch
// retranslates it. Direct branches patched into the block are restored to
// their dispatch SVCs first, so no surviving code path can reach the stale
// copy; its extent is leaked until the next full flush (piecemeal reuse
// cannot be made safe under chaining). CPUs parked mid-block by the
// scheduler may still finish the stale copy once — any trap it produces is
// attributed and quarantined again, bounded by maxHeals.
func (rt *Runtime) invalidateBlock(guestPC uint64) {
	t, ok := rt.tbs[guestPC]
	if !ok {
		return
	}
	for addr, target := range rt.patched {
		if target != guestPC {
			continue
		}
		rt.patch(addr, tbExit) // a word chain wrote: the write cannot fail
		delete(rt.patched, addr)
		rt.chainSites[addr] = target
	}
	for addr := range rt.chainSites {
		if addr >= t.hostAddr && addr < t.hostAddr+uint64(t.codeLen) {
			delete(rt.chainSites, addr)
		}
	}
	delete(rt.tbs, guestPC)
	delete(rt.irCache, guestPC)
	delete(rt.interpStubs, t.hostAddr)
}

// chain patches the exit SVC at svcAddr into a direct branch to the target
// block, so the dispatcher is skipped on subsequent executions (QEMU's
// goto_tb / block chaining).
func (rt *Runtime) chain(svcAddr uint64, target *tb) error {
	off := (int64(target.hostAddr) - int64(svcAddr)) / arm.InstBytes
	if off < -(1<<23) || off >= 1<<23 {
		// Too far for a direct branch; keep trapping.
		return nil
	}
	if err := rt.patch(svcAddr, arm.Inst{Op: arm.B, Off: int32(off)}); err != nil {
		return err
	}
	delete(rt.chainSites, svcAddr)
	rt.patched[svcAddr] = target.guestPC
	rt.met.chainPatches.Inc()
	rt.obs.Event("core.chain.patch", "", -1, target.guestPC, svcAddr)
	return nil
}

// tbExit is the exit SVC that unlinking restores over a chained branch.
var tbExit = arm.Inst{Op: arm.SVC, Imm: backend.SvcTBExit}

// patch overwrites the instruction word at addr with inst through the
// machine's writer.
func (rt *Runtime) patch(addr uint64, inst arm.Inst) error {
	w, err := arm.Encode(inst)
	if err != nil {
		return err
	}
	var b [arm.InstBytes]byte
	binary.LittleEndian.PutUint32(b[:], w)
	return rt.M.Write(addr, b[:])
}

// guestPCOf maps a host-code address back to the guest PC of the block
// containing it, for trap attribution.
func (rt *Runtime) guestPCOf(hostAddr uint64) (uint64, bool) {
	for _, t := range rt.tbs {
		if hostAddr >= t.hostAddr && hostAddr < t.hostAddr+uint64(t.codeLen) {
			return t.guestPC, true
		}
	}
	return 0, false
}

// DisassembleBlock returns the host-code disassembly of the translation
// of guestPC (translating it on the calling CPU if not yet cached), for
// inspection and tooling. Undecodable words — e.g. injected corruption —
// render as raw ".word" lines instead of failing, so crash bundles can
// disassemble the very block that trapped.
func (rt *Runtime) DisassembleBlock(guestPC uint64) (string, error) {
	t, ok := rt.tbs[guestPC]
	if !ok {
		var err error
		t, err = rt.translate(rt.M.CPUs[0], guestPC)
		if err != nil {
			return "", err
		}
	}
	return rt.disasmTB(t), nil
}

// disasmTB renders t's host code, tolerating undecodable words.
func (rt *Runtime) disasmTB(t *tb) string {
	var sb []byte
	sb = append(sb, fmt.Sprintf("TB guest=%#x host=%#x (%d bytes, tier %s)\n",
		t.guestPC, t.hostAddr, t.codeLen, t.tier)...)
	for off := 0; off < t.codeLen; off += arm.InstBytes {
		addr := t.hostAddr + uint64(off)
		inst, err := arm.DecodeAt(rt.M.Mem, int(addr))
		if err != nil {
			w := binary.LittleEndian.Uint32(rt.M.Mem[addr:])
			sb = append(sb, fmt.Sprintf("  %#08x: .word %#08x (undecodable)\n", addr, w)...)
			continue
		}
		sb = append(sb, fmt.Sprintf("  %#08x: %v\n", addr, inst)...)
	}
	return string(sb)
}

// BlockPCs returns the guest PC of every cached translation, in no
// particular order; callers sort as needed.
func (rt *Runtime) BlockPCs() []uint64 {
	out := make([]uint64, 0, len(rt.tbs))
	for pc := range rt.tbs {
		out = append(out, pc)
	}
	return out
}

// handleSvc serves translated-code traps: block exits and halts.
func (rt *Runtime) handleSvc(m *machine.Machine, c *machine.CPU, imm uint16) error {
	switch imm {
	case backend.SvcTBExit:
		if rt.cfg.Chain {
			// c.PC was advanced past the SVC before the trap.
			svcAddr := c.PC - arm.InstBytes
			if guestTarget, ok := rt.chainSites[svcAddr]; ok {
				if err := rt.dispatch(c, guestTarget); err != nil {
					return err
				}
				// Translating the target may have flushed the cache, which
				// clears chainSites and may recycle the block holding this
				// SVC — re-check before patching it.
				if _, still := rt.chainSites[svcAddr]; !still {
					return nil
				}
				// With tier-up on, a still-promotable target keeps trapping
				// through dispatch so its execution counter keeps counting;
				// the site is chained once the target is promoted or
				// blacklisted.
				if rt.tierup != nil && rt.tierup.deferChain(guestTarget) {
					return nil
				}
				// dispatch pointed the CPU at the target block (a host
				// call would have redirected elsewhere; only patch when
				// the target is a plain block).
				if t, ok := rt.tbs[guestTarget]; ok && c.PC == t.hostAddr {
					return rt.chain(svcAddr, t)
				}
				return nil
			}
		}
		return rt.dispatch(c, c.Regs[18])
	case backend.SvcHalt:
		c.Halted = true
		return nil
	case backend.SvcInterp:
		// Interpreter-tier stub: the block's literal IR runs through the
		// TCG interpreter. c.PC was advanced past the SVC before the trap.
		svcAddr := c.PC - arm.InstBytes
		gpc, ok := rt.interpStubs[svcAddr]
		if !ok {
			return faults.New(faults.TrapDecode,
				"core: stray interp stub at %#x", svcAddr).WithCPU(c.ID).WithHostPC(svcAddr)
		}
		return rt.interpExec(c, gpc)
	case backend.SvcMiscompile:
		// Injected translation corruption executed: surface the structured
		// miscompile trap, attributed to the containing block so the
		// self-healing layer can quarantine it.
		svcAddr := c.PC - arm.InstBytes
		t := faults.New(faults.TrapMiscompile, "core: corrupted translation executed")
		t.Injected = true
		t.WithCPU(c.ID)
		if gpc, ok := rt.guestPCOf(svcAddr); ok {
			return t.WithGuestPC(gpc)
		}
		return t.WithHostPC(svcAddr)
	default:
		t := faults.New(faults.TrapDecode, "core: unexpected svc #%d", imm).WithCPU(c.ID)
		// c.PC was advanced past the SVC before the trap.
		if gpc, ok := rt.guestPCOf(c.PC - arm.InstBytes); ok {
			return t.WithGuestPC(gpc)
		}
		return t.WithHostPC(c.PC - arm.InstBytes)
	}
}
