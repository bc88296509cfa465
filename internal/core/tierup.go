// Tier-up: the promotion half of the JIT. PR 5's self-healing ladder only
// ever demotes; with tier-up enabled the ladder runs both ways. New blocks
// start at the cheap TierNoOpt rung, per-block execution counters find the
// hot ones, and background translation workers rebuild them at TierFull —
// as hot-trace superblocks stitched across taken branches (tcg.Concat) —
// while execution continues on the cheap copy. The finished translation is
// swapped in through the same invalidation + chain-reset machinery
// quarantine uses, and a later trap in promoted code demotes it back down
// the ladder (with a promotion blacklist after repeated failures, so the
// two directions cannot livelock).
//
// Concurrency contract: the machine's execution loop is single-goroutine,
// and every tierUp map is touched only from it (tick/drain/install run
// inside dispatch). Workers receive a private snapshot of guest text and
// counters, share nothing mutable with the runtime, and hand results back
// over a channel — the only synchronization between the two sides.

package core

import (
	"fmt"
	"sync"

	"repro/internal/faults"
	"repro/internal/frontend"
	"repro/internal/machine"
	"repro/internal/selfheal"
	"repro/internal/tcg"
)

// TierUpConfig parameterizes the tier-up JIT.
type TierUpConfig struct {
	// Enabled turns tier-up on: unpinned blocks start at TierNoOpt and
	// hot ones are promoted in the background.
	Enabled bool
	// PromoteThreshold is how many dispatches make a block hot
	// (default 8).
	PromoteThreshold int
	// SuperblockMax bounds how many guest blocks one promoted superblock
	// may stitch (default 4; 1 disables superblocks but keeps promotion).
	SuperblockMax int
	// Workers is the background translation worker count (default 2).
	Workers int
}

// withDefaults backfills zero fields.
func (tc TierUpConfig) withDefaults() TierUpConfig {
	if tc.PromoteThreshold <= 0 {
		tc.PromoteThreshold = 8
	}
	if tc.SuperblockMax <= 0 {
		tc.SuperblockMax = 4
	}
	if tc.Workers <= 0 {
		tc.Workers = 2
	}
	return tc
}

// promoteReq is one background promotion job. Workers never read live
// machine state: counts is a copy taken on the execution loop at enqueue
// time, and text is the run's shared immutable snapshot of guest text
// (read-only on every side).
type promoteReq struct {
	pc     uint64
	text   []byte
	counts map[uint64]uint64
	plt    map[uint64]bool
	// failures is the block's quarantine count at enqueue time; a
	// mismatch at install time means the ladder moved while the worker
	// ran and the result is stale.
	failures int
}

// promotion is a finished background translation, ready to install.
type promotion struct {
	pc    uint64
	trace []uint64
	// ir is the optimized superblock; oracle the unoptimized stitched IR
	// (selfcheck's interpreter input at install time).
	ir     *tcg.Block
	oracle *tcg.Block
	// crossFences is how many fences merging across block seams saved
	// over optimizing the components separately.
	crossFences uint64
	// failures echoes promoteReq.failures for the staleness check.
	failures int
	err      error
}

// tierUp owns the promotion pipeline of one runtime.
type tierUp struct {
	rt  *Runtime
	cfg TierUpConfig

	counts   map[uint64]uint64
	pending  map[uint64]bool
	promoted map[uint64]*promotion

	// textSnap is one copy of guest text shared (read-only) by every
	// promotion request of the current run; guest text is immutable while
	// a run executes, so one snapshot serves all workers.
	textSnap []byte

	reqs    chan promoteReq
	results chan *promotion
	wg      sync.WaitGroup
	started bool
}

func newTierUp(rt *Runtime, cfg TierUpConfig) *tierUp {
	return &tierUp{
		rt:       rt,
		cfg:      cfg,
		counts:   make(map[uint64]uint64),
		pending:  make(map[uint64]bool),
		promoted: make(map[uint64]*promotion),
	}
}

// start spins up the worker pool on first use. Workers get a private
// pipeline config: injection is disarmed (faults stay attributed to the
// foreground pipeline) and spans are silenced (the tracer is not a
// concurrency boundary worth paying for here); obs counters are atomic
// and shared.
func (tu *tierUp) start() {
	if tu.started {
		return
	}
	tu.started = true
	tu.reqs = make(chan promoteReq, 64)
	tu.results = make(chan *promotion, 64)
	fe := tu.rt.feCfg
	fe.Inject = nil
	opt := tu.rt.optCfg
	for i := 0; i < tu.cfg.Workers; i++ {
		tu.wg.Add(1)
		go func() {
			defer tu.wg.Done()
			for req := range tu.reqs {
				tu.results <- buildPromotion(req, fe, opt, tu.cfg.SuperblockMax)
			}
		}()
	}
}

// stop shuts the pool down at the end of a run and installs everything
// the workers finished. Results are collected concurrently with the
// worker wait: with more outstanding jobs than the results buffer holds,
// a worker would otherwise block sending into the full channel and the
// wait would never return. Installing the stragglers here — rather than
// discarding them — makes promotion deterministic at run boundaries:
// every request enqueued during the run has landed (or been rejected as
// stale) by the time Run returns, so Stats().Promotions does not depend
// on how worker scheduling raced run completion. The runtime calls stop
// from its execution loop once the machine has halted; a later Run
// restarts the pool on demand.
func (tu *tierUp) stop(c *machine.CPU) {
	if !tu.started {
		return
	}
	close(tu.reqs)
	var finished []*promotion
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for p := range tu.results {
			finished = append(finished, p)
		}
	}()
	tu.wg.Wait()
	close(tu.results)
	<-collected
	tu.started = false
	tu.textSnap = nil
	for _, p := range finished {
		tu.install(c, p)
	}
}

// tick runs on every dispatch: install any finished promotions, then count
// this block and enqueue it when it crosses the hot threshold. Re-fires on
// every further threshold multiple so a drop (full queue, stale result)
// retries while the block stays hot.
func (tu *tierUp) tick(c *machine.CPU, guestPC uint64) {
	tu.drain(c)
	n := tu.counts[guestPC] + 1
	tu.counts[guestPC] = n
	if n < uint64(tu.cfg.PromoteThreshold) || n%uint64(tu.cfg.PromoteThreshold) != 0 {
		return
	}
	tu.request(guestPC)
}

// request snapshots the counters and hands pc to the workers. Guest text
// is snapshotted once per run and shared read-only across requests; only
// the counter map is copied per hot block.
func (tu *tierUp) request(pc uint64) {
	rt := tu.rt
	if tu.pending[pc] || tu.promoted[pc] != nil || !rt.heal.PromotionAllowed(pc) {
		return
	}
	if tu.textSnap == nil {
		tu.textSnap = append([]byte(nil), rt.M.Mem[:rt.img.MaxAddr()]...)
	}
	req := promoteReq{
		pc:       pc,
		text:     tu.textSnap,
		counts:   make(map[uint64]uint64, len(tu.counts)),
		plt:      make(map[uint64]bool, len(rt.plt)),
		failures: rt.heal.Failures(pc),
	}
	for k, v := range tu.counts {
		req.counts[k] = v
	}
	for a := range rt.plt {
		req.plt[a] = true
	}
	tu.start()
	select {
	case tu.reqs <- req:
		tu.pending[pc] = true
		rt.obs.Event("core.tierup.enqueue", "", -1, pc, 0)
	default:
		// Queue full; the block stays hot and re-fires next threshold.
	}
}

// drain installs every finished promotion without blocking. Installation
// happens here — at a dispatch boundary on the execution loop — never
// mid-block, so the swap can reuse quarantine's invalidation machinery
// unchanged.
func (tu *tierUp) drain(c *machine.CPU) {
	if !tu.started {
		return
	}
	for {
		select {
		case p := <-tu.results:
			tu.install(c, p)
		default:
			return
		}
	}
}

// install swaps a finished promotion into the code cache: invalidate the
// cheap copy (restoring any chained branches into it), emit the superblock
// at TierFull, and pin the new tier in the quarantine registry. Stale
// results — the block was demoted while the worker ran — are dropped; with
// selfcheck on, the promoted code is shadow-verified against the stitched
// oracle before it is trusted, and a divergence demotes instead of
// installing.
func (tu *tierUp) install(c *machine.CPU, p *promotion) {
	rt := tu.rt
	delete(tu.pending, p.pc)
	if p.err != nil {
		rt.obs.Event("core.tierup.error", p.err.Error(), c.ID, p.pc, 0)
		return
	}
	if !rt.heal.PromotionAllowed(p.pc) || rt.heal.Failures(p.pc) != p.failures {
		rt.obs.Event("core.tierup.stale", "", c.ID, p.pc, 0)
		return
	}
	from := rt.heal.TierOf(p.pc)
	if t, ok := rt.tbs[p.pc]; ok {
		from = t.tier // the installed copy's actual rung (implicit TierNoOpt)
	}
	rt.invalidateBlock(p.pc)
	t, err := rt.emitWithFlushRetry(c, p.ir, p.pc)
	if err != nil {
		rt.obs.Event("core.tierup.emit_error", err.Error(), c.ID, p.pc, 0)
		return
	}
	t.tier = selfheal.TierFull
	t.super = len(p.trace)
	if rt.cfg.SelfCheck {
		if div := rt.shadowVerify(c, t, p.oracle); div != nil {
			rt.met.divergences.Inc()
			rt.obs.Event("core.selfheal.divergence", div.Summary(), c.ID, p.pc, t.hostAddr)
			rt.quarantinePC(c, p.pc, div.Summary())
			return
		}
	}
	rt.heal.Promote(p.pc, from, selfheal.TierFull,
		fmt.Sprintf("hot block promoted (%d-block trace)", len(p.trace)))
	tu.promoted[p.pc] = p
	rt.met.promotions.Inc()
	if len(p.trace) > 1 {
		rt.met.superBlocks.Inc()
		rt.met.superGuestBlocks.Add(uint64(len(p.trace)))
	}
	rt.met.crossFences.Add(p.crossFences)
	rt.obs.Event("core.tierup.promote",
		fmt.Sprintf("%d blocks, %d cross-block merges", len(p.trace), p.crossFences),
		c.ID, p.pc, t.hostAddr)
}

// reemit reinstalls a previously promoted superblock after a cache flush
// dropped it — translate consults it before the per-block pipeline so a
// flush does not silently forget promotions. The IR was verified at
// install time; re-verification is skipped.
func (tu *tierUp) reemit(c *machine.CPU, guestPC uint64) (*tb, bool, error) {
	p := tu.promoted[guestPC]
	if p == nil {
		return nil, false, nil
	}
	t, err := tu.rt.emitWithFlushRetry(c, p.ir, guestPC)
	if err != nil {
		return nil, true, err
	}
	t.tier = selfheal.TierFull
	t.super = len(p.trace)
	return t, true, nil
}

// demoted clears promotion state when the quarantine path pulls a block
// back down; the failure count it just gained feeds the blacklist.
func (tu *tierUp) demoted(guestPC uint64) {
	delete(tu.promoted, guestPC)
}

// chainDeferPatience bounds chain deferral, in multiples of
// PromoteThreshold: a block dispatched this many times without landing a
// promotion chains anyway, so a never-promoted block costs at most a
// fixed number of dispatcher round trips rather than trapping forever.
const chainDeferPatience = 4

// deferChain reports whether chaining into guestPC should wait: a chained
// branch bypasses dispatch, which would starve the execution counter that
// decides promotion. Once the block is promoted (or blacklisted) the
// counter no longer matters and chaining proceeds; likewise once a
// promotion request is already in flight (the counter has done its job),
// or after chainDeferPatience×threshold dispatches without a promotion
// landing — deferral must be a bounded cost, never an open-ended perf
// regression versus tier-up off.
func (tu *tierUp) deferChain(guestPC uint64) bool {
	if tu.promoted[guestPC] != nil || !tu.rt.heal.PromotionAllowed(guestPC) {
		return false
	}
	if tu.pending[guestPC] {
		return false
	}
	return tu.counts[guestPC] < uint64(tu.cfg.PromoteThreshold*chainDeferPatience)
}

// emitWithFlushRetry is emitBlock plus the standard exhaustion recovery
// (flush once, retry once).
func (rt *Runtime) emitWithFlushRetry(c *machine.CPU, block *tcg.Block, guestPC uint64) (*tb, error) {
	t, err := rt.emitBlock(c, block, guestPC)
	if err != nil && faults.IsKind(err, faults.TrapCacheExhausted) {
		rt.flushCodeCache()
		t, err = rt.emitBlock(c, block, guestPC)
	}
	return t, err
}

// buildPromotion runs entirely on a worker goroutine over the request's
// private snapshot: translate the hot block, greedily follow its hottest
// recorded chain edge into successors (stopping at revisits — loop backs —
// host-linked PLT targets, cold or out-of-image successors, and
// SuperblockMax), stitch the trace with tcg.Concat, and optimize the whole
// superblock at full tier.
func buildPromotion(req promoteReq, fe frontend.Config, opt tcg.OptConfig, maxBlocks int) *promotion {
	head, err := frontend.Translate(req.text, req.pc, fe)
	if err != nil {
		return &promotion{pc: req.pc, failures: req.failures, err: err}
	}
	comps := []*tcg.Block{head}
	trace := []uint64{req.pc}
	for len(comps) < maxBlocks {
		next, ok := pickSuccessor(comps[len(comps)-1], trace, req)
		if !ok {
			break
		}
		blk, err := frontend.Translate(req.text, next, fe)
		if err != nil {
			break // undecodable successor: the trace ends here
		}
		comps = append(comps, blk)
		trace = append(trace, next)
	}
	super, err := tcg.Concat(comps)
	if err != nil {
		return &promotion{pc: req.pc, failures: req.failures, err: err}
	}
	oracle := super.Clone()
	tcg.Optimize(super, opt.Degrade(selfheal.TierFull.OptLevel()))
	var cross uint64
	if len(comps) > 1 {
		cross = tcg.CrossBlockFences(comps, super, opt)
	}
	return &promotion{
		pc: req.pc, trace: trace, ir: super, oracle: oracle,
		crossFences: cross, failures: req.failures,
	}
}

// pickSuccessor chooses the hottest eligible chain edge out of blk.
func pickSuccessor(blk *tcg.Block, trace []uint64, req promoteReq) (uint64, bool) {
	onTrace := func(pc uint64) bool {
		for _, t := range trace {
			if t == pc {
				return true
			}
		}
		return false
	}
	var best uint64
	var bestCount uint64
	found := false
	for _, target := range blk.ExitTargets() {
		if target == 0 || target >= uint64(len(req.text)) {
			continue
		}
		if onTrace(target) || req.plt[target] {
			continue
		}
		n := req.counts[target]
		if n == 0 {
			continue // cold: never observed at dispatch
		}
		if !found || n > bestCount {
			best, bestCount, found = target, n, true
		}
	}
	return best, found
}
