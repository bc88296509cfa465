// Tier-up: the promotion half of the JIT. PR 5's self-healing ladder only
// ever demotes; with tier-up enabled the ladder runs both ways. New blocks
// start at the cheap TierNoOpt rung, per-block execution counters find the
// hot ones, and the dispatch that crosses the threshold rebuilds the block
// at TierFull — as a hot-trace superblock stitched across taken branches
// (tcg.Concat) — right there on the execution goroutine, the way TCG
// translates on the vCPU thread that needs the block. The translation is
// swapped in through the same invalidation + chain-reset machinery
// quarantine uses, and a later trap in promoted code demotes it back down
// the ladder (with a promotion blacklist after repeated failures, so the
// two directions cannot livelock).
//
// Promotion latency is therefore measured in guest dispatches, never in
// host time: two runs of the same guest promote the same blocks at the
// same simulated cycle.

package core

import (
	"fmt"
	"slices"

	"repro/internal/frontend"
	"repro/internal/machine"
	"repro/internal/selfheal"
	"repro/internal/tcg"
)

// TierUpConfig parameterizes the tier-up JIT.
type TierUpConfig = selfheal.TierUp

// tierUpDefaults backfills zero fields.
func tierUpDefaults(tc TierUpConfig) TierUpConfig {
	if tc.PromoteThreshold <= 0 {
		tc.PromoteThreshold = 8
	}
	if tc.SuperblockMax <= 0 {
		tc.SuperblockMax = 4
	}
	return tc
}

// promotion is a built hot trace, ready to install at trace[0].
type promotion struct {
	trace []uint64
	// ir is the optimized superblock; oracle the unoptimized stitched IR
	// (selfcheck's interpreter input at install time, nil otherwise).
	ir     *tcg.Block
	oracle *tcg.Block
	// crossFences is how many fences merging across block seams saved
	// over optimizing the components separately.
	crossFences uint64
}

// tierUp owns the promotion state of one runtime.
type tierUp struct {
	rt  *Runtime
	cfg TierUpConfig

	counts   map[uint64]uint64
	promoted map[uint64]*promotion
}

func newTierUp(rt *Runtime, cfg TierUpConfig) *tierUp {
	return &tierUp{
		rt:       rt,
		cfg:      cfg,
		counts:   make(map[uint64]uint64),
		promoted: make(map[uint64]*promotion),
	}
}

// tick runs on every dispatch: count this block and promote it when it
// crosses the hot threshold. Re-fires on every further threshold multiple
// so a block whose promotion failed or was demoted retries while it stays
// hot.
func (tu *tierUp) tick(c *machine.CPU, guestPC uint64) {
	n := tu.counts[guestPC] + 1
	tu.counts[guestPC] = n
	if n%uint64(tu.cfg.PromoteThreshold) == 0 {
		tu.promote(c, guestPC)
	}
}

// promotable reports whether pc may receive a promotion: not already
// promoted and not blacklisted by the ladder.
func (tu *tierUp) promotable(pc uint64) bool {
	return tu.promoted[pc] == nil && tu.rt.heal.PromotionAllowed(pc)
}

// promote builds pc's hot trace and installs it. It runs at a dispatch
// boundary — never mid-block — so the swap can reuse quarantine's
// invalidation machinery unchanged.
func (tu *tierUp) promote(c *machine.CPU, pc uint64) {
	if !tu.promotable(pc) {
		return
	}
	rt := tu.rt
	start := rt.obs.Begin()
	p, err := tu.build(pc)
	if err != nil {
		rt.obs.Event("core.tierup.error", err.Error(), c.ID, pc, 0)
		return
	}
	if p == nil {
		return // pc's loop is already promoted, at its header
	}
	if t := tu.install(c, p); t != nil {
		rt.obs.Span("core.tierup.promote",
			fmt.Sprintf("%d blocks, %d cross-block merges", len(p.trace), p.crossFences),
			c.ID, p.trace[0], t.hostAddr, start)
	}
}

// install swaps a built promotion into the code cache: invalidate the
// cheap copy of its head (restoring any chained branches into it), install
// the superblock at TierFull, and pin the new tier in the quarantine
// registry. A superblock that fails verify is demoted instead of
// promoted. Returns the installed block, nil when nothing was promoted.
func (tu *tierUp) install(c *machine.CPU, p *promotion) *tb {
	rt := tu.rt
	pc := p.trace[0]
	from := rt.heal.TierOf(pc)
	if t, ok := rt.tbs[pc]; ok {
		from = t.tier // the installed copy's actual rung (implicit TierNoOpt)
	}
	rt.invalidateBlock(pc)
	t, err := rt.install(c, pc, selfheal.TierFull, p.ir)
	if err != nil {
		rt.obs.Event("core.tierup.emit_error", err.Error(), c.ID, pc, 0)
		return nil
	}
	if rt.verify(c, t, p.oracle) {
		return nil
	}
	rt.heal.Promote(pc, from, selfheal.TierFull,
		fmt.Sprintf("hot block promoted (%d-block trace)", len(p.trace)))
	tu.promoted[pc] = p
	rt.met.promotions.Inc()
	if len(p.trace) > 1 {
		rt.met.superBlocks.Inc()
		rt.met.superGuestBlocks.Add(uint64(len(p.trace)))
	}
	rt.met.crossFences.Add(p.crossFences)
	return t
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
// counter no longer matters and chaining proceeds; likewise after
// chainDeferPatience×threshold dispatches without a promotion landing —
// deferral must be a bounded cost, never an open-ended perf regression
// versus tier-up off.
func (tu *tierUp) deferChain(guestPC uint64) bool {
	return tu.promotable(guestPC) &&
		tu.counts[guestPC] < uint64(tu.cfg.PromoteThreshold*chainDeferPatience)
}

// build translates the hot block at pc over live guest text, greedily
// follows its hottest recorded exit into successors (stopping at revisits
// — loop backs — host-linked PLT targets, cold or out-of-image successors,
// and SuperblockMax), stitches the trace with tcg.Concat, and optimizes
// the whole superblock at full tier. Fault injection is disarmed: faults
// stay attributed to the per-block pipeline.
//
// Loop-header rule: whichever block of a hot loop crosses the threshold
// first is an accident of how the loop was entered, and decides which
// seam ends up on the back-edge where no fence can merge across it. So a
// trace that closes on itself (its last block's hottest exit is its own
// head) is rotated to start at its lowest guest PC — the loop header as
// laid out — and installed there: one promotion per loop, whichever of its
// blocks went hot first. The loop's other blocks cross the threshold right
// behind the first and find the header already promoted; build returns nil
// for them before paying for the stitch and the optimizer.
func (tu *tierUp) build(pc uint64) (*promotion, error) {
	rt := tu.rt
	text := rt.M.Mem[:rt.img.MaxAddr()]
	fe := rt.feCfg
	fe.Inject = nil

	head, err := frontend.Translate(text, pc, fe)
	if err != nil {
		return nil, err
	}
	comps := []*tcg.Block{head}
	trace := []uint64{pc}
	for len(comps) < tu.cfg.SuperblockMax {
		next, ok := tu.hottestExit(comps[len(comps)-1], trace)
		if !ok {
			break
		}
		blk, err := frontend.Translate(text, next, fe)
		if err != nil {
			break // undecodable successor: the trace ends here
		}
		comps = append(comps, blk)
		trace = append(trace, next)
	}
	if back, ok := tu.hottestExit(comps[len(comps)-1], nil); ok && back == pc {
		lo := 0
		for i, t := range trace {
			if t < trace[lo] {
				lo = i
			}
		}
		comps = append(comps[lo:], comps[:lo]...)
		trace = append(trace[lo:], trace[:lo]...)
		if !tu.promotable(trace[0]) {
			return nil, nil
		}
	}

	super, err := tcg.Concat(comps)
	if err != nil {
		return nil, err
	}
	var oracle *tcg.Block
	if rt.cfg.SelfCheck {
		oracle = super.Clone()
	}
	tcg.Optimize(super, rt.optCfg.Degrade(selfheal.TierFull.OptLevel()))
	var cross uint64
	if len(comps) > 1 {
		cross = tcg.CrossBlockFences(comps, super, rt.optCfg)
	}
	return &promotion{trace: trace, ir: super, oracle: oracle, crossFences: cross}, nil
}

// hottestExit chooses blk's most-dispatched constant exit, skipping
// targets outside guest text, host-linked PLT entries, blocks never seen
// at dispatch, and anything in skip.
func (tu *tierUp) hottestExit(blk *tcg.Block, skip []uint64) (uint64, bool) {
	var best, bestCount uint64
	for _, target := range blk.ExitTargets() {
		if target == 0 || target >= tu.rt.img.MaxAddr() || tu.rt.plt[target] != nil ||
			slices.Contains(skip, target) {
			continue
		}
		// Strictly hotter wins, so ties keep exit order and a cold
		// (never dispatched) target is never picked.
		if n := tu.counts[target]; n > bestCount {
			best, bestCount = target, n
		}
	}
	return best, bestCount > 0
}
