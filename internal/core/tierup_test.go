package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/frontend"
	"repro/internal/hostlib"
	"repro/internal/portasm"
	"repro/internal/selfheal"
	"repro/internal/workloads"
)

// tierUpOpts is the aggressive promotion configuration the tests use: a
// low threshold so short kernels still go hot.
func tierUpOpts() Option {
	return WithTierUp(TierUpConfig{Enabled: true, PromoteThreshold: 4, SuperblockMax: 4})
}

func buildKernelImage(t *testing.T, name string, threads int) *Runtime {
	t.Helper()
	return buildKernelRuntime(t, name, threads)
}

func buildKernelRuntime(t *testing.T, name string, threads int, opts ...Option) *Runtime {
	t.Helper()
	k, err := workloads.KernelByName(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Build(threads, 1)
	if err != nil {
		t.Fatal(err)
	}
	img, err := b.BuildGuest("main")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(img, append([]Option{WithVariant(VariantRisotto)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestTierUpPromotesFenceChain is the tentpole's happy path: the
// fencechain kernel goes hot, blocks are promoted into superblocks, and
// at least one fence merge happens across a block seam — with the same
// guest result as the untiered run.
func TestTierUpPromotesFenceChain(t *testing.T) {
	base := buildKernelRuntime(t, "fencechain", 1)
	want, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	rt := buildKernelRuntime(t, "fencechain", 1, tierUpOpts())
	got, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("tier-up changed the checksum: %d, want %d", got, want)
	}
	st := rt.Stats()
	if st.Promotions == 0 {
		t.Fatal("no promotions on the canonical hot kernel")
	}
	if st.Superblocks == 0 || st.SuperblockGuestBlocks < 2 {
		t.Fatalf("superblocks=%d guest blocks=%d; want a multi-block trace",
			st.Superblocks, st.SuperblockGuestBlocks)
	}
	if st.CrossBlockFenceMerges == 0 {
		t.Fatal("no cross-block fence merges on the kernel built to force them")
	}
	if rt.Heal().Quarantined() != 0 {
		t.Fatal("promotion must not count as a quarantine")
	}
}

// runTierDiff runs one kernel with and without tier-up and compares the
// final guest-visible state. Tier level must never change guest semantics:
// the exit checksum always agrees, and for single-worker runs the entire
// guest memory below the code cache is byte-identical.
func runTierDiff(t *testing.T, name string, threads int, compareMem bool) {
	t.Helper()
	base := buildKernelRuntime(t, name, threads)
	baseCode, err := base.Run()
	if err != nil {
		t.Fatalf("%s baseline: %v", name, err)
	}
	tier := buildKernelRuntime(t, name, threads, tierUpOpts())
	tierCode, err := tier.Run()
	if err != nil {
		t.Fatalf("%s tier-up: %v", name, err)
	}
	if baseCode != tierCode {
		t.Fatalf("%s: exit %d with tier-up, %d without", name, tierCode, baseCode)
	}
	if compareMem {
		limit := base.cfg.CodeCacheBase
		if tier.cfg.CodeCacheBase != limit {
			t.Fatalf("%s: code cache bases differ", name)
		}
		if !bytes.Equal(base.M.Mem[:limit], tier.M.Mem[:limit]) {
			for i := uint64(0); i < limit; i++ {
				if base.M.Mem[i] != tier.M.Mem[i] {
					t.Fatalf("%s: guest memory diverges at %#x (%#x vs %#x)",
						name, i, base.M.Mem[i], tier.M.Mem[i])
				}
			}
		}
	}
}

// TestTierUpDifferentialKernels sweeps the whole workload suite at one
// worker thread: byte-identical guest memory and exit codes.
func TestTierUpDifferentialKernels(t *testing.T) {
	for _, k := range workloads.Registry() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			runTierDiff(t, k.Name, 1, true)
		})
	}
}

// TestTierUpDifferentialThreads compares exit codes at two worker threads,
// where scheduling interleavings may differ between tiers but the joined
// result may not.
func TestTierUpDifferentialThreads(t *testing.T) {
	for _, name := range []string{"histogram", "wordcount", "canneal", "fencechain"} {
		runTierDiff(t, name, 2, false)
	}
}

// seededProgram generates a deterministic random single-thread guest: a
// counted loop of loads, stores, arithmetic and block-splitting jumps over
// a scratch array, exiting with an accumulator checksum. The campaign
// slice of the differential: shapes the fixed kernel suite doesn't cover.
func seededProgram(seed int64) (*portasm.Builder, error) {
	const (
		r1 = portasm.Reg(1) // loop index
		r3 = portasm.Reg(3) // array base
		r5 = portasm.Reg(5) // accumulator
		r6 = portasm.Reg(6) // scratch
	)
	rng := rand.New(rand.NewSource(seed))
	b := portasm.NewBuilder()
	words := make([]byte, 64*8)
	rng.Read(words)
	arr := b.Data(words)

	b.Label("main").
		MovI(r3, int64(arr)).
		MovI(r1, 0).
		MovI(r5, 0).
		Label("loop")
	splits := 0
	for i, n := 0, 4+rng.Intn(6); i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			b.LdIdx(r6, r3, r1, 8, 8).AddR(r5, r6)
		case 1:
			b.Mov(r6, r5).AluI(portasm.And, r6, 0xFF).StIdx(r3, r1, 8, r6, 8)
		case 2:
			b.AddI(r5, int64(1+rng.Intn(99)))
		case 3:
			lbl := fmt.Sprintf("split_%d_%d", seed, splits)
			splits++
			b.Jmp(lbl).Label(lbl)
		}
	}
	b.AddI(r1, 1).
		CmpI(r1, 48).
		J(portasm.NE, "loop").
		AluI(portasm.And, r5, 0xFFFFFF).
		Exit(r5)
	return b, nil
}

// TestTierUpDifferentialSeeded runs the generated corpus slice through the
// same on/off comparison.
func TestTierUpDifferentialSeeded(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			run := func(opts ...Option) (uint64, *Runtime) {
				b, err := seededProgram(seed)
				if err != nil {
					t.Fatal(err)
				}
				img, err := b.BuildGuest("main")
				if err != nil {
					t.Fatal(err)
				}
				rt, err := New(img, append([]Option{WithVariant(VariantRisotto)}, opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				code, err := rt.Run()
				if err != nil {
					t.Fatal(err)
				}
				return code, rt
			}
			baseCode, base := run()
			tierCode, tier := run(tierUpOpts())
			if baseCode != tierCode {
				t.Fatalf("seed %d: exit %d with tier-up, %d without", seed, tierCode, baseCode)
			}
			limit := base.cfg.CodeCacheBase
			if !bytes.Equal(base.M.Mem[:limit], tier.M.Mem[:limit]) {
				t.Fatalf("seed %d: guest memory diverges", seed)
			}
		})
	}
}

// TestTierUpPromotedBlockDemotes drives the down direction after a
// promotion: quarantining a promoted superblock must demote it from
// TierFull, clear its retained promotion (so a flush cannot resurrect the
// rejected code), and feed the blacklist.
func TestTierUpPromotedBlockDemotes(t *testing.T) {
	rt := buildKernelRuntime(t, "fencechain", 1, tierUpOpts())
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rt.tierup.promoted) == 0 {
		t.Fatal("run finished without promotions")
	}
	var pc uint64
	for p := range rt.tierup.promoted {
		pc = p
		break
	}
	c := rt.M.CPUs[0]
	if !rt.quarantinePC(c, pc, "synthetic trap in promoted code") {
		t.Fatal("quarantine of a promoted block must demote, not exhaust")
	}
	if got := rt.Heal().TierOf(pc); got != selfheal.TierNoFenceMerge {
		t.Fatalf("demoted tier %v, want TierNoFenceMerge (one rung below TierFull)", got)
	}
	if rt.tierup.promoted[pc] != nil {
		t.Fatal("demotion left the retained promotion in place")
	}
	if rt.Heal().Failures(pc) != 1 {
		t.Fatalf("failures = %d, want 1", rt.Heal().Failures(pc))
	}
	// One more failure reaches the blacklist: promotion and chain deferral
	// both stop.
	rt.quarantinePC(c, pc, "second synthetic trap")
	if rt.Heal().PromotionAllowed(pc) {
		t.Fatal("block must be blacklisted after repeated demotions")
	}
	if rt.tierup.deferChain(pc) {
		t.Fatal("blacklisted block must chain normally (counter no longer matters)")
	}
	before := rt.Stats().Promotions
	rt.tierup.promote(c, pc)
	if rt.Stats().Promotions != before || rt.tierup.promoted[pc] != nil {
		t.Fatal("blacklisted block must not be promoted")
	}
}

// TestTierUpDeferChain pins the chain-deferral predicate: defer while the
// target's counter still matters, chain once promoted.
func TestTierUpDeferChain(t *testing.T) {
	rt := buildKernelRuntime(t, "fencechain", 1, tierUpOpts())
	if !rt.tierup.deferChain(0x12345) {
		t.Fatal("fresh promotable block must defer chaining")
	}
	rt.tierup.promoted[0x12345] = &promotion{trace: []uint64{0x12345}}
	if rt.tierup.deferChain(0x12345) {
		t.Fatal("promoted block must chain")
	}
}

// TestTierUpRaceStress is the functional stress of promotion interleaved
// with execution and installation: several guest threads, an aggressive
// threshold, selfcheck verifying every promotion, and repeated runs.
func TestTierUpRaceStress(t *testing.T) {
	for i := 0; i < 3; i++ {
		for _, name := range []string{"fencechain", "histogram"} {
			rt := buildKernelRuntime(t, name, 4,
				WithTierUp(TierUpConfig{Enabled: true, PromoteThreshold: 2, SuperblockMax: 4}),
				WithSelfCheck(true))
			if _, err := rt.Run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestTierUpSelfCheckVerifiesPromotions: with -selfcheck on, promoted
// superblocks are shadow-verified against the stitched oracle before they
// are trusted; a clean kernel must promote without divergences.
func TestTierUpSelfCheckVerifiesPromotions(t *testing.T) {
	rt := buildKernelRuntime(t, "fencechain", 1, tierUpOpts(), WithSelfCheck(true))
	code, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	base := buildKernelRuntime(t, "fencechain", 1)
	want, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	if code != want {
		t.Fatalf("checksum %d, want %d", code, want)
	}
	st := rt.Stats()
	if st.Promotions == 0 {
		t.Fatal("selfcheck mode must still promote")
	}
	if st.Divergences != 0 {
		t.Fatalf("clean kernel reported %d divergences", st.Divergences)
	}
}

// TestTierUpDeterministic: promotion happens at a guest dispatch count,
// not at a host time, so two fresh runtimes over the same guest agree on
// every simulated figure — cycles, per-CPU instruction counts, the stats
// façade and the whole counter snapshot.
func TestTierUpDeterministic(t *testing.T) {
	type result struct {
		cycles   uint64
		insts    []uint64
		stats    Stats
		counters map[string]uint64
	}
	for _, name := range []string{"fencechain", "kmeans"} {
		for _, threads := range []int{2, 4} {
			for _, threshold := range []int{2, 4} {
				run := func() result {
					rt := buildKernelRuntime(t, name, threads,
						WithTierUp(TierUpConfig{Enabled: true, PromoteThreshold: threshold}))
					if _, err := rt.Run(); err != nil {
						t.Fatal(err)
					}
					r := result{cycles: rt.M.MaxCycles(), stats: rt.Stats(), counters: rt.obs.Snapshot().Counters}
					for _, c := range rt.M.CPUs {
						r.insts = append(r.insts, c.Insts)
					}
					return r
				}
				a, b := run(), run()
				if a.stats.Promotions == 0 {
					t.Fatalf("%s/%d threads/threshold %d: no promotions", name, threads, threshold)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s/%d threads/threshold %d: two runs differ:\n%+v\n%+v",
						name, threads, threshold, a, b)
				}
			}
		}
	}
}

// TestTierUpLoopStartsAtHeader pins the loop-header rule: fencechain's
// loop is first found hot at fcstore (the prologue block already holds the
// first load), but the superblock is rotated to start at fcload, which puts
// the ld;Frm | Fww;st seam inside the trace where the fences merge.
func TestTierUpLoopStartsAtHeader(t *testing.T) {
	rt := buildKernelRuntime(t, "fencechain", 1, tierUpOpts())
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	sym := rt.img.Symbols
	p := rt.tierup.promoted[sym["fcload"]]
	if p == nil {
		t.Fatalf("no promotion headed at fcload (%#x); promoted: %v", sym["fcload"], rt.tierup.promoted)
	}
	want := []uint64{sym["fcload"], sym["fcstore"], sym["fcnext"]}
	if !reflect.DeepEqual(p.trace, want) {
		t.Fatalf("trace %#x, want fcload,fcstore,fcnext %#x", p.trace, want)
	}
	if p.crossFences == 0 {
		t.Fatal("loop superblock merged no fence across its seams")
	}
	if rt.tierup.promoted[sym["fcstore"]] != nil || rt.tierup.promoted[sym["fcnext"]] != nil {
		t.Fatal("the loop was promoted more than once")
	}
}

// TestTierUpBackwardTraceSize: kmeans promotes traces that follow a
// backward edge, so their GuestEnd lies below their GuestPC. Emitting one
// is still charged, and counted in core.guest_bytes, by the sum of its
// components' sizes — GuestEnd−GuestPC would wrap, subtracting cycles and
// adding ≈2^64 bytes.
func TestTierUpBackwardTraceSize(t *testing.T) {
	rt := buildKernelRuntime(t, "kmeans", 2, tierUpOpts())
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	var p *promotion
	for _, q := range rt.tierup.promoted {
		if q.ir.GuestEnd < q.ir.GuestPC && (p == nil || q.trace[0] < p.trace[0]) {
			p = q
		}
	}
	if p == nil {
		t.Fatal("no promoted trace runs backwards; the test no longer covers the wrap")
	}
	var size uint64
	for _, pc := range p.trace {
		blk, err := frontend.Translate(rt.M.Mem[:rt.img.MaxAddr()], pc, rt.feCfg)
		if err != nil {
			t.Fatal(err)
		}
		size += blk.GuestEnd - blk.GuestPC
	}
	c := rt.M.CPUs[0]
	cycles, bytes := c.Cycles, rt.Stats().GuestBytes
	if _, err := rt.install(c, p.trace[0], selfheal.TierFull, p.ir); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Cycles-cycles, translationCostPerByte*size; got != want {
		t.Errorf("emitting trace %#x charged %d cycles, want %d for its %d guest bytes", p.trace, got, want, size)
	}
	if got := rt.Stats().GuestBytes - bytes; got != size {
		t.Errorf("emitting trace %#x counted %d guest bytes, want %d", p.trace, got, size)
	}
}

// TestTierUpRunsOnCallingGoroutine: core starts no goroutine, tier-up or
// not — the goroutine count sampled from inside host-linked calls made by
// a promoting run equals the count before Run. A panic in a promotion
// build therefore unwinds through the caller (serve.runOnce's recover).
func TestTierUpRunsOnCallingGoroutine(t *testing.T) {
	const calls = 64
	b, err := workloads.DigestProgram("sha256", 64, calls)
	if err != nil {
		t.Fatal(err)
	}
	img, err := b.BuildGuest("main")
	if err != nil {
		t.Fatal(err)
	}
	var during []int
	lib := hostlib.New()
	lib.Register("sha256", func(mem hostlib.Memory, args []uint64) (uint64, uint64) {
		during = append(during, runtime.NumGoroutine())
		return 1, 10
	})
	rt, err := New(img, WithVariant(VariantRisotto),
		WithHostLinker(workloads.IDLAll, lib), tierUpOpts())
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().Promotions == 0 {
		t.Fatal("call loop never promoted; the test observed nothing")
	}
	if len(during) != calls {
		t.Fatalf("%d host calls, want %d", len(during), calls)
	}
	for i, n := range during {
		if n != before {
			t.Fatalf("host call %d saw %d goroutines, %d before Run", i, n, before)
		}
	}
}
