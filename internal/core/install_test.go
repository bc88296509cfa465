package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/guestimg"
	"repro/internal/isa/x86"
	"repro/internal/selfheal"
)

// stubFlushImage builds a guest whose main thread spawns a worker and then
// blocks in join while the worker walks a chain of nblocks distinct
// blocks. A label starts each block the interpreter tier splits out, so a
// test can pin them all to that tier; "joinsc" is main's join.
func stubFlushImage(t *testing.T, nblocks int) *guestimg.Image {
	t.Helper()
	b := guestimg.NewBuilder(0x10000, 0x40000)
	a := b.Asm
	a.Label("worker").
		MovRI(x86.RAX, 0).
		Jmp("c0")
	for i := 0; i < nblocks; i++ {
		a.Label(fmt.Sprintf("c%d", i)).
			AddRI(x86.RAX, 1).
			Jmp(fmt.Sprintf("c%d", i+1))
	}
	a.Label(fmt.Sprintf("c%d", nblocks))
	exitWith(a, x86.RAX)
	a.Label("main").
		MovRI(x86.RAX, GuestSysSpawn).
		MovRI(x86.RDI, 0x7777777700000000). // placeholder: worker addr
		MovRI(x86.RSI, 0).
		Label("spawn").
		Syscall().
		Label("spawned").
		MovRR(x86.RDI, x86.RAX).
		MovRI(x86.RAX, GuestSysJoin).
		Label("joinsc").
		Syscall().
		Label("exit")
	exitWith(a, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	patchImm64(t, img, 0x7777777700000000, img.Symbols["worker"])
	return img
}

// TestInstallInterpStubSurvivesFlush: with the worker's chain and main's
// join at the interpreter tier and a 2 KiB code cache, one-word stubs fill
// the cache exactly, so an interp-stub placement itself finds the cache
// full and flushes. Main sits parked on its join stub through every flush:
// the stub's extent is pinned and its reverse mapping kept, while the
// worker's dead stubs are dropped — a lost mapping would surface as a
// stray-stub trap when main retries its join.
func TestInstallInterpStubSurvivesFlush(t *testing.T) {
	const nblocks = 300
	img := stubFlushImage(t, nblocks)
	rt, err := New(img, WithVariant(VariantRisotto), WithSelfHeal(true),
		WithMemSize(2<<20), WithCodeCacheBase((2<<20)-0x800))
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range img.Symbols {
		rt.Heal().SetTier(pc, selfheal.TierInterp)
	}
	code, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if code != nblocks {
		t.Fatalf("exit %d, want %d", code, nblocks)
	}
	st := rt.Stats()
	if st.CacheFlushes < 2 {
		t.Fatalf("%d flushes; the chain no longer overflows the cache", st.CacheFlushes)
	}
	if st.InterpBlocks < nblocks {
		t.Fatalf("%d interpreted blocks, want at least the %d-block chain", st.InterpBlocks, nblocks)
	}
	// A join that parks makes its syscall again when it returns: more than
	// the guest's four (spawn, join, two exits) means main parked.
	if st.Syscalls <= 4 {
		t.Fatal("main never blocked in join; nothing was parked across a flush")
	}
	// Every stub left mapped is a block still in the cache, or main's join
	// stub, which the flushes carried forward.
	join := img.Symbols["joinsc"]
	carried := false
	for addr, pc := range rt.interpStubs {
		if t2, ok := rt.tbs[pc]; ok && t2.hostAddr == addr {
			continue
		}
		if pc != join {
			t.Errorf("stale stub mapping %#x -> %#x survived a flush", addr, pc)
		}
		carried = true
	}
	if !carried {
		t.Error("main's join stub was not carried across a flush")
	}
}

// TestInstallReemitsFlushedPromotion: a flush drops every translation,
// promoted superblocks included; the next translation of a promoted head
// reinstalls the superblock at TierFull from its retained IR — not the
// one-block cheap tier, and not a second promotion.
func TestInstallReemitsFlushedPromotion(t *testing.T) {
	rt := buildKernelRuntime(t, "fencechain", 1, tierUpOpts())
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	sym := rt.img.Symbols
	p := rt.tierup.promoted[sym["fcload"]]
	if p == nil {
		t.Fatal("fencechain's loop was not promoted")
	}
	before := rt.tbs[sym["fcload"]]
	st := rt.Stats()
	rt.flushCodeCache()
	if len(rt.tbs) != 0 {
		t.Fatal("flush left translations behind")
	}
	c := rt.M.CPUs[0]
	got, err := rt.translate(c, sym["fcload"])
	if err != nil {
		t.Fatal(err)
	}
	if got.tier != selfheal.TierFull || got.codeLen != before.codeLen {
		t.Fatalf("re-emitted %s block of %d bytes, want the %d-byte full-tier superblock", got.tier, got.codeLen, before.codeLen)
	}
	if rt.tbs[sym["fcload"]] != got {
		t.Fatal("re-emitted block is not the installed translation")
	}
	after := rt.Stats()
	if after.Promotions != st.Promotions || after.Blocks != st.Blocks+1 {
		t.Fatalf("promotions %d->%d, blocks %d->%d; want one re-emitted block and no new promotion",
			st.Promotions, after.Promotions, st.Blocks, after.Blocks)
	}
	if after.GuestBytes-st.GuestBytes != p.ir.GuestBytes() {
		t.Fatalf("re-emit counted %d guest bytes, the superblock covers %d", after.GuestBytes-st.GuestBytes, p.ir.GuestBytes())
	}
}

// TestInstallPromotionDivergence: under -tierup -selfcheck an injected
// miscompile that lands on a promoted superblock is caught by the shadow
// check before the superblock runs — the block is quarantined from
// TierFull one rung down — and the run still computes the clean checksum.
// (Blocks start at TierNoOpt under tier-up, so only a promotion diverges
// from TierFull.) A small memory keeps the shadow snapshots cheap.
func TestInstallPromotionDivergence(t *testing.T) {
	want, err := buildKernelRuntime(t, "histogram", 2).Run()
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 20; n++ {
		in := faults.NewInjector()
		in.Arm(faults.SiteMiscompile, uint64(n), faults.TrapMiscompile)
		rt := buildKernelRuntime(t, "histogram", 2, tierUpOpts(), WithSelfCheck(true), WithFaults(in),
			WithMemSize(4<<20))
		code, err := rt.Run()
		if err != nil {
			t.Fatalf("miscompile@%d: %v", n, err)
		}
		if code != want {
			t.Fatalf("miscompile@%d: checksum %d, want %d", n, code, want)
		}
		for _, e := range rt.Heal().History() {
			if e.From == selfheal.TierFull && e.To == selfheal.TierNoFenceMerge &&
				strings.HasPrefix(e.Reason, "selfcheck divergence") {
				return
			}
		}
	}
	t.Fatal("no miscompile@1..20 landed on a promotion")
}
