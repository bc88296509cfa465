package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/guestimg"
	"repro/internal/isa/x86"
	"repro/internal/selfheal"
)

// chainImage builds a guest whose hot path is a chain of nblocks tiny
// translation blocks (each ends in a jump, forcing a block boundary),
// executed passes times. Exit code = nblocks (the per-pass counter).
func chainImage(t *testing.T, nblocks, passes int) *guestimg.Image {
	t.Helper()
	b := guestimg.NewBuilder(0x10000, 0x40000)
	a := b.Asm
	a.Label("main").
		MovRI(x86.R12, 0).
		Label("outer").
		MovRI(x86.RAX, 0).
		Jmp("b0")
	for i := 0; i < nblocks; i++ {
		next := fmt.Sprintf("b%d", i+1)
		if i == nblocks-1 {
			next = "endchain"
		}
		a.Label(fmt.Sprintf("b%d", i)).
			AddRI(x86.RAX, 1).
			Jmp(next)
	}
	a.Label("endchain").
		AddRI(x86.R12, 1).
		CmpRI(x86.R12, int32(passes)).
		Jcc(x86.CondNE, "outer")
	exitWith(a, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestFaultCacheExhaustRecovers runs a working set of blocks several times
// larger than the code cache: translation must flush-and-retranslate
// (repeatedly) instead of aborting, and the guest result is unchanged.
// Chaining on exercises the chain-reset path across flushes.
func TestFaultCacheExhaustRecovers(t *testing.T) {
	const nblocks = 64
	img := chainImage(t, nblocks, 3)
	for _, chain := range []bool{false, true} {
		cfg := Config{Replay: selfheal.Replay{
			MemSize:       1 << 20,
			CodeCacheBase: (1 << 20) - 0x800, // 2 KiB cache
			Chain:         chain,
		}}
		rt, code := runImage(t, img, VariantRisotto, cfg)
		if code != nblocks {
			t.Errorf("chain=%v: exit = %d, want %d", chain, code, nblocks)
		}
		if rt.Stats().CacheFlushes == 0 {
			t.Errorf("chain=%v: no cache flushes despite overflow working set (blocks=%d)",
				chain, rt.Stats().Blocks)
		}
	}
}

// TestFaultCacheExhaustWithThreads flushes while spawned vCPUs are parked
// mid-block: their extents must be pinned, not recycled, and the atomic
// counter must still be exact.
func TestFaultCacheExhaustWithThreads(t *testing.T) {
	const workers = 3
	const iters = 50

	b := guestimg.NewBuilder(0x10000, 0x40000)
	counter := b.Zeros(8)
	ids := b.Zeros(8 * workers)
	a := b.Asm
	a.Label("worker").
		MovRI(x86.RSI, int64(counter)).
		MovRI(x86.RCX, 0).
		Label("wloop").
		MovRI(x86.RBX, 1).
		XAdd(x86.Mem0(x86.RSI), x86.RBX, 8).
		AddRI(x86.RCX, 1).
		CmpRI(x86.RCX, iters).
		Jcc(x86.CondNE, "wloop").
		MovRI(x86.RDI, 0).
		MovRI(x86.RAX, GuestSysExit).
		Syscall()
	// Padding blocks between spawn and join keep translation pressure on
	// the tiny cache while workers run.
	a.Label("main").
		MovRI(x86.R12, 0).
		Label("spawnloop").
		MovRI(x86.RAX, GuestSysSpawn).
		MovRI(x86.RDI, 0x7777777700000000). // placeholder: worker addr
		MovRI(x86.RSI, 0).
		Syscall().
		MovRI(x86.R13, int64(ids)).
		Store(x86.MemIdx(x86.R13, x86.R12, 8, 0), x86.RAX, 8).
		AddRI(x86.R12, 1).
		CmpRI(x86.R12, workers).
		Jcc(x86.CondNE, "spawnloop").
		MovRI(x86.R14, 0).
		Label("padloop").
		Jmp("p0")
	for i := 0; i < 96; i++ {
		a.Label(fmt.Sprintf("p%d", i)).
			AddRI(x86.R14, 1).
			Jmp(fmt.Sprintf("p%d", i+1))
	}
	a.Label(fmt.Sprintf("p%d", 96)).
		MovRI(x86.R12, 0).
		Label("joinloop").
		MovRI(x86.R13, int64(ids)).
		Load(x86.RDI, x86.MemIdx(x86.R13, x86.R12, 8, 0), 8).
		MovRI(x86.RAX, GuestSysJoin).
		Syscall().
		AddRI(x86.R12, 1).
		CmpRI(x86.R12, workers).
		Jcc(x86.CondNE, "joinloop").
		MovRI(x86.RSI, int64(counter)).
		Load(x86.RAX, x86.Mem0(x86.RSI), 8)
	exitWith(a, x86.RAX)

	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	patchImm64(t, img, 0x7777777700000000, img.Symbols["worker"])

	cfg := Config{Replay: selfheal.Replay{
		MemSize:       2 << 20,
		CodeCacheBase: (2 << 20) - 0x600, // 1.5 KiB cache
		Chain:         true,
	}}
	rt, code := runImage(t, img, VariantRisotto, cfg)
	if code != workers*iters {
		t.Errorf("counter = %d, want %d", code, workers*iters)
	}
	if rt.Stats().CacheFlushes == 0 {
		t.Error("no cache flushes; test working set too small to exercise pinning")
	}
}

// spinImage builds a guest that loops forever.
func spinImage(t *testing.T) *guestimg.Image {
	t.Helper()
	b := guestimg.NewBuilder(0x10000, 0x40000)
	a := b.Asm
	a.Label("main").
		MovRI(x86.RCX, 0).
		Label("loop").
		AddRI(x86.RCX, 1).
		Jmp("loop")
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// casLivelockImage builds a guest spinning on a CAS that can never succeed
// (the cell holds 1, the guest forever expects 0).
func casLivelockImage(t *testing.T) *guestimg.Image {
	t.Helper()
	b := guestimg.NewBuilder(0x10000, 0x40000)
	cell := b.Data([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	a := b.Asm
	a.Label("main").
		MovRI(x86.RSI, int64(cell)).
		Label("spin").
		MovRI(x86.RAX, 0). // expected: 0, never matches
		MovRI(x86.RBX, 7).
		CmpXchg(x86.Mem0(x86.RSI), x86.RBX, 8).
		Jcc(x86.CondNE, "spin")
	exitWith(a, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// expectBudgetTrap runs img expecting the per-CPU step budget of 20,000
// to halt it with a structured TrapBudget naming cpu0 at exactly that
// many steps.
func expectBudgetTrap(t *testing.T, img *guestimg.Image, label string, cfg Config) {
	t.Helper()
	cfg.Variant = VariantRisotto
	cfg.StepBudget = 20_000
	rt, err := newRuntime(cfg, img)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	_, err = rt.Run()
	if err == nil {
		t.Fatalf("%s: runaway guest completed", label)
	}
	tr, ok := faults.As(err)
	if !ok {
		t.Fatalf("%s: error is not a trap: %v", label, err)
	}
	if tr.Kind != faults.TrapBudget || tr.Msg != "per-CPU step budget 20000 exhausted" {
		t.Fatalf("%s: trap = %v, want the per-CPU step budget's", label, err)
	}
	if tr.CPU != 0 {
		t.Errorf("%s: trap cpu = %d, want 0", label, tr.CPU)
	}
	if tr.Steps != 20_000 {
		t.Errorf("%s: trap at step %d, want 20000: %v", label, tr.Steps, err)
	}
}

// TestFaultWatchdogInfiniteLoop halts a runaway register-only guest via
// the per-CPU step budget, in both plain and weak-memory machine modes: on
// the weak host the spin is a string of exec transitions, each clipped
// where the budget traps.
func TestFaultWatchdogInfiniteLoop(t *testing.T) {
	img := spinImage(t)
	expectBudgetTrap(t, img, "plain", Config{})
	seed := int64(7)
	expectBudgetTrap(t, img, "weak", Config{Replay: selfheal.Replay{WeakSeed: &seed}})
}

// TestFaultWatchdogCASLivelock halts a livelocked CAS spin the same way —
// the atomic path must hit the budget check too.
func TestFaultWatchdogCASLivelock(t *testing.T) {
	img := casLivelockImage(t)
	expectBudgetTrap(t, img, "plain", Config{})
	seed := int64(11)
	expectBudgetTrap(t, img, "weak", Config{Replay: selfheal.Replay{WeakSeed: &seed}})
}

// TestFaultWatchdogDeadline halts a runaway guest via the wall-clock
// watchdog when no step budget is set. The weak row's CAS spin touches
// memory at every iteration, so only the weak walk's deadline poll can
// stop it.
func TestFaultWatchdogDeadline(t *testing.T) {
	seed := int64(5)
	for _, tc := range []struct {
		name string
		img  *guestimg.Image
		weak *int64
	}{
		{"plain", spinImage(t), nil},
		{"weak", casLivelockImage(t), &seed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := newRuntime(Config{Variant: VariantRisotto, Replay: selfheal.Replay{Deadline: 50 * time.Millisecond, WeakSeed: tc.weak}}, tc.img)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err = rt.Run()
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Fatalf("watchdog took %v to fire", elapsed)
			}
			if tr, ok := faults.As(err); !ok || tr.Kind != faults.TrapBudget || !strings.Contains(tr.Msg, "deadline") {
				t.Fatalf("error = %v, want the deadline's budget trap", err)
			}
		})
	}
}

// TestFaultMisalignedCAS checks the natural (uninjected) misalignment trap:
// an inline CASAL on an odd address is architecturally misaligned.
func TestFaultMisalignedCAS(t *testing.T) {
	b := guestimg.NewBuilder(0x10000, 0x40000)
	cell := b.Zeros(16)
	a := b.Asm
	a.Label("main").
		MovRI(x86.RSI, int64(cell+1)). // misaligned by one
		MovRI(x86.RAX, 0).
		MovRI(x86.RBX, 7).
		CmpXchg(x86.Mem0(x86.RSI), x86.RBX, 8)
	exitWith(a, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := newRuntime(Config{Variant: VariantRisotto}, img)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run()
	tr, ok := faults.As(err)
	if !ok {
		t.Fatalf("misaligned CAS error = %v, want trap", err)
	}
	if tr.Kind != faults.TrapMisaligned {
		t.Fatalf("trap kind = %v, want misaligned: %v", tr.Kind, err)
	}
	if tr.Addr%8 == 0 {
		t.Errorf("trap addr %#x is aligned; attribution wrong", tr.Addr)
	}
}

// TestFaultInjectedStepOnWeakHost: the step-site fault that guards each
// RunAll quantum guards each exec transition of a weak-host walk.
func TestFaultInjectedStepOnWeakHost(t *testing.T) {
	in := faults.NewInjector()
	in.Arm(faults.SiteStep, 3, faults.TrapBudget)
	seed := int64(1)
	rt, err := newRuntime(Config{Variant: VariantRisotto, Inject: in, Replay: selfheal.Replay{WeakSeed: &seed}}, casLivelockImage(t))
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run()
	if tr, ok := faults.As(err); !ok || tr.Kind != faults.TrapBudget || !tr.Injected || tr.CPU != 0 || tr.Steps == 0 {
		t.Fatalf("error = %v, want an injected budget trap on cpu0 with its steps", err)
	}
}

// TestFaultInjectedDecode forces a decode fault mid-translation and checks
// guest-PC attribution survives to the caller.
func TestFaultInjectedDecode(t *testing.T) {
	in := faults.NewInjector()
	in.Arm(faults.SiteDecode, 1, faults.TrapDecode)
	rt, err := newRuntime(Config{Variant: VariantRisotto, Inject: in}, chainImage(t, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run()
	tr, ok := faults.As(err)
	if !ok || tr.Kind != faults.TrapDecode || !tr.Injected {
		t.Fatalf("error = %v, want injected decode trap", err)
	}
	if !tr.GuestPC {
		t.Errorf("trap lacks guest PC attribution: %v", err)
	}
}

// TestFaultInjectedUnmapped forces an unmapped-memory fault at the Nth
// guest memory access.
func TestFaultInjectedUnmapped(t *testing.T) {
	img := sweepGuests(t)[0].img // sum-loop: a store and a load per iteration
	in := faults.NewInjector()
	in.Arm(faults.SiteMemory, 3, faults.TrapUnmapped)
	rt, err := newRuntime(Config{Variant: VariantRisotto, Inject: in}, img)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run()
	tr, ok := faults.As(err)
	if !ok || tr.Kind != faults.TrapUnmapped || !tr.Injected {
		t.Fatalf("error = %v, want injected unmapped trap", err)
	}
}

// TestFaultInjectedCacheExhaust forces an allocation failure on the first
// block: the runtime must flush, retranslate and complete normally — the
// injection is one-shot, so the retry succeeds.
func TestFaultInjectedCacheExhaust(t *testing.T) {
	const nblocks = 8
	in := faults.NewInjector()
	in.Arm(faults.SiteCacheAlloc, 1, faults.TrapCacheExhausted)
	rt, err := newRuntime(Config{Variant: VariantRisotto, Inject: in}, chainImage(t, nblocks, 1))
	if err != nil {
		t.Fatal(err)
	}
	code, err := rt.Run()
	if err != nil {
		t.Fatalf("injected exhaustion not recovered: %v", err)
	}
	if code != nblocks {
		t.Errorf("exit = %d, want %d", code, nblocks)
	}
	if rt.Stats().CacheFlushes != 1 {
		t.Errorf("cache flushes = %d, want 1", rt.Stats().CacheFlushes)
	}
}

// TestFaultInjectedHostCall forces a host-linked call failure and checks the
// trap names the import.
func TestFaultInjectedHostCall(t *testing.T) {
	g := sweepGuests(t)[2] // host-call
	in := faults.NewInjector()
	in.Arm(faults.SiteHostCall, 1, faults.TrapHostCall)
	rt, err := newRuntime(Config{
		Variant: VariantRisotto, Replay: selfheal.Replay{IDL: g.idl},
		Lib: newTestLib(), Inject: in,
	}, g.img)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run()
	tr, ok := faults.As(err)
	if !ok || tr.Kind != faults.TrapHostCall || !tr.Injected {
		t.Fatalf("error = %v, want injected host-call trap", err)
	}
	if tr.CPU != 0 {
		t.Errorf("trap cpu = %d, want 0", tr.CPU)
	}
}

// TestFaultGuestWriteWrappingLength: a guest write syscall whose length
// wraps buf+len past 2^64 is a typed unmapped-access trap — it used to pass
// the bounds check and panic slicing memory.
func TestFaultGuestWriteWrappingLength(t *testing.T) {
	for _, n := range []int64{-1, -0x8000, -1 << 63} {
		b := guestimg.NewBuilder(0x10000, 0x40000)
		buf := b.Zeros(64)
		a := b.Asm
		a.Label("main").
			MovRI(x86.RDI, int64(buf)).
			MovRI(x86.RSI, n).
			MovRI(x86.RAX, GuestSysWrite).
			Syscall()
		exitWith(a, x86.RAX)
		img, err := b.Build("main")
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(img, WithVariant(VariantRisotto))
		if err != nil {
			t.Fatal(err)
		}
		_, err = rt.Run()
		tr, ok := faults.As(err)
		if !ok || tr.Kind != faults.TrapUnmapped {
			t.Fatalf("len=%#x: error = %v, want an unmapped trap", uint64(n), err)
		}
		if tr.Addr != buf || tr.CPU != 0 {
			t.Errorf("len=%#x: trap addr/cpu = %#x/%d, want %#x/0", uint64(n), tr.Addr, tr.CPU, buf)
		}
		if len(rt.M.Output) != 0 {
			t.Errorf("len=%#x: refused write still produced %d bytes", uint64(n), len(rt.M.Output))
		}
	}
}

// TestFaultTrapRoundTrip sanity-checks that a natural unmapped access (a
// wild store) reports the faulting address.
func TestFaultTrapRoundTrip(t *testing.T) {
	b := guestimg.NewBuilder(0x10000, 0x40000)
	a := b.Asm
	a.Label("main").
		MovRI(x86.RSI, 1<<40). // far outside memory
		MovRI(x86.RBX, 1).
		Store(x86.Mem0(x86.RSI), x86.RBX, 8)
	exitWith(a, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := newRuntime(Config{Variant: VariantRisotto}, img)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run()
	tr, ok := faults.As(err)
	if !ok || tr.Kind != faults.TrapUnmapped {
		t.Fatalf("error = %v, want unmapped trap", err)
	}
	if tr.Addr != 1<<40 {
		t.Errorf("trap addr = %#x, want %#x", tr.Addr, uint64(1)<<40)
	}
}

// TestFaultGuestAllocWrappingSize pins the heap bound against sizes near
// 2^64: alloc(-4096) used to pass the heapCur+n check by wrapping and move
// the heap cursor backwards, so the next block landed below the first.
func TestFaultGuestAllocWrappingSize(t *testing.T) {
	for _, size := range []int64{-0x1000, -1} {
		b := guestimg.NewBuilder(0x10000, 0x40000)
		a := b.Asm
		a.Label("main").
			MovRI(x86.RDI, 64).
			MovRI(x86.RAX, GuestSysAlloc).
			Syscall().
			MovRI(x86.RDI, size).
			MovRI(x86.RAX, GuestSysAlloc).
			Syscall()
		exitWith(a, x86.RAX)
		img, err := b.Build("main")
		if err != nil {
			t.Fatal(err)
		}
		rt, err := newRuntime(Config{Variant: VariantRisotto}, img)
		if err != nil {
			t.Fatal(err)
		}
		heap := rt.heapCur
		_, err = rt.Run()
		if err == nil || !strings.Contains(err.Error(), "heap exhausted") {
			t.Fatalf("alloc(%d): error = %v, want heap exhausted", size, err)
		}
		if rt.heapCur != heap+64 {
			t.Errorf("alloc(%d): heap cursor %#x, want %#x (only the 64-byte block)", size, rt.heapCur, heap+64)
		}
	}
}

// TestFaultGuestSpawnStackExhausted pins the stack bound: in 1.25 MiB of
// memory the code cache starts at 960 KiB, which leaves room for three
// 256 KiB stacks above the image's 68 KiB, and the fourth (main + 3
// spawns) does not fit; spawn used to wrap stackCur below zero and report
// success.
func TestFaultGuestSpawnStackExhausted(t *testing.T) {
	b := guestimg.NewBuilder(0x10000, 0x40000)
	a := b.Asm
	a.Label("worker").
		MovRI(x86.RDI, 0).
		MovRI(x86.RAX, GuestSysExit).
		Syscall()
	a.Label("main")
	for i := 0; i < 3; i++ {
		a.MovRI(x86.RAX, GuestSysSpawn).
			MovRI(x86.RDI, 0x7777777700000000+int64(i)). // placeholder: worker addr
			MovRI(x86.RSI, 0).
			Syscall()
	}
	exitWith(a, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		patchImm64(t, img, 0x7777777700000000+i, img.Symbols["worker"])
	}
	rt, err := newRuntime(Config{Variant: VariantRisotto, Replay: selfheal.Replay{MemSize: 5 << 18}}, img)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run()
	if err == nil || !strings.Contains(err.Error(), "stack space exhausted") {
		t.Fatalf("error = %v, want stack space exhausted", err)
	}
	if got := len(rt.M.CPUs); got != 3 {
		t.Errorf("%d vCPUs exist, want 3 (main + the two spawns that fit)", got)
	}
	if rt.stackCur < rt.heapCur {
		t.Errorf("stack cursor %#x fell below the heap %#x", rt.stackCur, rt.heapCur)
	}
}
