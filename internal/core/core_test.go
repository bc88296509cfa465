package core

import (
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/guestimg"
	"repro/internal/hostlib"
	"repro/internal/isa/x86"
	"repro/internal/selfheal"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata")

// checkGolden compares got with testdata/name, or rewrites the file under
// -update, and reports the first line that differs.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<missing>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("line %d differs from %s:\ngot  %s\nwant %s", i+1, golden, gl[i], w)
		}
	}
	t.Fatalf("%s has %d lines, the test %d", golden, len(wl), len(gl))
}

var allVariants = []Variant{VariantQemu, VariantNoFences, VariantTCGVer, VariantRisotto}

// newTestLib returns a tiny host library used by linker tests.
func newTestLib() *hostlib.Library {
	lib := hostlib.New()
	lib.Register("triple", func(mem hostlib.Memory, args []uint64) (uint64, uint64) {
		return args[0] * 3, 10
	})
	return lib
}

// exitWith emits the guest exit syscall with the code in reg.
func exitWith(a *x86.Assembler, reg x86.Reg) {
	a.MovRR(x86.RDI, reg).
		MovRI(x86.RAX, GuestSysExit).
		Syscall()
}

func runImage(t *testing.T, img *guestimg.Image, v Variant, cfg Config) (*Runtime, uint64) {
	t.Helper()
	cfg.Variant = v
	rt, err := newRuntime(cfg, img)
	if err != nil {
		t.Fatalf("%v: %v", v, err)
	}
	code, err := rt.Run()
	if err != nil {
		t.Fatalf("%v: %v", v, err)
	}
	return rt, code
}

func TestSumLoopAllVariants(t *testing.T) {
	b := guestimg.NewBuilder(0x10000, 0x40000)
	data := make([]byte, 10*8)
	want := uint64(0)
	for i := 0; i < 10; i++ {
		binary.LittleEndian.PutUint64(data[i*8:], uint64(i*i+1))
		want += uint64(i*i + 1)
	}
	arr := b.Data(data)
	result := b.Zeros(8)

	a := b.Asm
	a.Label("main").
		MovRI(x86.RDI, int64(arr)).
		MovRI(x86.RCX, 0).
		MovRI(x86.RAX, 0).
		Label("loop").
		Load(x86.RBX, x86.MemIdx(x86.RDI, x86.RCX, 8, 0), 8).
		AddRR(x86.RAX, x86.RBX).
		AddRI(x86.RCX, 1).
		CmpRI(x86.RCX, 10).
		Jcc(x86.CondNE, "loop").
		MovRI(x86.RSI, int64(result)).
		Store(x86.Mem0(x86.RSI), x86.RAX, 8)
	exitWith(a, x86.RAX)

	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}

	for _, v := range allVariants {
		rt, code := runImage(t, img, v, Config{})
		if code != want {
			t.Errorf("%v: exit code = %d, want %d", v, code, want)
		}
		got, _ := rt.M.ReadMem(result, 8)
		if got != want {
			t.Errorf("%v: stored result = %d, want %d", v, got, want)
		}
		if rt.Stats().Blocks == 0 {
			t.Errorf("%v: no blocks translated", v)
		}
	}
}

func TestFenceStatsPerVariant(t *testing.T) {
	// Two loads then two stores: in the verified scheme the inner
	// Frm+Fww pair merges into one full fence (the §6.1 example), while
	// the outer load keeps its DMBLD and the final store its DMBST.
	b := guestimg.NewBuilder(0x10000, 0x40000)
	buf := b.Zeros(64)
	a := b.Asm
	a.Label("main").
		MovRI(x86.RSI, int64(buf)).
		Load(x86.RAX, x86.Mem0(x86.RSI), 8).
		Load(x86.RBX, x86.MemD(x86.RSI, 8), 8).
		Store(x86.MemD(x86.RSI, 16), x86.RAX, 8).
		Store(x86.MemD(x86.RSI, 24), x86.RBX, 8)
	exitWith(a, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}

	// no-fences: only the MFENCE's Fsc → DMBFF... no: no-fences strips
	// nothing at the IR level for MFENCE (the x86 instruction still maps
	// to Fsc under NoFences? — no: the no-fences variant removes only the
	// per-access fences; explicit MFENCE still becomes Fsc).
	rtNF, _ := runImage(t, img, VariantNoFences, Config{})
	if rtNF.Stats().DMBLoad != 0 || rtNF.Stats().DMBStore != 0 {
		t.Errorf("no-fences emitted access fences: %+v", rtNF.Stats())
	}

	rtQ, _ := runImage(t, img, VariantQemu, Config{})
	if rtQ.Stats().DMBLoad == 0 {
		t.Errorf("qemu should emit DMBLD before loads: %+v", rtQ.Stats())
	}
	if rtQ.Stats().DMBStore != 0 {
		t.Errorf("qemu never emits DMBST: %+v", rtQ.Stats())
	}
	if rtQ.Stats().DMBFull == 0 {
		t.Errorf("qemu should emit DMBFF for stores: %+v", rtQ.Stats())
	}

	rtV, _ := runImage(t, img, VariantTCGVer, Config{})
	if rtV.Stats().DMBStore == 0 {
		t.Errorf("tcg-ver should emit DMBST before the final store: %+v", rtV.Stats())
	}
	if rtV.Stats().DMBLoad == 0 {
		t.Errorf("tcg-ver should emit DMBLD after the first load: %+v", rtV.Stats())
	}
	// The inner Frm+Fww merge leaves exactly one full fence; QEMU emits
	// one DMBFF per store (two total).
	if rtV.Stats().DMBFull >= rtQ.Stats().DMBFull {
		t.Errorf("tcg-ver DMBFF (%d) should be < qemu DMBFF (%d)",
			rtV.Stats().DMBFull, rtQ.Stats().DMBFull)
	}
	// And strictly fewer fence cycles overall.
	vCost := 16*rtV.Stats().DMBFull + 12*rtV.Stats().DMBLoad + 8*rtV.Stats().DMBStore
	qCost := 16*rtQ.Stats().DMBFull + 12*rtQ.Stats().DMBLoad + 8*rtQ.Stats().DMBStore
	if vCost >= qCost {
		t.Errorf("tcg-ver fence cost (%d) should be < qemu (%d)", vCost, qCost)
	}
}

func TestVariantCycleOrdering(t *testing.T) {
	// A memory-heavy loop: no-fences ≤ risotto ≤ tcg-ver < qemu in
	// simulated cycles (risotto ≤ tcg-ver thanks to fence merging and
	// inline CAS; here no CAS, so ≈).
	b := guestimg.NewBuilder(0x10000, 0x40000)
	buf := b.Zeros(8 * 256)
	a := b.Asm
	a.Label("main").
		MovRI(x86.RSI, int64(buf)).
		MovRI(x86.RCX, 0).
		Label("loop").
		Load(x86.RAX, x86.MemIdx(x86.RSI, x86.RCX, 8, 0), 8).
		AddRI(x86.RAX, 3).
		Store(x86.MemIdx(x86.RSI, x86.RCX, 8, 0), x86.RAX, 8).
		AddRI(x86.RCX, 1).
		CmpRI(x86.RCX, 200).
		Jcc(x86.CondNE, "loop").
		MovRI(x86.RAX, 0)
	exitWith(a, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}

	cycles := map[Variant]uint64{}
	for _, v := range allVariants {
		rt, _ := runImage(t, img, v, Config{})
		cycles[v] = rt.M.MaxCycles()
	}
	if !(cycles[VariantNoFences] < cycles[VariantTCGVer]) {
		t.Errorf("no-fences (%d) should beat tcg-ver (%d)",
			cycles[VariantNoFences], cycles[VariantTCGVer])
	}
	if !(cycles[VariantTCGVer] < cycles[VariantQemu]) {
		t.Errorf("tcg-ver (%d) should beat qemu (%d)",
			cycles[VariantTCGVer], cycles[VariantQemu])
	}
	if cycles[VariantRisotto] > cycles[VariantTCGVer] {
		t.Errorf("risotto (%d) should not lose to tcg-ver (%d)",
			cycles[VariantRisotto], cycles[VariantTCGVer])
	}
}

func TestCASGuestSemantics(t *testing.T) {
	// Single-threaded lock cmpxchg: success and failure paths.
	b := guestimg.NewBuilder(0x10000, 0x40000)
	cell := b.Zeros(8)
	a := b.Asm
	a.Label("main").
		MovRI(x86.RSI, int64(cell)).
		MovRI(x86.RAX, 0). // expected 0 (matches init)
		MovRI(x86.RBX, 7). // new value
		CmpXchg(x86.Mem0(x86.RSI), x86.RBX, 8).
		Jcc(x86.CondNE, "fail").
		// Success: now expect a failure: RAX=0 but cell=7.
		MovRI(x86.RAX, 0).
		MovRI(x86.RBX, 9).
		CmpXchg(x86.Mem0(x86.RSI), x86.RBX, 8).
		Jcc(x86.CondEQ, "bad"). // must NOT succeed
		// After failure RAX = old value (7).
		Jmp("out").
		Label("fail").
		MovRI(x86.RAX, 111).
		Jmp("out").
		Label("bad").
		MovRI(x86.RAX, 222).
		Label("out")
	exitWith(a, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}

	for _, v := range allVariants {
		rt, code := runImage(t, img, v, Config{})
		if code != 7 {
			t.Errorf("%v: exit = %d, want 7 (old value after failed CAS)", v, code)
		}
		got, _ := rt.M.ReadMem(cell, 8)
		if got != 7 {
			t.Errorf("%v: cell = %d, want 7", v, got)
		}
		if v == VariantRisotto && rt.Stats().Casal == 0 {
			t.Errorf("risotto should translate CAS inline: %+v", rt.Stats())
		}
		if v == VariantQemu && rt.Stats().HelperCalls == 0 {
			t.Errorf("qemu should use helper calls for CAS: %+v", rt.Stats())
		}
	}
}

func TestThreadsAndAtomicCounter(t *testing.T) {
	// 4 workers each xadd the shared counter 100 times; main joins all
	// and exits with the counter value.
	const workers = 4
	const iters = 100

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

	a.Label("main").
		MovRI(x86.R12, 0) // i
	a.Label("spawnloop").
		MovRI(x86.RAX, GuestSysSpawn)
	// fn address: needs the worker symbol — resolved post-assembly via
	// data patching is awkward; instead load it with LEA-like trick:
	// assemble a CALL-free approach: the builder gives us symbol addrs
	// only after Build, so place the worker address into data later.
	// Simplest: JMP-table free — use MovRI with a placeholder patched
	// after Build.
	a.MovRI(x86.RDI, 0x7777777700000000). // placeholder: worker addr
						MovRI(x86.RSI, 0).
						Syscall().
		// store returned id
		MovRI(x86.R13, int64(ids)).
		Store(x86.MemIdx(x86.R13, x86.R12, 8, 0), x86.RAX, 8).
		AddRI(x86.R12, 1).
		CmpRI(x86.R12, workers).
		Jcc(x86.CondNE, "spawnloop").
		// join all
		MovRI(x86.R12, 0).
		Label("joinloop").
		MovRI(x86.R13, int64(ids)).
		Load(x86.RDI, x86.MemIdx(x86.R13, x86.R12, 8, 0), 8).
		MovRI(x86.RAX, GuestSysJoin).
		Syscall().
		AddRI(x86.R12, 1).
		CmpRI(x86.R12, workers).
		Jcc(x86.CondNE, "joinloop").
		// read counter
		MovRI(x86.RSI, int64(counter)).
		Load(x86.RAX, x86.Mem0(x86.RSI), 8)
	exitWith(a, x86.RAX)

	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	// Patch the placeholder with the worker's address.
	patchImm64(t, img, 0x7777777700000000, img.Symbols["worker"])

	for _, v := range allVariants {
		_, code := runImage(t, img, v, Config{})
		if code != workers*iters {
			t.Errorf("%v: counter = %d, want %d", v, code, workers*iters)
		}
	}
}

// patchImm64 rewrites the unique occurrence of the placeholder constant in
// the image's text with the real value.
func patchImm64(t *testing.T, img *guestimg.Image, placeholder, value uint64) {
	t.Helper()
	text := img.Segments[0].Data
	found := false
	for i := 0; i+8 <= len(text); i++ {
		if binary.LittleEndian.Uint64(text[i:]) == placeholder {
			binary.LittleEndian.PutUint64(text[i:], value)
			found = true
			break
		}
	}
	if !found {
		t.Fatal("placeholder not found in text")
	}
}

func TestHostLinker(t *testing.T) {
	// A guest that calls an imported function "triple" through the PLT.
	// The guest fallback implementation computes x*3+1 (deliberately
	// different) so the test can tell which side ran.
	b := guestimg.NewBuilder(0x10000, 0x40000)
	b.Import("triple")
	a := b.Asm
	a.Label("main").
		MovRI(x86.RDI, 14).
		Call("triple@plt").
		// result in RAX
		Jmp("done").
		Label("triple"). // guest implementation: x*3 + 1
		MovRR(x86.RAX, x86.RDI).
		MulRI(x86.RAX, 3).
		AddRI(x86.RAX, 1).
		Ret().
		Label("done")
	exitWith(a, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}

	lib := hostlib.New()
	lib.Register("triple", func(mem hostlib.Memory, args []uint64) (uint64, uint64) {
		return args[0] * 3, 10
	})
	idlSrc := "i64 triple(i64 x);\n"

	// Risotto with linker: host implementation runs (42).
	rt, code := runImage(t, img, VariantRisotto, Config{Replay: selfheal.Replay{IDL: idlSrc}, Lib: lib})
	if code != 42 {
		t.Errorf("risotto+linker: exit = %d, want 42 (host impl)", code)
	}
	if rt.Stats().HostCalls != 1 {
		t.Errorf("risotto+linker: host calls = %d, want 1", rt.Stats().HostCalls)
	}

	// Every other variant translates the guest implementation (43).
	for _, v := range []Variant{VariantQemu, VariantTCGVer, VariantNoFences} {
		rt, code := runImage(t, img, v, Config{Replay: selfheal.Replay{IDL: idlSrc}, Lib: lib})
		if code != 43 {
			t.Errorf("%v: exit = %d, want 43 (guest impl)", v, code)
		}
		if rt.Stats().HostCalls != 0 {
			t.Errorf("%v: unexpected host calls", v)
		}
	}

	// Risotto *without* IDL also translates the guest implementation —
	// the linker has zero effect when unused (§7.3).
	rt2, code := runImage(t, img, VariantRisotto, Config{})
	if code != 43 || rt2.Stats().HostCalls != 0 {
		t.Errorf("risotto w/o IDL: exit=%d hostcalls=%d", code, rt2.Stats().HostCalls)
	}
}

// TestHostLinkedDigestWrappingBuffer calls the linked md5 with a
// guest-chosen buffer whose end wraps past 2^64: the host library must
// refuse it (result 0) and the run complete, not panic out of Run.
func TestHostLinkedDigestWrappingBuffer(t *testing.T) {
	b := guestimg.NewBuilder(0x10000, 0x40000)
	b.Import("md5")
	a := b.Asm
	a.Label("main").
		MovRI(x86.RDI, -8). // ptr = 2^64-8
		MovRI(x86.RSI, 16).
		Call("md5@plt").
		Jmp("done").
		Label("md5"). // guest implementation, unused under the linker
		MovRI(x86.RAX, 99).
		Ret().
		Label("done")
	exitWith(a, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	rt, code := runImage(t, img, VariantRisotto,
		Config{Replay: selfheal.Replay{IDL: "u64 md5(buf data, u64 len);\n"}})
	if code != 0 || rt.Stats().HostCalls != 1 {
		t.Errorf("exit = %d, host calls = %d; want 0, 1", code, rt.Stats().HostCalls)
	}
}

func TestGuestWriteSyscall(t *testing.T) {
	b := guestimg.NewBuilder(0x10000, 0x40000)
	msg := b.Data([]byte("hi from guest\n"))
	a := b.Asm
	a.Label("main").
		MovRI(x86.RDI, int64(msg)).
		MovRI(x86.RSI, 14).
		MovRI(x86.RAX, GuestSysWrite).
		Syscall().
		MovRI(x86.RAX, 0)
	exitWith(a, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := runImage(t, img, VariantRisotto, Config{})
	if string(rt.M.Output) != "hi from guest\n" {
		t.Fatalf("output = %q", rt.M.Output)
	}
}

func TestGuestAllocSyscall(t *testing.T) {
	b := guestimg.NewBuilder(0x10000, 0x40000)
	a := b.Asm
	a.Label("main").
		MovRI(x86.RDI, 4096).
		MovRI(x86.RAX, GuestSysAlloc).
		Syscall().
		// Store to the allocation to prove it is usable.
		MovRR(x86.RSI, x86.RAX).
		MovRI(x86.RBX, 5).
		Store(x86.Mem0(x86.RSI), x86.RBX, 8).
		Load(x86.RAX, x86.Mem0(x86.RSI), 8)
	exitWith(a, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	_, code := runImage(t, img, VariantRisotto, Config{})
	if code != 5 {
		t.Fatalf("alloc roundtrip = %d, want 5", code)
	}
}

func TestTBCacheReuse(t *testing.T) {
	// A loop executing 1000 times must translate its block once.
	b := guestimg.NewBuilder(0x10000, 0x40000)
	a := b.Asm
	a.Label("main").
		MovRI(x86.RCX, 0).
		Label("loop").
		AddRI(x86.RCX, 1).
		CmpRI(x86.RCX, 1000).
		Jcc(x86.CondNE, "loop").
		MovRI(x86.RAX, 0)
	exitWith(a, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := runImage(t, img, VariantRisotto, Config{})
	if rt.Stats().Blocks > 6 {
		t.Fatalf("blocks translated = %d; cache not reused?", rt.Stats().Blocks)
	}
}

// TestGuestJoinDoesNotSpin: the main thread of histogram spends the run
// blocked in join. It parks until the worker it joins halts — it used to
// re-execute the helper BLR 64 times a quantum, 443,516 instructions, a
// third of the run, and later once per rotation — and nothing the guest or
// the cycle model can see moves: the exit code and cycles below are the
// spinning join's at 56226c7. The join that parks makes its syscall twice,
// once to park and once to return, so the guest's 7 syscalls count 8.
func TestGuestJoinDoesNotSpin(t *testing.T) {
	rt := buildKernelRuntime(t, "histogram", 2)
	code, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if code != 4112 || rt.M.MaxCycles() != 1245543 || st.Syscalls != 8 || st.HelperCalls != 8 {
		t.Errorf("exit %d, MaxCycles %d, syscalls %d, helper calls %d; want 4112, 1245543, 8, 8",
			code, rt.M.MaxCycles(), st.Syscalls, st.HelperCalls)
	}
	for i, want := range []uint64{3701, 1245543, 1245213} {
		if got := rt.M.CPUs[i].Cycles; got != want {
			t.Errorf("cpu%d cycles = %d, want %d", i, got, want)
		}
	}
	// The workers' quanta and main's few: main takes no turn while parked
	// (the join that retried once per rotation took 20,756).
	if quanta := rt.Obs().Child("machine").Counter("sched.quanta").Load(); quanta != 13845 {
		t.Errorf("run took %d quanta, want 13845", quanta)
	}
	// Set-up, two spawns, two joins and the reduction, each once.
	if main := rt.M.CPUs[0].Insts; main != 1153 {
		t.Errorf("main thread executed %d instructions, want its straight line's 1153", main)
	}
}

// joinDeadlockImage builds a guest whose join can never return: main joins
// itself, or, with cycle, main and a spawned worker join each other. A
// label starts each block the interpreter tier splits out, so a test can
// pin them all to that tier.
func joinDeadlockImage(t *testing.T, cycle bool) *guestimg.Image {
	t.Helper()
	b := guestimg.NewBuilder(0x10000, 0x40000)
	a := b.Asm
	a.Label("worker").
		MovRI(x86.RDI, 0).
		MovRI(x86.RAX, GuestSysJoin).
		Label("wjoin").
		Syscall().
		Label("wexit")
	exitWith(a, x86.RAX)
	a.Label("main")
	if cycle {
		a.MovRI(x86.RAX, GuestSysSpawn).
			MovRI(x86.RDI, 0x7777777700000000). // placeholder: worker addr
			MovRI(x86.RSI, 0).
			Label("spawn").
			Syscall().
			Label("spawned").
			MovRR(x86.RDI, x86.RAX)
	} else {
		a.MovRI(x86.RDI, 0)
	}
	a.MovRI(x86.RAX, GuestSysJoin).
		Label("join").
		Syscall().
		Label("exit")
	exitWith(a, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	if cycle {
		patchImm64(t, img, 0x7777777700000000, img.Symbols["worker"])
	}
	return img
}

// TestGuestJoinDeadlockFails: a join that would wait on its own thread —
// directly, or around a cycle of blocked joins — fails at once on the
// guest join error path, compiled and at the interpreter tier, instead of
// spinning until the step budget runs out.
func TestGuestJoinDeadlockFails(t *testing.T) {
	for _, cycle := range []bool{false, true} {
		for _, interp := range []bool{false, true} {
			img := joinDeadlockImage(t, cycle)
			rt, err := New(img, WithVariant(VariantRisotto), WithSelfHeal(true), WithStepBudget(1_000_000))
			if err != nil {
				t.Fatal(err)
			}
			if interp {
				for _, pc := range img.Symbols {
					rt.Heal().SetTier(pc, selfheal.TierInterp)
				}
			}
			_, err = rt.Run()
			if err == nil || !strings.Contains(err.Error(), "guest join: ") || !strings.Contains(err.Error(), "would wait on itself") {
				t.Errorf("cycle=%v interp=%v: run error %v, want a guest join that would wait on itself", cycle, interp, err)
			}
			if interp != (rt.Stats().InterpBlocks > 0) {
				t.Errorf("cycle=%v interp=%v: %d interpreted blocks", cycle, interp, rt.Stats().InterpBlocks)
			}
			if steps := rt.M.CPUs[0].Insts; steps > 1000 {
				t.Errorf("cycle=%v interp=%v: main ran %d instructions before the join failed", cycle, interp, steps)
			}
		}
	}
}
