package core

import (
	"testing"

	"repro/internal/guestimg"
	"repro/internal/isa/x86"
	"repro/internal/workloads"
)

// End-to-end operational correctness: translate a guest message-passing
// program with each mapping scheme and execute the *generated Arm code* on
// the weak-memory host. The paper's whole point, observable: the
// no-fences translation exhibits the reordering (a=1 ∧ b=0) that x86
// forbids; the QEMU and verified translations' fences eliminate it.

// mpGuestImage builds guest MP with a spinning reader:
//
//	writer: X=1; Y=1; exit
//	main:   spawn writer; spin until Y==1 (bounded); b=X; exit
//
// Exit code packs (a<<1)|b, where a is whether Y was observed.
func mpGuestImage(t *testing.T) *guestimg.Image {
	t.Helper()
	b := guestimg.NewBuilder(0x10000, 0x40000)
	x := b.Zeros(8)
	y := b.Zeros(8)
	a := b.Asm

	a.Label("writer").
		MovRI(x86.RSI, int64(x)).
		MovRI(x86.RBX, 1).
		Store(x86.Mem0(x86.RSI), x86.RBX, 8).
		MovRI(x86.RDI, int64(y)).
		Store(x86.Mem0(x86.RDI), x86.RBX, 8)
	// Keep the writer alive so its store buffer drains on the random
	// schedule rather than the synchronizing thread exit.
	a.MovRI(x86.RCX, 0).
		Label("wspin").
		AddRI(x86.RCX, 1).
		CmpRI(x86.RCX, 40).
		Jcc(x86.CondNE, "wspin").
		MovRI(x86.RDI, 0).
		MovRI(x86.RAX, GuestSysExit).
		Syscall()

	a.Label("main").
		MovSym(x86.RDI, "writer").
		MovRI(x86.RSI, 0).
		MovRI(x86.RAX, GuestSysSpawn).
		Syscall().
		MovRR(x86.R12, x86.RAX). // writer thread id
		// Spin until Y == 1 or the budget runs out.
		MovRI(x86.RCX, 0).
		MovRI(x86.RDX, int64(y)).
		Label("spin").
		AddRI(x86.RCX, 1).
		CmpRI(x86.RCX, 3000).
		Jcc(x86.CondA, "giveup").
		Load(x86.RBX, x86.Mem0(x86.RDX), 8).
		CmpRI(x86.RBX, 1).
		Jcc(x86.CondNE, "spin").
		Label("giveup").
		// b = X, immediately after observing (or giving up on) Y.
		MovRI(x86.RDX, int64(x)).
		Load(x86.R9, x86.Mem0(x86.RDX), 8).
		// Join the writer, then exit with (a<<1)|b.
		MovRR(x86.RDI, x86.R12).
		MovRI(x86.RAX, GuestSysJoin).
		Syscall().
		MovRR(x86.RDI, x86.RBX).
		ShlRI(x86.RDI, 1).
		OrRR(x86.RDI, x86.R9).
		MovRI(x86.RAX, GuestSysExit).
		Syscall()

	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// runWeakMP returns the (a, b) observation for one seed and variant.
func runWeakMP(t *testing.T, img *guestimg.Image, v Variant, seed int64) (uint64, uint64) {
	t.Helper()
	rt, err := newRuntime(Config{Variant: v, WeakSeed: &seed, Quantum: 1}, img)
	if err != nil {
		t.Fatal(err)
	}
	code, err := rt.Run()
	if err != nil {
		t.Fatalf("%v seed %d: %v", v, seed, err)
	}
	return code >> 1, code & 1
}

func TestWeakHostExposesNoFencesError(t *testing.T) {
	img := mpGuestImage(t)
	seen := false
	for seed := int64(0); seed < 200 && !seen; seed++ {
		a, b := runWeakMP(t, img, VariantNoFences, seed)
		if a == 1 && b == 0 {
			seen = true
		}
	}
	if !seen {
		t.Fatal("no-fences translation never exhibited the MP reorder on the weak host")
	}
}

// TestWeakHostSpinlock is the real-world-shaped consequence of the
// mapping correctness story: a TSO-correct spinlock (plain-store release,
// no MFENCE) keeps mutual exclusion under the verified mapping — the
// emitted DMBST orders the counter store before the release store — but
// the no-fences translation loses counter updates on the weak host.
func TestWeakHostSpinlock(t *testing.T) {
	const threads, iters = 2, 12
	want := uint64(threads * iters)

	run := func(v Variant, seed int64) uint64 {
		b, err := workloads.SpinlockCounterNoMFence(threads, iters)
		if err != nil {
			t.Fatal(err)
		}
		img, err := b.BuildGuest("main")
		if err != nil {
			t.Fatal(err)
		}
		s := seed
		rt, err := newRuntime(Config{Variant: v, WeakSeed: &s, Quantum: 1}, img)
		if err != nil {
			t.Fatal(err)
		}
		code, err := rt.Run()
		if err != nil {
			t.Fatalf("%v seed %d: %v", v, seed, err)
		}
		return code
	}

	// The verified mappings keep the lock correct on every seed.
	for _, v := range []Variant{VariantTCGVer, VariantRisotto, VariantQemu} {
		for seed := int64(0); seed < 25; seed++ {
			if got := run(v, seed); got != want {
				t.Fatalf("%v seed %d: counter = %d, want %d", v, seed, got, want)
			}
		}
	}

	// The no-fences translation loses updates for some seed.
	lost := false
	for seed := int64(0); seed < 60 && !lost; seed++ {
		if run(VariantNoFences, seed) != want {
			lost = true
		}
	}
	if !lost {
		t.Log("note: no-fences spinlock never lost an update in 60 seeds " +
			"(the weak window is narrow); not failing, but the fenced " +
			"variants' guarantee above is the load-bearing assertion")
	}
}

func TestWeakHostFencedVariantsStayCorrect(t *testing.T) {
	img := mpGuestImage(t)
	for _, v := range []Variant{VariantQemu, VariantTCGVer, VariantRisotto} {
		for seed := int64(0); seed < 60; seed++ {
			a, b := runWeakMP(t, img, v, seed)
			if a == 1 && b == 0 {
				t.Fatalf("%v seed %d: generated fences failed to order MP (a=1,b=0)", v, seed)
			}
		}
	}
}
