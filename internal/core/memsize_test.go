package core

import (
	"testing"

	"repro/internal/guestimg"
	"repro/internal/workloads"
)

// TestMemSizeIsNotABehaviourInput: every kernel at 2 and 16 threads, a
// 16-thread CAS benchmark and a host-linked sha256 guest give the same exit
// code, output, per-CPU cycles and instructions and Stats on the default
// machine as on a 32 MiB one.
func TestMemSizeIsNotABehaviourInput(t *testing.T) {
	build := guestOf(t)
	type guest struct {
		name string
		img  *guestimg.Image
		idl  string
	}
	var guests []guest
	for _, k := range workloads.Registry() {
		for _, threads := range []int{2, 16} {
			guests = append(guests, guest{k.Name, build(k.Build(threads, 1)), ""})
		}
	}
	guests = append(guests,
		guest{"casbench", build(workloads.CASBench(16, 1, 500)), ""},
		guest{"sha256", build(workloads.DigestProgram("sha256", 1024, 16)), workloads.IDLAll})
	for _, g := range guests {
		run := func(size int) reuseRun {
			r := runWith(t, g.img, WithVariant(VariantRisotto), WithHostLinker(g.idl, nil), WithMemSize(size))
			r.mem = nil // where code is placed follows the size
			return r
		}
		checkReuse(t, g.name+" at the default size against 32 MiB", run(0), run(32<<20))
	}
}

// TestDefaultMemSize: "0 = the default" means 8 MiB, split as a 2 MiB code
// cache over 6 MiB for the image, heap and stacks, in GuestRoom and in a
// runtime built without a size.
func TestDefaultMemSize(t *testing.T) {
	if defaultMemSize != 8<<20 || defaultCodeCacheBase(defaultMemSize) != 6<<20 {
		t.Fatalf("default machine %d bytes with the code cache at %#x, want 8 MiB at 6 MiB", defaultMemSize, defaultCodeCacheBase(defaultMemSize))
	}
	for threads := 0; threads <= 30; threads++ {
		if GuestRoom(0, threads) != GuestRoom(defaultMemSize, threads) {
			t.Errorf("GuestRoom(0, %d) = %#x, at the default size %#x", threads, GuestRoom(0, threads), GuestRoom(defaultMemSize, threads))
		}
	}
	img := guestOf(t)(workloads.CASBench(1, 1, 8))
	rt, err := New(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.M.Mem) != defaultMemSize || rt.cfg.CodeCacheBase != 6<<20 {
		t.Errorf("New without a size: %d bytes, code cache at %#x", len(rt.M.Mem), rt.cfg.CodeCacheBase)
	}
}
