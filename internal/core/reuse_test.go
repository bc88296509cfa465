package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/guestimg"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// reuseRun is what a finished run leaves behind: everything a runtime on a
// reused machine must reproduce exactly.
type reuseRun struct {
	exit   uint64
	output string
	cycles []uint64
	insts  []uint64
	stats  Stats
	mem    []byte
}

// runOn runs img under v on m, or on a new machine when m is nil.
func runOn(t *testing.T, img *guestimg.Image, v Variant, m *machine.Machine) reuseRun {
	t.Helper()
	return runWith(t, img, WithVariant(v), WithMachine(m))
}

// runWith runs img on a runtime built with opts.
func runWith(t *testing.T, img *guestimg.Image, opts ...Option) reuseRun {
	t.Helper()
	rt, err := New(img, opts...)
	if err != nil {
		t.Fatal(err)
	}
	exit, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := reuseRun{exit: exit, output: string(rt.M.Output), stats: rt.Stats(), mem: rt.M.Mem}
	for _, c := range rt.M.CPUs {
		r.cycles = append(r.cycles, c.Cycles)
		r.insts = append(r.insts, c.Insts)
	}
	return r
}

// checkReuse compares a run with the one it must reproduce: one on a
// reused machine with one on a fresh machine, say.
func checkReuse(t *testing.T, what string, got, want reuseRun) {
	t.Helper()
	switch {
	case got.exit != want.exit || got.output != want.output:
		t.Errorf("%s: exits %d with %q, want %d with %q", what, got.exit, got.output, want.exit, want.output)
	case !slices.Equal(got.cycles, want.cycles) || !slices.Equal(got.insts, want.insts):
		t.Errorf("%s: cycles %v insts %v, want %v %v", what, got.cycles, got.insts, want.cycles, want.insts)
	case got.stats != want.stats:
		t.Errorf("%s: stats %+v, want %+v", what, got.stats, want.stats)
	case !bytes.Equal(got.mem, want.mem):
		t.Errorf("%s: final memory differs", what)
	}
}

// TestReusedMachineEqualsFresh: a runtime handed a machine that has just
// run a different kernel — or whose last run ended in an injected
// step-budget trap — behaves exactly as one on a new machine: exit code,
// output, per-CPU cycles and instructions, Stats and final memory, for
// every kernel under every variant.
func TestReusedMachineEqualsFresh(t *testing.T) {
	build := guestOf(t)
	var imgs []*guestimg.Image
	var names []string
	for _, k := range workloads.Registry() {
		imgs = append(imgs, build(k.Build(2, 1)))
		names = append(names, k.Name)
	}
	// The reused machine has the size a fresh runtime's has.
	fresh, err := New(imgs[0])
	if err != nil {
		t.Fatal(err)
	}
	size := len(fresh.M.Mem)
	m := machine.New(size)
	for _, v := range allVariants {
		for i, img := range imgs {
			got := runOn(t, img, v, m)
			want := runOn(t, img, v, nil)
			checkReuse(t, names[i]+"/"+v.String(), got, want)
		}
	}

	t.Run("after a trap", func(t *testing.T) {
		inj := faults.NewInjector()
		inj.Arm(faults.SiteStep, 40, faults.TrapBudget)
		rt, err := New(imgs[0], WithVariant(VariantRisotto), WithMachine(m), WithFaults(inj))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(); err == nil || len(rt.M.CPUs) < 2 {
			t.Fatalf("injected step budget: err %v with %d CPUs, want a trap mid-run", err, len(rt.M.CPUs))
		}
		got := runOn(t, imgs[1], VariantRisotto, m)
		want := runOn(t, imgs[1], VariantRisotto, nil)
		checkReuse(t, names[1]+" after "+names[0]+"'s trap", got, want)
	})

	t.Run("memory size", func(t *testing.T) {
		if _, err := New(imgs[0], WithMachine(m), WithMemSize(2*size)); err == nil {
			t.Error("a memory size other than the machine's was accepted")
		}
		for _, asked := range []int{0, size} {
			rt, err := New(imgs[0], WithMachine(m), WithMemSize(asked))
			if err != nil {
				t.Fatalf("memory size %d: %v", asked, err)
			}
			if rt.M != m || rt.cfg.MemSize != size {
				t.Errorf("memory size %d: runs on the given machine %v, MemSize %d", asked, rt.M == m, rt.cfg.MemSize)
			}
		}
	})
}
