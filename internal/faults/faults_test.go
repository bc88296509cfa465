package faults

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestTrapErrorsAs(t *testing.T) {
	base := New(TrapUnmapped, "access out of bounds")
	base.Addr = 0x1234
	wrapped := fmt.Errorf("cpu3 at pc=%#x: %w", 0x40, base)

	tr, ok := As(wrapped)
	if !ok {
		t.Fatal("As failed to find trap in wrapped chain")
	}
	if tr.Kind != TrapUnmapped || tr.Addr != 0x1234 {
		t.Fatalf("trap = %+v", tr)
	}
	if !IsKind(wrapped, TrapUnmapped) {
		t.Error("IsKind(TrapUnmapped) = false")
	}
	if IsKind(wrapped, TrapDecode) {
		t.Error("IsKind(TrapDecode) = true")
	}
	var target *Trap
	if !errors.As(wrapped, &target) {
		t.Error("errors.As directly = false")
	}
}

func TestTrapUnwrap(t *testing.T) {
	cause := errors.New("root cause")
	tr := Wrap(TrapDecode, cause, "decoding failed")
	if !errors.Is(tr, cause) {
		t.Error("errors.Is(trap, cause) = false")
	}
	if !strings.Contains(tr.Error(), "root cause") {
		t.Errorf("Error() = %q, missing cause", tr.Error())
	}
}

func TestTrapRendering(t *testing.T) {
	tr := New(TrapBudget, "runaway guest")
	tr.CPU = 2
	tr.PC = 0x1000
	tr.Steps = 5000
	s := tr.Error()
	for _, want := range []string{"trap[step-budget]", "cpu=2", "pc=0x1000", "steps=5000", "runaway guest"} {
		if !strings.Contains(s, want) {
			t.Errorf("Error() = %q, missing %q", s, want)
		}
	}
}

func TestWithCPUInnermostWins(t *testing.T) {
	tr := New(TrapDecode, "x").WithCPU(1).WithCPU(2)
	if tr.CPU != 1 {
		t.Errorf("CPU = %d, want 1 (first attribution wins)", tr.CPU)
	}
	tr2 := New(TrapDecode, "y").WithGuestPC(0x40).WithGuestPC(0x80)
	if tr2.PC != 0x40 || !tr2.GuestPC {
		t.Errorf("PC = %#x guest=%v, want 0x40 guest", tr2.PC, tr2.GuestPC)
	}
}

func TestInjectorFiresAtNth(t *testing.T) {
	in := NewInjector()
	in.Arm(SiteDecode, 3, TrapDecode)
	for i := 1; i <= 5; i++ {
		tr := in.Hit(SiteDecode)
		if (i == 3) != (tr != nil) {
			t.Fatalf("hit %d: trap = %v", i, tr)
		}
		if tr != nil {
			if tr.Kind != TrapDecode || !tr.Injected {
				t.Fatalf("hit %d: trap = %+v", i, tr)
			}
		}
	}
	if got := in.Count(SiteDecode); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
}

func TestInjectorOneShot(t *testing.T) {
	in := NewInjector()
	in.Arm(SiteMemory, 1, TrapUnmapped)
	if in.Hit(SiteMemory) == nil {
		t.Fatal("first hit should fire")
	}
	for i := 0; i < 10; i++ {
		if in.Hit(SiteMemory) != nil {
			t.Fatal("plan fired twice")
		}
	}
}

func TestInjectorNilSafe(t *testing.T) {
	var in *Injector
	if in.Hit(SiteStep) != nil {
		t.Error("nil injector fired")
	}
	if in.Count(SiteStep) != 0 {
		t.Error("nil injector counted")
	}
}

func TestParseSpec(t *testing.T) {
	sp, err := ParseSpec("cache-exhaust")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Site != SiteCacheAlloc || sp.Kind != TrapCacheExhausted || sp.Nth != 1 {
		t.Errorf("spec = %+v", sp)
	}

	sp, err = ParseSpec("decode@7")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Site != SiteDecode || sp.Nth != 7 {
		t.Errorf("spec = %+v", sp)
	}

	for _, bad := range []string{"nope", "decode@0", "decode@x", "@3"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestParseSpecs(t *testing.T) {
	in, err := ParseInjector("decode@2, step-budget")
	if err != nil {
		t.Fatal(err)
	}
	if in.Hit(SiteDecode) != nil || in.Hit(SiteDecode) == nil {
		t.Error("decode@2 did not fire at the second decode")
	}
	if tr := in.Hit(SiteStep); tr == nil || tr.Kind != TrapBudget {
		t.Errorf("step-budget: first step = %v, want a step-budget trap", tr)
	}
	if in, err := ParseInjector(" "); err != nil || in != nil {
		t.Errorf("empty = %v, %v", in, err)
	}
	if _, err := ParseInjector("decode,nope"); err == nil {
		t.Error("a list with an unknown name was accepted")
	}
	// Every advertised name parses, and the injector the CLIs build from
	// it fires the name's trap kind at the first hit of its site.
	for _, n := range SpecNames() {
		sp, err := ParseSpec(n)
		if err != nil {
			t.Errorf("SpecNames entry %q does not parse: %v", n, err)
			continue
		}
		in, err := ParseInjector(n)
		if err != nil || in == nil {
			t.Errorf("ParseInjector(%q) = %v, %v", n, in, err)
			continue
		}
		if tr := in.Hit(sp.Site); tr == nil || tr.Kind != sp.Kind || !tr.Injected {
			t.Errorf("%s: first hit of %s = %+v, want an injected %v trap", n, sp.Site, tr, sp.Kind)
		}
	}
}

func TestSpecArmFires(t *testing.T) {
	in := NewInjector()
	sp, _ := ParseSpec("misaligned@2")
	sp.Arm(in)
	if in.Hit(SiteMemory) != nil {
		t.Fatal("fired at occurrence 1")
	}
	tr := in.Hit(SiteMemory)
	if tr == nil || tr.Kind != TrapMisaligned {
		t.Fatalf("occurrence 2: trap = %+v", tr)
	}
}
