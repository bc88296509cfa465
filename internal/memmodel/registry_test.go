package memmodel

import (
	"strings"
	"testing"
)

// named returns an axiom-free model: the registry only looks at names.
func named(name string) Model { return Define(name) }

func TestRegistryLookupNormalization(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(named("x86-TSO"), LevelX86, "x86")
	for _, key := range []string{"x86-TSO", "x86tso", "X86_TSO", "x86 tso", "x86"} {
		if _, err := r.Lookup(key); err != nil {
			t.Errorf("Lookup(%q): %v", key, err)
		}
	}
}

func TestRegistryUnknownNameError(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(named("x86-TSO"), LevelX86)
	r.MustRegisterVariant(named("Arm-Cats(original)"), LevelArm)
	_, err := r.Lookup("no-such-model")
	if err == nil {
		t.Fatal("Lookup of unknown model succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown memory model "no-such-model"`) {
		t.Errorf("error %q lacks the canonical prefix", msg)
	}
	if !strings.Contains(msg, "x86-TSO") || !strings.Contains(msg, "Arm-Cats(original)") {
		t.Errorf("error %q does not list the known models", msg)
	}
}

func TestRegistryDuplicateKeyRejected(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(named("x86-TSO"), LevelX86)
	if err := r.Register(named("X86_TSO"), LevelX86); err == nil {
		t.Error("duplicate normalized key accepted")
	}
}

func TestRegistryForLevelAndVariants(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(named("Arm-Cats"), LevelArm, "arm")
	r.MustRegisterVariant(named("Arm-Cats(original)"), LevelArm)
	m, ok := r.ForLevel(LevelArm)
	if !ok || m.Name() != "Arm-Cats" {
		t.Errorf("ForLevel(arm) = %v, %v; want the canonical Arm-Cats", m, ok)
	}
	if _, ok := r.ForLevel(LevelIMM); ok {
		t.Error("ForLevel for an unpopulated level reported ok")
	}
	if got := len(r.Canonical()); got != 1 {
		t.Errorf("Canonical() has %d models, want 1 (variants excluded)", got)
	}
	if _, err := r.Lookup("arm-cats-original"); err != nil {
		t.Errorf("variant not resolvable by name: %v", err)
	}
}

func TestParseLevel(t *testing.T) {
	for _, l := range Levels() {
		got, ok := ParseLevel(string(l))
		if !ok || got != l {
			t.Errorf("ParseLevel(%q) = %q, %v", l, got, ok)
		}
	}
	if _, ok := ParseLevel("riscv"); ok {
		t.Error("ParseLevel accepted an unknown level")
	}
}
