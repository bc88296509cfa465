package models

import (
	"testing"

	"repro/internal/memmodel"
)

// TestDefaultCoversEveryLevel: each instruction level has a default model,
// so level-directed lookups (the `model` directive, mapping endpoints)
// always resolve.
func TestDefaultCoversEveryLevel(t *testing.T) {
	for _, l := range memmodel.Levels() {
		if _, ok := Default().ForLevel(l); !ok {
			t.Errorf("no default model for level %q", l)
		}
	}
}

// TestDefaultNamesAndAliases pins the lookup surface the CLIs advertise.
func TestDefaultNamesAndAliases(t *testing.T) {
	for name, want := range map[string]string{
		"x86":                "x86-TSO",
		"x86tso":             "x86-TSO",
		"sparc":              "SPARC-TSO",
		"sparctso":           "SPARC-TSO",
		"imm":                "IMM",
		"tcg":                "TCG-IR",
		"tcgmm":              "TCG-IR",
		"arm":                "Arm-Cats",
		"armcats":            "Arm-Cats",
		"arm-cats(original)": "Arm-Cats(original)",
		"arm-cats-original":  "Arm-Cats(original)",
	} {
		m, err := Default().Lookup(name)
		if err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
			continue
		}
		if m.Name() != want {
			t.Errorf("Lookup(%q) = %s, want %s", name, m.Name(), want)
		}
	}
}

// TestDefaultCanonicalSet pins the sweep set: five canonical models,
// variants excluded.
func TestDefaultCanonicalSet(t *testing.T) {
	canon := Default().Canonical()
	want := []string{"x86-TSO", "SPARC-TSO", "IMM", "TCG-IR", "Arm-Cats"}
	if len(canon) != len(want) {
		t.Fatalf("got %d canonical models, want %d", len(canon), len(want))
	}
	for i, m := range canon {
		if m.Name() != want[i] {
			t.Errorf("canonical[%d] = %s, want %s", i, m.Name(), want[i])
		}
	}
}
