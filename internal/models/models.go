// Package models assembles the built-in memory models into the default
// memmodel.Registry. It is the one place that knows every concrete model
// package; everything else — CLIs, the campaign driver, the mapping
// matrix — resolves models by name or level through the
// registry, so admitting a new model means one package plus one
// registration line here.
package models

import (
	"sync"

	"repro/internal/memmodel"
	"repro/internal/models/armcats"
	"repro/internal/models/imm"
	"repro/internal/models/opref"
	"repro/internal/models/sparctso"
	"repro/internal/models/tcgmm"
	"repro/internal/models/x86tso"
)

var (
	defaultOnce sync.Once
	defaultReg  *memmodel.Registry
)

// Default returns the process-wide registry of built-in models: the five
// canonical models in guest→host level order (x86-TSO, SPARC-TSO, IMM,
// TCG-IR, Arm-Cats) plus the pre-fix Arm-Cats variant, registered as a
// variant so it resolves by name but stays out of corpus sweeps.
func Default() *memmodel.Registry {
	defaultOnce.Do(func() {
		r := memmodel.NewRegistry()
		r.MustRegister(x86tso.New(), memmodel.LevelX86, "x86")
		r.MustRegister(sparctso.New(), memmodel.LevelSPARC, "sparc")
		r.MustRegister(imm.New(), memmodel.LevelIMM)
		r.MustRegister(tcgmm.New(), memmodel.LevelTCG, "tcg", "tcgmm")
		r.MustRegister(armcats.New(), memmodel.LevelArm, "arm")
		r.MustRegisterVariant(armcats.NewVariant(armcats.Original), memmodel.LevelArm)
		// The operational-reference model mirrors the simulated machine's
		// store-buffer mode exactly (internal/explore measures coverage
		// against it); a variant because it describes the machine, not an
		// architecture.
		r.MustRegisterVariant(opref.New(), memmodel.LevelArm, "machine-ref")
		defaultReg = r
	})
	return defaultReg
}

// ByLevel returns the default registry's model for a level, panicking on
// unpopulated levels — every Level constant has a default model here, so
// a panic means a programming error, not bad user input.
func ByLevel(l memmodel.Level) memmodel.Model {
	m, ok := Default().ForLevel(l)
	if !ok {
		panic("models: no model registered for level " + string(l))
	}
	return m
}

// MustLookup resolves a name through the default registry, panicking on
// unknown names (for call sites where the name is a literal).
func MustLookup(name string) memmodel.Model {
	return Default().MustLookup(name)
}
