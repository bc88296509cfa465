// Package mapping holds the translation (mapping) schemes between the
// instruction levels of the Risotto paper — x86, TCG IR and Arm, plus the
// SPARC and IMM side levels — as data, together with the executable form
// of Theorem 1 (behaviour containment).
//
// A Scheme is one table: the fences it places around a load and a store,
// how it rewrites the source level's fences, and how it translates an
// RMW. The package-level values below *are* the paper's figures —
// Figure 2 (QEMU), Figure 7a (x86→IR) and Figure 7b (IR→Arm) — and each
// is written once: Scheme.Apply is what Theorem 1 is checked on, and
// internal/frontend and internal/backend emit code by reading the same
// values, so the table the matrix verifies is the table the DBT runs.
package mapping

import (
	"fmt"
	"maps"

	"repro/internal/litmus"
	"repro/internal/memmodel"
)

// RMWStyle names one of the verified chain's two RMW lowerings, for
// TranslateVerified: ArmVerified's casal or ArmVerifiedLxSx's fenced
// exclusive pair.
type RMWStyle int

const (
	// RMWCasal lowers to the single casal instruction (RMW1^AL).
	RMWCasal RMWStyle = iota
	// RMWExclusiveFenced lowers to DMBFF; RMW2; DMBFF (verified scheme's
	// exclusive-pair option).
	RMWExclusiveFenced
)

// irRMW is every x86→IR scheme's RMW rule: the RMW stays one IR-level RMW
// with SC semantics (QEMU routes it through a helper, but at the IR level
// the helper is an opaque SC atomic; the divergence appears in the Arm
// lowering).
var irRMW = RMWRule{Attr: litmus.Attr{SC: true}}

// mfenceToFsc is the fence column shared by the x86→IR schemes.
var mfenceToFsc = map[memmodel.Fence]memmodel.Fence{memmodel.FenceMFENCE: memmodel.FenceFsc}

// The x86→IR tables.
var (
	// X86Verified is Figure 7a: ld;Frm and Fww;st — Risotto's minimal
	// verified scheme, trailing load fences and leading store fences.
	X86Verified = &Scheme{
		Name: "x86→tcg/verified", Src: memmodel.LevelX86, Dst: memmodel.LevelTCG, Verified: true,
		Load:   Placement{After: memmodel.FenceFrm},
		Store:  Placement{Before: memmodel.FenceFww},
		Fences: mfenceToFsc,
		RMW:    irRMW,
	}
	// X86Qemu is Figure 2's x86→IR half: Fmr;ld (demoted to Frr;ld
	// for x86 guests, §3.1) and Fmw;st — leading fences only, so nothing
	// orders a load with a po-later failed RMW (MPQ).
	X86Qemu = &Scheme{
		Name: "x86→tcg/qemu", Src: memmodel.LevelX86, Dst: memmodel.LevelTCG,
		Load:   Placement{Before: memmodel.FenceFrr},
		Store:  Placement{Before: memmodel.FenceFmw},
		Fences: mfenceToFsc,
		RMW:    irRMW,
	}
	// X86NoFences places nothing (the paper's incorrect-but-fast
	// oracle); it is not registered, so no route goes through it.
	X86NoFences = &Scheme{
		Name: "x86→tcg/no-fences", Src: memmodel.LevelX86, Dst: memmodel.LevelTCG,
		Fences: mfenceToFsc,
		RMW:    irRMW,
	}
)

// The IR→Arm fence columns. Facq/Frel lower to nothing.
var (
	// figure7bFences is Figure 7b's: the read fences become DMBLD, Fww
	// becomes DMBST, everything ordering a write with a later read DMBFF.
	figure7bFences = map[memmodel.Fence]memmodel.Fence{
		memmodel.FenceFrr: memmodel.FenceDMBLD, memmodel.FenceFrw: memmodel.FenceDMBLD,
		memmodel.FenceFrm: memmodel.FenceDMBLD,
		memmodel.FenceFww: memmodel.FenceDMBST,
		memmodel.FenceFwr: memmodel.FenceDMBFF, memmodel.FenceFwm: memmodel.FenceDMBFF,
		memmodel.FenceFmr: memmodel.FenceDMBFF, memmodel.FenceFmw: memmodel.FenceDMBFF,
		memmodel.FenceFmm: memmodel.FenceDMBFF, memmodel.FenceFsc: memmodel.FenceDMBFF,
		memmodel.FenceFacq: memmodel.FenceNone, memmodel.FenceFrel: memmodel.FenceNone,
	}
	// figure2Fences is QEMU's (Figure 2): the same without DMBST.
	figure2Fences = func() map[memmodel.Fence]memmodel.Fence {
		m := maps.Clone(figure7bFences)
		m[memmodel.FenceFww] = memmodel.FenceDMBFF
		return m
	}()
)

// The IR→Arm tables: plain accesses stay plain; they differ in the fence
// column and the RMW rule.
var (
	// ArmVerified is Figure 7b with the RMW1^AL lowering (casal).
	ArmVerified = &Scheme{
		Name: "tcg→arm/verified", Src: memmodel.LevelTCG, Dst: memmodel.LevelArm, Verified: true,
		Fences: figure7bFences,
		RMW:    RMWRule{Attr: litmus.Attr{Acq: true, Rel: true, Class: memmodel.RMWAmo}},
	}
	// ArmVerifiedLxSx is Figure 7b with DMBFF;RMW2;DMBFF.
	ArmVerifiedLxSx = &Scheme{
		Name: "tcg→arm/verified-lxsx", Src: memmodel.LevelTCG, Dst: memmodel.LevelArm, Verified: true,
		Fences: figure7bFences,
		RMW: RMWRule{Before: memmodel.FenceDMBFF, Attr: litmus.Attr{Class: memmodel.RMWLxSx},
			After: memmodel.FenceDMBFF},
	}
	// ArmQemuCasal is Figure 2 with the helper call GCC ≥ 10
	// compiles: a bare RMW1^AL, no surrounding fences (§3.2, MPQ).
	ArmQemuCasal = &Scheme{
		Name: "tcg→arm/qemu-casal", Src: memmodel.LevelTCG, Dst: memmodel.LevelArm,
		Fences: figure2Fences,
		RMW:    RMWRule{Attr: litmus.Attr{Acq: true, Rel: true, Class: memmodel.RMWAmo}},
	}
	// ArmQemuLxSx is Figure 2 with the helper call GCC 9 compiles: a
	// bare RMW2^AL (ldaxr/stlxr), no surrounding fences (§3.2, SBQ).
	ArmQemuLxSx = &Scheme{
		Name: "tcg→arm/qemu-lxsx", Src: memmodel.LevelTCG, Dst: memmodel.LevelArm,
		Fences: figure2Fences,
		RMW:    RMWRule{Attr: litmus.Attr{Acq: true, Rel: true, Class: memmodel.RMWLxSx}},
	}
)

// TranslateVerified runs src through Risotto's verified chain (Figure 7)
// with the given RMW lowering style, returning both the intermediate TCG
// program and the final Arm program. The Arm program is derived from the
// returned TCG program, so campaign drivers checking both Theorem-1 legs
// translate once per leg instead of re-running the x86 step.
func TranslateVerified(src *litmus.Program, rmw RMWStyle) (tcg, arm *litmus.Program) {
	lower := ArmVerified
	if rmw == RMWExclusiveFenced {
		lower = ArmVerifiedLxSx
	}
	tcg = X86Verified.Apply(src)
	return tcg, lower.Apply(tcg)
}

// Verification is the result of one Theorem-1 check.
type Verification struct {
	// Source and Target name the programs compared.
	Source, Target string
	// SourceModel and TargetModel name the models used.
	SourceModel, TargetModel string
	// NewBehaviours lists target outcomes absent from the source — empty
	// iff the mapping is correct for this program.
	NewBehaviours []litmus.Outcome
	// Err, when non-nil, reports that an outcome set could not be
	// enumerated — the enumeration panicked, or a program reads a
	// register it never assigned — and names the program.
	// NewBehaviours is then meaningless.
	Err error
}

// Correct reports whether the translation introduced no new behaviour. A
// verification that failed to enumerate is never correct.
func (v Verification) Correct() bool { return v.Err == nil && len(v.NewBehaviours) == 0 }

// VerifyTheorem1 checks behaviour containment: every outcome of tgt under
// mt must be an outcome of src under ms. Outcome sets are computed through
// the process-wide cache, so sweeping one source program against several
// candidate translations enumerates it only once. Enumeration failures (a
// panicked enumeration) surface in the result's Err instead of crashing the
// sweep. Additional litmus options (a different cache, an observability
// scope, a fault injector) may be appended; they are applied on top of the
// default cache.
func VerifyTheorem1(src *litmus.Program, ms memmodel.Model, tgt *litmus.Program, mt memmodel.Model, opts ...litmus.Option) Verification {
	v := Verification{
		Source:      src.Name,
		Target:      tgt.Name,
		SourceModel: ms.Name(),
		TargetModel: mt.Name(),
	}
	all := append([]litmus.Option{litmus.WithCache(litmus.DefaultCache)}, opts...)
	srcOut, err := litmus.Enumerate(src, ms, all...)
	if err != nil {
		v.Err = fmt.Errorf("mapping: enumerating source %q under %s: %w", src.Name, ms.Name(), err)
		return v
	}
	tgtOut, err := litmus.Enumerate(tgt, mt, all...)
	if err != nil {
		v.Err = fmt.Errorf("mapping: enumerating target %q under %s: %w", tgt.Name, mt.Name(), err)
		return v
	}
	v.NewBehaviours = tgtOut.Minus(srcOut)
	return v
}
